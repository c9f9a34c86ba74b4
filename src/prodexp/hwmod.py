"""Truncated unitarizable highest-weight modules.

Builds the irreducible quotient of a Virasoro or affine sl2 (vacuum/
parabolic type: lowering letters x(-n), n >= 1, over a finite-dimensional
sl2 lowest level) highest-weight module, level by level and exactly, and
assembles dense generator block matrices in per-level orthonormal bases.

One exact recursion (`unitarize`) builds every module.  Level k of the
quotient is spanned by s u, s a lowering generator of mode -a (L_{-1} and
L_{-2}, or x_j(-1)) and u in the kept basis of level k - a (Kac & Raina,
*Bombay Lectures on Highest Weight Representations*, 1987).  Its Gram
matrix needs only the levels below and the brackets [raising, lowering];
its exact LDL^T, in span order, keeps the first independent spanning
words as the basis and is the unitarity test.

The exact arithmetic runs on Python integers.  The LDL^T is a
fraction-free (Bareiss) elimination, and the products and triangular
solves (`_mm`, `_lsolve`, `_ltsolve`) carry integer numerators over one
denominator per row or column and make each Fraction entry once, at the
end, reduced by a single gcd.

`VirasoroVerma` and `AffineVerma` carry the algebra's rules for it and are
also the PBW Shapovalov oracle (`_PBWVerma`): exact Gram matrices of the
full Verma basis, against which the quotient is tested.

A `GradedModule` is one positive-energy representation: of Vect(S^1) on
a Virasoro module, and of the loop algebra extended by Vect(S^1) on an
affine module, whose L_n are the Sugawara operators built from its
x(n) (Goodman & Wallach, J. reine angew. Math. 347, 1984).

Conventions
-----------
* A generator is ("L", n) for Virasoro modes or ("x", j, n) for affine
  modes (j indexes e, h, f); the mode is always last.  On an affine
  module ("L", n) is the Sugawara L_n.
* A PBW monomial is a tuple of lowering letters applied to the lowest level,
  modes nonincreasing left to right; for affine letters with equal mode the
  basis order is (e, h, f).
* Generator blocks are compressions P pi P to levels 0..N; lowering blocks
  are defined as adjoints of the raising blocks, which makes truncated
  propagators of real elements exactly unitary.
* Weights are exact: a Virasoro (c, h) that is not an int or Fraction is
  rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import hashlib
import itertools
import json
import math

import numpy as np

from .liealg import (DIM_G, E, F, H, H_VEE, FourierVectorField,
                     LoopAlgebraElement, loop_cocycle, sl2_bracket, sl2_inner,
                     vect_cocycle_integral)
from .scale import gw_field_seminorm, gw_loop_seminorm, gw_virasoro_seminorm


class NotUnitarizable(Exception):
    """The Gram matrix is indefinite at `level`, the first level where it
    is, which does not depend on the basis.  `eigenvalue` is not an
    eigenvalue but the value `_exact_ldl` raises on that level's spanning
    Gram, eliminated in span order: the first negative pivot, or minus
    the first nonzero entry below a zero pivot, so it depends on the
    spanning words and their order."""

    def __init__(self, level, eigenvalue):
        self.level = level
        self.eigenvalue = eigenvalue
        super().__init__(
            f"spanning Gram matrix at level {level} is indefinite: first "
            f"negative LDL pivot {eigenvalue:.3e} (the pivot depends on "
            f"the basis, the level does not)")


@dataclass(frozen=True)
class HighestWeightSpec:
    """Weight data + truncation depth for a highest-weight module."""

    kind: str                # "virasoro" | "affine_sl2"
    N: int
    c: object = None         # Virasoro central charge
    h: object = None         # Virasoro lowest L0 eigenvalue
    ell: int = None          # affine level
    lam: int = None          # sl2 lowest-level weight (dominant integral)

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("truncation N must be nonnegative")
        if self.kind == "virasoro":
            if self.c is None or self.h is None:
                raise ValueError("virasoro spec needs (c, h)")
            for name in ("c", "h"):
                value = getattr(self, name)
                if not isinstance(value, (int, Fraction)):
                    raise ValueError(f"virasoro {name}={value!r} is not "
                                     f"rational (give an int or Fraction)")
        elif self.kind == "affine_sl2":
            if self.ell is None or self.lam is None:
                raise ValueError("affine spec needs (ell, lam)")
            if not (0 <= self.lam <= self.ell):
                raise ValueError("need 0 <= lam <= ell (integrability)")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    def descriptor(self):
        """The descriptor JSON of this spec (`cli.parse_module_spec`)."""
        if self.kind == "virasoro":
            return {"kind": "virasoro", "c": str(self.c), "h": str(self.h),
                    "N": self.N}
        return {"kind": "affine_sl2", "ell": self.ell, "lam": self.lam,
                "N": self.N}

    def key(self):
        """Stable cache key."""
        blob = json.dumps(self.descriptor(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def virasoro_spec(c, h, N):
    return HighestWeightSpec(kind="virasoro", N=N, c=c, h=h)


def affine_spec(ell, lam, N):
    return HighestWeightSpec(kind="affine_sl2", N=N, ell=ell, lam=lam)


def discrete_series_c(m):
    """c(m) = 1 - 6/((m+2)(m+3))."""
    return 1 - Fraction(6, (m + 2) * (m + 3))


def discrete_series_h(m, p, q):
    """h_{p,q}(m) = (((m+3)p - (m+2)q)^2 - 1) / (4(m+2)(m+3))."""
    return Fraction(((m + 3) * p - (m + 2) * q) ** 2 - 1, 4 * (m + 2) * (m + 3))


@lru_cache(maxsize=None)
def partitions(k, max_part=None):
    """Nonincreasing integer partitions of k with parts <= max_part."""
    if max_part is None or max_part > k:
        max_part = k
    if k == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(k - first, first):
            out.append((first,) + rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# algebras and the PBW Shapovalov oracle


def _acc(out, state, scale):
    """out += scale * state for {monomial: coefficient} dicts."""
    for mu, cf in state.items():
        v = out.get(mu)
        out[mu] = cf * scale if v is None else v + cf * scale


class _PBWVerma:
    """PBW bases, generator action and exact Shapovalov recursion of a
    truncated Verma-type module; `monomials[k]` lists the PBW monomials
    of level k.  Subclasses set `h0` and supply `_split` (first lowering
    letter as a generator, and the rest of the monomial), `_head` (the
    action where no straightening is needed), `adjoint`, `bracket` and
    `lowest`, plus the quotient rules `lowering`, `zero_modes` and
    `higher` (see `unitarize`).
    """

    zero_modes = ()

    def __init__(self, spec, monomials):
        self.spec = spec
        self.monomials = monomials
        self.index = [{m: i for i, m in enumerate(lvl)} for lvl in monomials]
        self._memo = {}              # gen -> {monomial: apply_gen result}
        self._gram = {}

    @property
    def level_dims(self):
        return [len(lvl) for lvl in self.monomials]

    def apply_gen(self, gen, mono):
        """gen applied to a PBW monomial, as {monomial: coefficient}.

        Central elements act as scalars; results with level > N are
        dropped (compression convention).
        """
        memo = self._memo.get(gen)
        if memo is None:
            memo = self._memo[gen] = {}
        hit = memo.get(mono)
        if hit is None:
            hit = memo[mono] = self._apply(gen, mono)
        return hit

    def _apply(self, gen, mono):
        # g a r = a (g r) + [g, a] r for the first lowering letter a
        head = self._head(gen, mono)
        if head is not None:
            return head
        first, rest = self._split(mono)
        out = {}
        for mu, cf in self.apply_gen(gen, rest).items():
            _acc(out, self.apply_gen(first, mu), cf)
        gens, scalar = self.bracket(gen, first)
        for g, cf in gens.items():
            _acc(out, self.apply_gen(g, rest), cf)
        if scalar:
            _acc(out, {rest: 1}, scalar)
        return out

    def gram(self, k):
        """Shapovalov matrix at level k: G[i][j] = <m_i Omega, m_j Omega>.

        Level 0 is the Gram matrix of the lowest level.  Above it, with
        m_i = a r for the first lowering letter a, <a r, v> = <r, a^+ v>:
        row(m_i) sums G[r][mu] cf over the sparse action a^+ m_j =
        sum_mu cf mu.
        """
        hit = self._gram.get(k)
        if hit is not None:
            return hit
        if k == 0:
            G = self.lowest()[0]
        else:
            G = []
            for mono in self.monomials[k]:
                first, rest = self._split(mono)
                prev_k = k + first[-1]
                idx = self.index[prev_k]
                prow = self.gram(prev_k)[idx[rest]]
                adj = self.adjoint(first)
                row = []
                for src in self.monomials[k]:
                    s = Fraction(0)
                    for mu, cf in self.apply_gen(adj, src).items():
                        s += prow[idx[mu]] * cf
                    row.append(s)
                G.append(row)
        self._gram[k] = G
        return G


class VirasoroVerma(_PBWVerma):
    """Truncated Virasoro Verma module.

    Monomials at level k are partitions (n_1 >= ... >= n_j), sum = k,
    standing for L_{-n_1} ... L_{-n_j} Omega.  L_{-1} and L_{-2} generate
    the lowering subalgebra.
    """

    lowering = (("L", -1), ("L", -2))

    def __init__(self, spec):
        assert spec.kind == "virasoro"
        super().__init__(spec, [partitions(k) for k in range(spec.N + 1)])
        self.c, self.h = Fraction(spec.c), Fraction(spec.h)
        self.h0 = spec.h

    def lowest(self):
        return [[Fraction(1)]], {}

    def _split(self, mono):
        return ("L", -mono[0]), mono[1:]

    def adjoint(self, gen):
        return ("L", -gen[1])

    def bracket(self, a, b):
        """[L_m, L_n] = (m - n) L_{m+n} + d_{m+n,0} c (m^3 - m)/12, as
        ({generator: coefficient}, central scalar)."""
        m, n = a[1], b[1]
        gens = {("L", m + n): m - n} if m != n else {}
        return gens, (self.c * Fraction(m ** 3 - m, 12) if m + n == 0 else 0)

    def higher(self, gen):
        """L_n = [L_{n-1}, L_1] / (n - 2) for n >= 3."""
        n = gen[1]
        return ("L", n - 1), ("L", 1), n - 2

    def _head(self, gen, mono):
        """gen on a monomial where no straightening is needed, else None."""
        m = gen[1]
        if m == 0:
            return {mono: self.h + sum(mono)}
        if m < 0:
            if sum(mono) - m > self.spec.N:
                return {}
            if not mono or -m >= mono[0]:
                return {(-m,) + mono: 1}
        elif not mono:
            return {}                # L_m Omega = 0, m > 0
        return None


_ADJ = {E: F, H: H, F: E}      # compact-real-form adjoint on sl2 letters
# dual pairs (x_i, x^i, weight) of the Sugawara sum for the basic inner
# product: (e, f), (h, h/2), (f, e)
_SUGAWARA_DUAL = ((E, F, 1.0), (H, H, 0.5), (F, E, 1.0))
_UNIT = [tuple(int(i == j) for i in range(DIM_G)) for j in range(DIM_G)]
# (bracket, inner product) of each pair of letters x_j, x_j1
_LETTER_PAIRS = [[(sl2_bracket(u, u1), sl2_inner(u, u1)) for u1 in _UNIT]
                 for u in _UNIT]


def _sl2_lowest(lam):
    """Gram matrix and (e, h, f) on the sl2 irrep V_lam in the integer basis
    f^w v, w = 0..lam, v the highest-weight vector.

    h f^w v = (lam - 2w) f^w v, f f^w v = f^{w+1} v and e f^w v =
    w (lam - w + 1) f^{w-1} v; <f^w v, f^w v> = w! lam! / (lam - w)!, so
    e^dagger = f and h^dagger = h hold exactly for every lam.
    """
    d = lam + 1
    e, h, f = ([[0] * d for _ in range(d)] for _ in range(3))
    gram = [[Fraction(0)] * d for _ in range(d)]
    for w in range(d):
        h[w][w] = lam - 2 * w
        if w:
            e[w - 1][w] = w * (lam - w + 1)
        if w < lam:
            f[w + 1][w] = 1
        gram[w][w] = Fraction(math.factorial(w) * math.perm(lam, w))
    return gram, (e, h, f)


def _affine_monomials(k, lam):
    """Canonical letter tuples + lowest-level index for level k.

    A letter is (mode n >= 1, basis index j); letters sorted by mode
    nonincreasing, ties by j nondecreasing.
    """
    from itertools import combinations_with_replacement
    out = []
    for part in partitions(k):
        # group equal parts, choose nondecreasing letter indices per group
        groups = []
        i = 0
        while i < len(part):
            j = i
            while j < len(part) and part[j] == part[i]:
                j += 1
            groups.append((part[i], j - i))
            i = j
        choices = [[]]
        for mode, count in groups:
            new = []
            for prefix in choices:
                for combo in combinations_with_replacement((E, H, F), count):
                    new.append(prefix + [(mode, j) for j in combo])
            choices = new
        for letters in choices:
            for v in range(lam + 1):
                out.append((tuple(letters), v))
    return tuple(out)


class AffineVerma(_PBWVerma):
    """Truncated vacuum-type affine sl2 module: lowering letters x(-n),
    n >= 1, over the (lam+1)-dim lowest level, at level ell.

    Monomials are (letters, v): letters as in `_affine_monomials`, v the
    lowest-level basis index (of f^v times the highest-weight vector).
    The central element acts as the scalar ell.  Since sl2 is perfect,
    the x_j(-1) generate the lowering subalgebra.
    """

    lowering = tuple(("x", j, -1) for j in (E, H, F))
    zero_modes = tuple(("x", j, 0) for j in (E, H, F))
    # x_j(n) = [x_a(n-1), x_b(1)] / c per letter j: [h, e] = 2e,
    # [e, f] = h, [f, h] = 2f
    _HIGHER = {E: (H, E, 2), H: (E, F, 1), F: (F, H, 2)}

    def __init__(self, spec):
        assert spec.kind == "affine_sl2"
        lam = spec.lam
        super().__init__(spec,
                         [_affine_monomials(k, lam) for k in range(spec.N + 1)])
        self.ell = Fraction(spec.ell)
        self._wmat = _sl2_lowest(lam)[1]
        c_lam = Fraction(lam * (lam + 2), 2)            # sl2 Casimir on V_lam
        self.h0 = c_lam / (2 * (spec.ell + H_VEE))      # Sugawara lowest L0

    def lowest(self):
        gram, mats = _sl2_lowest(self.spec.lam)
        return gram, dict(zip(self.zero_modes, mats))

    def _split(self, mono):
        letters, v = mono
        n1, j1 = letters[0]
        return ("x", j1, -n1), (letters[1:], v)

    def adjoint(self, gen):
        # x_j(n)^dagger = x_{j^dagger}(-n) with e <-> f under dagger
        return ("x", _ADJ[gen[1]], -gen[2])

    def bracket(self, a, b):
        """[x_j(m), x_j1(n)] = [x_j, x_j1](m+n) + m d_{m+n,0} <x_j, x_j1> ell,
        as ({generator: coefficient}, central scalar)."""
        _, j, m = a
        _, j1, n = b
        br, ip = _LETTER_PAIRS[j][j1]
        gens = {("x", t, m + n): br[t] for t in range(DIM_G) if br[t]}
        return gens, (self.ell * (m * ip) if m + n == 0 else 0)

    def higher(self, gen):
        _, j, n = gen
        a, b, c = self._HIGHER[j]
        return ("x", a, n - 1), ("x", b, 1), c

    def _head(self, gen, mono):
        """gen on a monomial where no straightening is needed, else None."""
        _, j, m = gen
        letters, v = mono
        if m < 0:
            if sum(n for n, _ in letters) - m > self.spec.N:
                return {}
            if (not letters or -m > letters[0][0]
                    or (-m == letters[0][0] and j <= letters[0][1])):
                return {(((-m, j),) + letters, v): 1}
        elif not letters:
            # x_j(m) on the lowest level: 0 for m > 0, for m = 0 column v
            # of the weight matrix
            M = self._wmat[j]
            return {((), w): M[w][v] for w in range(self.spec.lam + 1)
                    if M[w][v] and m == 0}
        return None


def build_verma(spec):
    """Algebra rules + PBW oracle for a HighestWeightSpec."""
    if spec.kind == "virasoro":
        return VirasoroVerma(spec)
    return AffineVerma(spec)


# ---------------------------------------------------------------------------
# exact reduction


class _IndefiniteGram(Exception):
    def __init__(self, value):
        self.value = value


def _exact_ldl(G):
    """Rational LDL^T of a symmetric PSD matrix, eliminated in G's order.

    Returns (keep, L, d): keep lists the indices with a nonzero pivot, in
    order, so the rows of G they name are its first independent ones,
    and G[keep][:, keep] = L diag(d) L^T with L unit lower triangular and
    d > 0.  A zero pivot whose column below the diagonal is zero is
    skipped.  A negative pivot, or a zero pivot with a nonzero entry
    below it, shows G is not PSD and raises _IndefiniteGram.

    The elimination is fraction-free (symmetric Bareiss): G is scaled by
    the lcm D of its denominators to an integer matrix A, and after each
    kept pivot the lower triangle M holds p_prev times the Schur
    complement of A, p_prev being the last kept pivot (1 before the
    first).  The update (piv M[k][l] - M[k][i] M[l][i]) // p_prev divides
    exactly (Sylvester's identity), and d = piv / (p_prev D), L[k][i] =
    M[k][i] / piv.  A skipped index has a zero row in the Schur
    complement, so skipping it leaves M as it is.
    """
    n = len(G)
    D = math.lcm(*(x.denominator for row in G for x in row))
    M = [[G[k][l].numerator * (D // G[k][l].denominator)
          for l in range(k + 1)] for k in range(n)]
    keep, pivots, p_prev = [], [], 1
    for i in range(n):
        piv = M[i][i]
        col = [M[k][i] for k in range(i + 1, n)]
        if piv < 0:
            raise _IndefiniteGram(Fraction(piv, p_prev * D))
        if piv == 0:
            off = next((a for a in col if a), 0)
            if off:
                raise _IndefiniteGram(Fraction(-abs(off), p_prev * D))
            continue
        for k, a in enumerate(col, i + 1):
            Mk = M[k]
            if a:
                for l, b in zip(range(i + 1, k + 1), col):
                    Mk[l] = (piv * Mk[l] - a * b) // p_prev
            else:
                for l in range(i + 1, k + 1):
                    if Mk[l]:
                        Mk[l] = piv * Mk[l] // p_prev
        keep.append(i)
        pivots.append(piv)
        p_prev = piv
    L = np.full((len(keep), len(keep)), _ZERO, dtype=object)
    for a, i in enumerate(keep):          # M[i][i] is i's own pivot
        L[a, :a + 1] = [Fraction(M[i][j], p)
                        for j, p in zip(keep[:a + 1], pivots)]
    d = np.array([Fraction(p, q * D) for p, q in zip(pivots, [1] + pivots)],
                 dtype=object)
    return keep, L, d


# The kernels below take object arrays of ints and Fractions and return
# object arrays of Fractions, equal to what Fraction arithmetic gives.
# A denominator is shared only along a row or a column whose entries have
# related denominators: a column of a factor L (they divide its pivot), a
# row of a solve's working array, a row or column of Y or R.  A row of L
# is not one: at Virasoro N = 16 the lcm along a row of L has 289
# digits, its entries at most 28, so both solves read L by columns.

_ZERO = Fraction(0)
_fraction = np.frompyfunc(Fraction, 2, 1)


def _scaled(A):
    """(N, den) with A[i] = N[i] / den[i]: integer rows over the lcm of
    each row's denominators."""
    N = np.empty(A.shape, dtype=object)
    den = np.empty(len(A), dtype=object)
    for i, row in enumerate(A):
        dens = [x.denominator for x in row]
        den[i] = d = math.lcm(*dens)
        N[i] = [x.numerator * (d // q) for x, q in zip(row, dens)]
    return N, den


def _fractions(P, den):
    """P / den (den broadcast to P's shape) as reduced Fractions; the
    zero entries share one Fraction(0)."""
    out = np.full(P.shape, _ZERO, dtype=object)
    nz = np.nonzero(P)
    out[nz] = _fraction(P[nz], np.broadcast_to(den, P.shape)[nz])
    return out


def _mm(A, B):
    """A @ B: A's rows and B's columns over their own denominators, so
    entry (i, j) is one integer dot product over ra[i] cb[j]."""
    An, ra = _scaled(A)
    Bn, cb = _scaled(B.T)
    return _fractions(An.dot(Bn.T), np.multiply.outer(ra, cb))


def _lsolve(L, Y):
    """L^{-1} Y for a unit lower-triangular L, by column sweeps.

    With column j of Y scaled to integers by c[j], row i of the working
    array is Z[i] / (r[i] c): sweep t subtracts L[i, t] row t from each
    row i it touches, over lcm(r[i], lam[t] r[t]), and divides the row
    by the gcd of its entries and denominator.  r[i] is then the least
    denominator of row i after sweep t, a divisor of the Bareiss pivot
    there, so the integers stay no larger than those of fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968).
    """
    n = len(Y)
    Ln, lam = _scaled(L.T)              # column t of L is Ln[t] / lam[t]
    Zt, c = _scaled(Y.T)
    Z = Zt.T.copy()
    r = np.ones(n, dtype=object)
    for t in range(n - 1):
        rows = np.flatnonzero(Ln[t, t + 1:]) + (t + 1)
        cols = np.flatnonzero(Z[t])
        if not len(rows) or not len(cols):
            continue
        lt = lam[t] * r[t]
        den = np.lcm(r[rows], lt)
        Zr = Z[rows] * (den // r[rows])[:, None]
        Zr[:, cols] -= np.multiply.outer(Ln[t, rows] * (den // lt),
                                         Z[t, cols])
        g = np.gcd(np.gcd.reduce(Zr, axis=1), den)
        Z[rows] = Zr // g[:, None]
        r[rows] = den // g
    return _fractions(Z, np.multiply.outer(r, c))


def _ltsolve(L, W):
    """L^{-T} W for a unit lower-triangular L, by back substitution:
    x_i = w_i - sum_{t > i} L[t, i] x_t reads column i of L.  The solved
    rows share one denominator, the lcm of theirs."""
    n = len(W)
    Ln, lam = _scaled(L.T)
    Wn, wd = _scaled(W)
    X = np.zeros(W.shape, dtype=object)     # solved rows: X[t] / sigma
    sigma = 1
    for i in range(n - 1, -1, -1):
        ls = lam[i] * sigma
        den = math.lcm(wd[i], ls)
        x = (Wn[i] * (den // wd[i])
             - Ln[i, i + 1:].dot(X[i + 1:]) * (den // ls))
        g = math.gcd(den, *x)
        x, den = x // g, den // g
        grown = math.lcm(sigma, den)
        if grown != sigma:
            X[i + 1:] *= grown // sigma
            sigma = grown
        X[i] = x * (sigma // den)
    return _fractions(X, np.array(sigma, dtype=object))


def unitarize(verma):
    """Build the irreducible quotient of `verma`, level by level, exactly.

    Level k is spanned by s u, s in `verma.lowering` (mode -a) and u in
    the kept basis of level k - a.  The spanning Gram is

        <s u, s' u'> = <s'^+ u, s^+ u'> + <u, [s^+, s'] u'>,

    which reads only stored data of the levels below.  `_exact_ldl`
    eliminates it in span order: the kept basis b is the first
    independent spanning words (those with a nonzero pivot), in span
    order, and an indefinite Gram raises NotUnitarizable.  For each stored
    generator g (the adjoints of `lowering`, mode a, and the mode-0
    `zero_modes`) and source level k, Y[g, k] holds the exact inner
    products <b'_i, g b_j> with the target basis b' and R[g, k] = G'^{-1} Y
    the coordinates of g b_j.  For g = s^+ they are rows of the spanning
    Gram; a mode-0 g acts as g s u = s g u + [g, s] u.
    """
    adj = verma.adjoint
    gram0, act0 = verma.lowest()
    G = [np.array(gram0, dtype=object)]
    n0 = len(gram0)
    fac = [(np.eye(n0, dtype=int).astype(object), np.diagonal(G[0]).copy())]
    basis = [[(None, w) for w in range(n0)]]
    Y, R = {}, {}

    def store(g, k, Yg):
        Lt, dt = fac[k - g[-1]]
        R[g, k] = _ltsolve(Lt, _lsolve(Lt, Yg) / dt[:, None])
        Y[g, k] = Yg

    def pair(g, ku, kv):
        """<u, g v> for u in the basis of level ku, v in that of kv."""
        if g == ("L", 0):
            return (verma.h0 + kv) * G[kv]
        if g[-1] >= 0:
            return Y[g, kv]
        return Y[adj(g), ku].T

    for g in verma.zero_modes:
        store(g, 0, _mm(G[0], np.array(act0[g], dtype=object)))
    for k in range(1, verma.spec.N + 1):
        # the spanning words s u, in one slice of indices per s
        span, spans = {}, []
        for s in verma.lowering:
            if k + s[-1] >= 0:
                below = len(basis[k + s[-1]])
                span[s] = slice(len(spans), len(spans) + below)
                spans += [(s, u) for u in range(below)]
        ns = len(spans)
        Gs = np.zeros((ns, ns), dtype=object)
        active = list(span)
        for i, s in enumerate(active):
            for s2 in active[i:]:
                ku, kv = k + s[-1], k + s2[-1]
                B = np.zeros((len(basis[ku]), len(basis[kv])), dtype=object)
                if ku + s2[-1] >= 0:
                    B = B + _mm(R[adj(s2), ku].T, Y[adj(s), kv])
                gens, scalar = verma.bracket(adj(s), s2)
                for g, cf in gens.items():
                    B = B + cf * pair(g, ku, kv)
                if scalar:
                    B = B + scalar * G[ku]
                Gs[span[s], span[s2]] = B
                Gs[span[s2], span[s]] = B.T
        try:
            keep, L, d = _exact_ldl(Gs)
        except _IndefiniteGram as exc:
            raise NotUnitarizable(k, float(exc.value))
        G.append(Gs[np.ix_(keep, keep)])
        fac.append((L, d))
        basis.append([spans[p] for p in keep])
        for s in active:
            store(adj(s), k, Gs[span[s]][:, keep])
        for g in verma.zero_modes:
            C = np.zeros((ns, len(keep)), dtype=object)
            for q, p in enumerate(keep):
                s, u = spans[p]
                C[span[s], q] = R[g, k + s[-1]][:, u]
                for s3, cf in verma.bracket(g, s)[0].items():
                    C[span[s3].start + u, q] += cf
            store(g, k, _mm(Gs[keep, :], C))
    return GradedModule(verma, basis, fac, R)


def build_module(spec):
    return unitarize(build_verma(spec))


class GradedModule:
    """Truncated module with per-level orthonormal bases.

    `basis[k]` lists the kept words of level k, the first independent
    spanning words in span order: (s, u) stands for s applied to word u
    of the level below (level 0: (None, w), the w-th lowest-level
    vector).  `factors[k]` = (L, d) is the exact factor
    L diag(d) L^T of their Gram matrix, so b L^{-T} diag(d)^{-1/2} is the
    orthonormal basis.  `unitarize` stores the exact coordinates
    {(gen, k): R} of its generators; higher raising modes follow from them
    by exact commutators, and a lowering generator is the adjoint of its
    raising one by definition.  `verma` is the algebra and its PBW
    Shapovalov oracle.  `_gen_mats` caches the float generator matrices,
    keyed by generator, and their commutators, keyed by generator pair;
    a freshly built module's cache is empty, so its pickle carries none.
    """

    def __init__(self, verma, basis, factors, coords):
        self.verma = verma
        self.spec = verma.spec
        self.basis = basis
        self.factors = factors
        self._coords = dict(coords)
        self.level_dims = [len(b) for b in basis]
        self.h0 = verma.h0
        self.offsets = np.concatenate([[0], np.cumsum(self.level_dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self._gen_mats = {}

    @property
    def N(self):
        return self.spec.N

    def a_diag(self):
        """Diagonal of A = 1 + L0 in the flat orthonormal basis."""
        return 1.0 + float(self.h0) + self.level_of()

    def level_of(self):
        """The grading level of each coordinate."""
        return np.repeat(np.arange(len(self.level_dims)), self.level_dims)

    # -- generator matrices -------------------------------------------------

    def _coord(self, gen, k):
        """Exact coordinates of gen (mode n >= 0) on the basis of level k,
        in that of level k - n.  A raising mode beyond the stored ones is
        [a, b] / c: exact on the truncation, since raising never leaves
        it."""
        hit = self._coords.get((gen, k))
        if hit is None:
            a, b, c = self.verma.higher(gen)
            hit = (_mm(self._coord(a, k - b[-1]), self._coord(b, k))
                   - _mm(self._coord(b, k - a[-1]), self._coord(a, k))) / c
            self._coords[gen, k] = hit
        return hit

    def generator_matrix(self, gen):
        """Full dim x dim matrix of a generator (compression to levels 0..N).

        gen: ("L", n) for Virasoro modes, ("x", j, n) for affine modes; on
        an affine module ("L", n) is the Sugawara L_n (`_sugawara`).  The
        block of a mode n >= 0 from level k is diag(d_t)^{1/2} L_t^T R
        L_s^{-T} diag(d_s)^{-1/2}: an exact middle product and float
        scalings.  A lowering generator is the adjoint of its raising one.
        """
        hit = self._gen_mats.get(gen)
        if hit is not None:
            return hit
        n = gen[-1]
        if n < 0:
            raising = ("L", -n) if gen[0] == "L" else self.verma.adjoint(gen)
            M = np.ascontiguousarray(self.generator_matrix(raising).conj().T)
        elif gen[0] == "L" and self.spec.kind == "affine_sl2":
            M = self._sugawara(n)
        elif gen == ("L", 0):
            M = np.diag(float(self.h0) + self.level_of())
        else:
            M = np.zeros((self.dim, self.dim))
            off = self.offsets
            for k in range(n, self.N + 1):
                (Lt, dt), (Ls, ds) = self.factors[k - n], self.factors[k]
                B = _lsolve(Ls, _mm(Lt.T, self._coord(gen, k)).T).T
                M[off[k - n]:off[k - n + 1], off[k]:off[k + 1]] = (
                    np.sqrt(dt.astype(float))[:, None] * B.astype(float)
                    / np.sqrt(ds.astype(float))[None, :])
        self._gen_mats[gen] = M
        return M

    def _sugawara(self, n):
        """Sugawara L_n: 1/(2(ell+h_vee)) sum_i sum_m of normal-ordered
        x_i(-m) x^i(m+n) over retained modes (annihilating factor on the
        right, so the truncated sum is exact on every retained level),
        n >= 0."""
        N = self.N
        M = np.zeros((self.dim, self.dim))
        for m in range(-N - n, N + 1):
            p, q = -m, m + n          # modes of left/right factor
            if abs(p) > N or abs(q) > N:
                continue
            for i, idual, wt in _SUGAWARA_DUAL:
                x_p = self.generator_matrix(("x", i, p))
                x_q = self.generator_matrix(("x", idual, q))
                M += wt * (x_p @ x_q if p <= q else x_q @ x_p)
        M /= 2.0 * (self.spec.ell + H_VEE)
        return M

    # -- representation map -------------------------------------------------

    def coefficients(self, X):
        """{generator: coefficient} of an algebra element, zeros left out:
        ("L", n): i a_n for a vector field sum_n a_n e^{in theta} d/dtheta
        (on an affine module the Sugawara L_n), and ("x", j, n): v_j for
        a loop element with mode-n coefficient vector v."""
        if isinstance(X, FourierVectorField):
            terms = ((("L", n), 1j * complex(a)) for n, a in X.coeffs.items())
        elif isinstance(X, LoopAlgebraElement):
            if self.spec.kind != "affine_sl2":
                raise TypeError("loop element on a non-affine module")
            terms = ((("x", j, n), complex(v[j]))
                     for n, v in X.coeffs.items() for j in range(DIM_G))
        else:
            raise TypeError(f"cannot represent {type(X).__name__}")
        return {g: a for g, a in terms if a}

    def _combination(self, terms):
        """sum_i a_i M_i over (a_i, M_i) pairs with real dim x dim M_i: one
        real product of the coefficients with the stacked M_i for each of
        the real and imaginary parts."""
        M = np.zeros(self.dim * self.dim, dtype=complex)
        if terms:
            a = np.array([t[0] for t in terms], dtype=complex)
            S = np.array([t[1] for t in terms]).reshape(len(terms), -1)
            M.real, M.imag = a.real @ S, a.imag @ S
        return M.reshape(self.dim, self.dim)

    def _generator_terms(self, coeffs):
        return [(a, self.generator_matrix(g)) for g, a in coeffs.items()]

    def pi(self, X):
        """Matrix of an algebra element: sum_g a_g G_g over its
        `coefficients`."""
        return self._combination(self._generator_terms(self.coefficients(X)))

    def _generator_commutator(self, g, g2):
        """G_g G_g2 - G_g2 G_g for g < g2, computed once and kept in
        `_gen_mats` under the key (g, g2)."""
        C = self._gen_mats.get((g, g2))
        if C is None:
            G, G2 = self.generator_matrix(g), self.generator_matrix(g2)
            C = self._gen_mats[g, g2] = G @ G2 - G2 @ G
        return C

    def magnus_exponent(self, X1, X2, h, w):
        """h (pi(X1) + pi(X2)) + w [pi(X2), pi(X1)], the exponent of a
        magnus4 step, as one combination: the bracket is the sum over
        generator pairs k < l of (x2_k x1_l - x2_l x1_k) [G_k, G_l], each
        pair's commutator cached.  Broad elements (a `log_derivative`
        field carries up to 65 modes) take two dense products instead:
        for two fields of m modes the cached commutators were the faster
        up to m^2 of about 60, 85 and 115 at dim 25, 70 and 169 (2 CPUs,
        one BLAS thread), hence the cut at 2/3 dim, which the largest dim
        sets."""
        x1, x2 = self.coefficients(X1), self.coefficients(X2)
        terms = self._generator_terms(
            {g: h * (x1.get(g, 0) + x2.get(g, 0)) for g in {**x1, **x2}})
        if 3 * len(x1) * len(x2) > 2 * self.dim:
            A1, A2 = self.pi(X1), self.pi(X2)
            return self._combination(terms) + w * (A2 @ A1 - A1 @ A2)
        for k, l in itertools.combinations(sorted(x1.keys() | x2.keys()), 2):
            a = x2.get(k, 0) * x1.get(l, 0) - x2.get(l, 0) * x1.get(k, 0)
            if a:
                terms.append((w * a, self._generator_commutator(k, l)))
        return self._combination(terms)

    @property
    def central_charge(self):
        """c of the module's L_n: the Virasoro module's own, or the
        Sugawara dim(g) ell / (ell + h_vee) of an affine module."""
        if self.spec.kind == "virasoro":
            return self.spec.c
        return Fraction(DIM_G * self.spec.ell, self.spec.ell + H_VEE)

    def seminorm(self, X, t):
        """|X|_t with the Goodman-Wallach constants of this module's
        algebra; on an affine module a vector field acts by the Sugawara
        L_n (`gw_field_seminorm`)."""
        if self.spec.kind == "virasoro":
            return gw_virasoro_seminorm(X, t, float(self.spec.c))
        if isinstance(X, FourierVectorField):
            return gw_field_seminorm(X, t)
        return gw_loop_seminorm(X, t, self.spec.ell)

    def a_seminorm(self, X, t):
        """|X|_{A,t} = |[L_0, X]|_t: with A = 1 + L_0, [A, pi(X)] is pi of
        the mode derivative, up to sign."""
        return self.seminorm(X.mode_derivative(), t)

    def projective_cocycle(self, X, Y):
        """B(X, Y) with [pi(X), pi(Y)] = pi([X, Y]) + i B(X, Y)."""
        if isinstance(X, FourierVectorField):
            return (float(self.central_charge)
                    * complex(vect_cocycle_integral(X, Y)))
        return float(self.spec.ell) * complex(loop_cocycle(X, Y))

    def safe_dim(self, depth):
        """Ambient dimension of levels 0..N-depth (the safe window)."""
        cut = max(self.N - depth, -1)
        return int(self.offsets[cut + 1]) if cut >= 0 else 0

    def random_vector(self, rng, max_level):
        """Gaussian vector of unit norm on levels 0..max_level."""
        if not 0 <= max_level <= self.N:
            raise ValueError(f"random_vector: max_level={max_level} is "
                             f"outside 0..N={self.N}")
        v = np.zeros(self.dim, dtype=complex)
        d = int(self.offsets[max_level + 1])
        v[:d] = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)

