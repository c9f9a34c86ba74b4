"""Truncated unitarizable highest-weight modules.

Builds Verma-type modules for the Virasoro algebra and for affine sl2
(vacuum/parabolic type: lowering letters x(-n) with n >= 1 over a
finite-dimensional sl2 lowest level), computes Shapovalov Gram matrices by
commutator reduction, quotients null vectors, and assembles dense generator
block matrices in per-level orthonormal bases.

One PBW reduction engine (`_PBWVerma`) holds the bases, the memoized
action of generators on monomials, the transfer matrices and the Gram
recursion; `VirasoroVerma` and `AffineVerma` supply only their monomials,
the straightening rule that moves a generator past the first lowering
letter, the adjoint, the choice of exact or float scalars and the lowest
L0 eigenvalue `h0`.

Exact reduction works on the sparse action (a generator sends a monomial
to a few monomials; transfer matrices are about 9% nonzero): Gram rows
and the rational products T CU of the raising blocks are sums over it,
and no dense rational transfer matrix is formed.  Each exact Gram level is
factored by fraction-free (Bareiss) LDL^T on the integer matrix D G, D the
lcm of its denominators, which yields the same pivots and rational factors
as Fraction elimination.  Float modules use dense transfers and `eigh`.

Conventions
-----------
* A generator is ("L", n) for Virasoro modes or ("x", j, n) for affine
  modes (j indexes e, h, f); the mode is always last.
* A PBW monomial is a tuple of lowering letters applied to the lowest level,
  modes nonincreasing left to right; for affine letters with equal mode the
  basis order is (e, h, f).
* Generator blocks are compressions P pi P to levels 0..N; lowering blocks
  are defined as adjoints of the raising blocks, which makes truncated
  propagators of real elements exactly unitary.
* Gram matrices are exact rationals when (c, h) are rational (Virasoro)
  or the truncation is small (affine); floating point otherwise.
  Virasoro truncations above EXACT_N_VIRASORO are rejected, because float
  null detection over-prunes there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import hashlib
import json
import math

import numpy as np

from .liealg import (CentralElement, FourierVectorField, LoopAlgebraElement,
                     sl2_chevalley)
from .scale import (gw_loop_a_seminorm, gw_loop_seminorm,
                    gw_virasoro_a_seminorm, gw_virasoro_seminorm)

# largest truncations reduced exactly.  A Virasoro spec above the limit is
# rejected rather than reduced in floating point: float null detection's
# relative eigenvalue threshold over-prunes once the Gram spread exceeds
# ~1e8 (at (1/2, 1/16) level 10 keeps 6 of its 10 states), so only float
# (c, h) take the float path.  Raising the limit costs only exact
# reduction time.  Affine truncations above EXACT_N_AFFINE are float.
EXACT_N_VIRASORO = 16
EXACT_N_AFFINE = 4

H_VEE_SL2 = 2          # dual Coxeter number of sl2
DIM_SL2 = 3


class NotUnitarizable(Exception):
    def __init__(self, level, eigenvalue):
        self.level = level
        self.eigenvalue = eigenvalue
        super().__init__(
            f"Gram matrix at level {level} has eigenvalue {eigenvalue:.3e} < 0")


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
            if self.N > EXACT_N_VIRASORO:
                raise ValueError(
                    f"virasoro truncation N={self.N} exceeds the exact "
                    f"limit N <= {EXACT_N_VIRASORO}")
        elif self.kind == "affine_sl2":
            if self.ell is None or self.lam is None:
                raise ValueError("affine spec needs (ell, lam)")
            if not (0 <= self.lam <= self.ell):
                raise ValueError("need 0 <= lam <= ell (integrability)")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    def key(self):
        """Stable cache key."""
        if self.kind == "virasoro":
            payload = ("virasoro", str(self.c), str(self.h), self.N)
        else:
            payload = ("affine_sl2", self.ell, self.lam, self.N)
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


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
# PBW reduction engine


def _acc(out, state, scale):
    """out += scale * state for {monomial: coefficient} dicts."""
    for mu, cf in state.items():
        v = out.get(mu)
        out[mu] = cf * scale if v is None else v + cf * scale


class _PBWVerma:
    """PBW bases, generator action and Shapovalov recursion of a truncated
    Verma-type module.

    `monomials[k]` lists the PBW monomials of level k.  Subclasses set
    their scalars and `h0`, and supply `_split` (first lowering letter as
    a generator, and the rest of the monomial), `adjoint` and the
    straightening rule `_apply`.
    """

    def __init__(self, spec, exact, monomials):
        self.spec = spec
        self.exact = exact
        self.one = Fraction(1) if exact else 1.0
        self.monomials = monomials
        self.index = [{m: i for i, m in enumerate(lvl)} for lvl in monomials]
        self._memo = {}              # gen -> {monomial: apply_gen result}
        self._gram = {}
        self._transfer = {}

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

    def transfer(self, gen, k):
        """Dense float matrix of gen (mode n): level k -> level k-n in the
        PBW bases, rows indexed by target monomials, columns by source
        monomials.

        Only the float path forms it; the exact path reads the sparse
        action directly (`gram`, `act`).
        """
        key = (gen, k)
        hit = self._transfer.get(key)
        if hit is not None:
            return hit
        src = self.monomials[k]
        idx = self.index[k - gen[-1]]
        T = np.zeros((len(idx), len(src)))
        for j, mono in enumerate(src):
            for mu, cf in self.apply_gen(gen, mono).items():
                T[idx[mu], j] = cf
        self._transfer[key] = T
        return T

    def act(self, gen, k, X):
        """T(gen, k) X for a nested-list rational matrix X whose rows are
        indexed by the level-k monomials, summed over the sparse action
        without forming T."""
        idx = self.index[k - gen[-1]]
        zero = self.one * 0
        out = [[zero] * (len(X[0]) if X else 0) for _ in idx]
        for mono, xrow in zip(self.monomials[k], X):
            for mu, cf in self.apply_gen(gen, mono).items():
                orow = out[idx[mu]]
                for q, x in enumerate(xrow):
                    if x:
                        orow[q] += cf * x
        return out

    def gram(self, k):
        """Shapovalov matrix at level k: G[i][j] = <m_i Omega, m_j Omega>.

        Level 0 is the identity on the lowest level.  Above it, with
        m_i = a r for the first lowering letter a, <a r, v> = <r, a^+ v>,
        i.e. row(m_i) = row(r, level k-n) . T(a^+, k).  Exact rows sum
        G[r][mu] cf over the sparse action a^+ m_j = sum_mu cf mu (transfer
        matrices are about 9% nonzero); float rows use the dense transfer.
        """
        hit = self._gram.get(k)
        if hit is not None:
            return hit
        d = len(self.monomials[k])
        if k == 0:
            G = ([[self.one * int(i == j) for j in range(d)] for i in range(d)]
                 if self.exact else np.eye(d))
        else:
            rows = []
            zero = self.one * 0
            for mono in self.monomials[k]:
                first, rest = self._split(mono)
                prev_k = k + first[-1]
                idx = self.index[prev_k]
                prow = self.gram(prev_k)[idx[rest]]
                adj = self.adjoint(first)
                if self.exact:
                    row = []
                    for src in self.monomials[k]:
                        s = zero
                        for mu, cf in self.apply_gen(adj, src).items():
                            s += prow[idx[mu]] * cf
                        row.append(s)
                    rows.append(row)
                else:
                    rows.append(prow @ self.transfer(adj, k))
            G = rows if self.exact else np.array(rows)
        self._gram[k] = G
        return G

    def gram_float(self, k):
        G = self.gram(k)
        return np.array([[float(x) for x in row] for row in G]) \
            if self.exact else G


class VirasoroVerma(_PBWVerma):
    """Truncated Virasoro Verma module.

    Monomials at level k are partitions (n_1 >= ... >= n_j), sum = k,
    standing for L_{-n_1} ... L_{-n_j} Omega.
    """

    def __init__(self, spec):
        assert spec.kind == "virasoro"
        exact = (isinstance(spec.c, (int, Fraction))
                 and isinstance(spec.h, (int, Fraction)))
        super().__init__(spec, exact,
                         [partitions(k) for k in range(spec.N + 1)])
        num = Fraction if exact else float
        self.c, self.h = num(spec.c), num(spec.h)
        self.h0 = spec.h

    def _split(self, mono):
        return ("L", -mono[0]), mono[1:]

    def adjoint(self, gen):
        return ("L", -gen[1])

    def _apply(self, gen, mono):
        # L_m L_{-n1} = L_{-n1} L_m + (m+n1) L_{m-n1} + d_{m,n1} c (m^3-m)/12
        m = gen[1]
        lvl = sum(mono)
        if m == 0:
            return {mono: self.h + lvl}
        if m < 0:
            if lvl - m > self.spec.N:
                return {}
            if not mono or -m >= mono[0]:
                return {(-m,) + mono: self.one}
        elif not mono:
            return {}                # L_m Omega = 0, m > 0
        first, rest = self._split(mono)
        n1 = mono[0]
        out = {}
        for mu, cf in self.apply_gen(gen, rest).items():
            _acc(out, self.apply_gen(first, mu), cf)
        _acc(out, self.apply_gen(("L", m - n1), rest), m + n1)
        if m == n1:
            w = Fraction(m ** 3 - m, 12) if self.exact else (m ** 3 - m) / 12.0
            _acc(out, {rest: self.one}, self.c * w)
        return out


E, H, F = 0, 1, 2
_ADJ = {E: F, H: H, F: E}      # compact-real-form adjoint on sl2 letters


def _sl2_weight_matrices(lam):
    """e, h, f on the (lam+1)-dim sl2 irrep in a unitary weight basis.

    Basis index w = 0..lam, h-eigenvalue lam - 2w; e lowers w, f raises it,
    e^dagger = f and h^dagger = h hold exactly.
    """
    d = lam + 1
    e = np.zeros((d, d))
    f = np.zeros((d, d))
    h = np.zeros((d, d))
    for w in range(d):
        h[w, w] = lam - 2 * w
        if w >= 1:
            e[w - 1, w] = math.sqrt(w * (lam - w + 1))
        if w + 1 < d:
            f[w + 1, w] = math.sqrt((w + 1) * (lam - w))
    return e, h, f


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
    lowest-level weight index.  The central element acts as the scalar ell.
    """

    def __init__(self, spec):
        assert spec.kind == "affine_sl2"
        lam = spec.lam
        exact = lam <= 1 and spec.N <= EXACT_N_AFFINE
        super().__init__(spec, exact,
                         [_affine_monomials(k, lam) for k in range(spec.N + 1)])
        alg = sl2_chevalley()
        unit = [[int(i == j) for i in range(3)] for j in range(3)]
        # (bracket, inner product) of each pair of letters x_j, x_j1
        self._letter_table = [[(alg.bracket(unit[j], unit[j1]),
                                alg.inner(unit[j], unit[j1]))
                               for j1 in range(3)] for j in range(3)]
        self.ell = Fraction(spec.ell) if exact else float(spec.ell)
        wmat = _sl2_weight_matrices(lam)
        if exact:
            # entries are integers for lam <= 1
            wmat = [[[Fraction(round(x)) for x in row] for row in M]
                    for M in wmat]
        self._wmat = wmat
        c_lam = Fraction(lam * (lam + 2), 2)            # sl2 Casimir on V_lam
        self.h0 = c_lam / (2 * (spec.ell + H_VEE_SL2))  # Sugawara lowest L0

    def _split(self, mono):
        letters, v = mono
        n1, j1 = letters[0]
        return ("x", j1, -n1), (letters[1:], v)

    def adjoint(self, gen):
        # x_j(n)^dagger = x_{j^dagger}(-n) with e <-> f under dagger
        return ("x", _ADJ[gen[1]], -gen[2])

    def _apply(self, gen, mono):
        # x_j(m) x_j1(-n1) = x_j1(-n1) x_j(m) + [x_j, x_j1](m-n1)
        #                    + m d_{m,n1} <x_j, x_j1> ell
        _, j, m = gen
        letters, v = mono
        if m < 0:
            if sum(n for n, _ in letters) - m > self.spec.N:
                return {}
            if (not letters or -m > letters[0][0]
                    or (-m == letters[0][0] and j <= letters[0][1])):
                return {(((-m, j),) + letters, v): self.one}
        elif not letters:
            if m > 0:
                return {}
            # x_j(0) on the lowest level: column v of the weight matrix
            M = self._wmat[j]
            return {((), w): M[w][v] for w in range(self.spec.lam + 1)
                    if M[w][v]}
        first, rest = self._split(mono)
        (n1, j1) = letters[0]
        out = {}
        for mu, cf in self.apply_gen(gen, rest).items():
            _acc(out, self.apply_gen(first, mu), cf)
        br, ip = self._letter_table[j][j1]
        for k in range(3):
            if br[k]:
                _acc(out, self.apply_gen(("x", k, m - n1), rest), br[k])
        if m == n1 and ip:
            _acc(out, {rest: self.one}, self.ell * (m * ip))
        return out


def build_verma(spec):
    """Reduction engine + PBW bases for a HighestWeightSpec."""
    if spec.kind == "virasoro":
        return VirasoroVerma(spec)
    return AffineVerma(spec)


# ---------------------------------------------------------------------------
# unitarization and the graded module


TOL_PSD = 1e-9
TOL_NULL = 1e-8


class _IndefiniteGram(Exception):
    def __init__(self, value):
        self.value = value


def _exact_ldl(G):
    """Rational LDL^T with diagonal pivoting of a symmetric PSD matrix.

    Returns (perm, L, d, rank) with P^T G P = L diag(d) L^T, perm[i] the
    original index at pivot position i and d[i] > 0 for i < rank.  Raises
    _IndefiniteGram when a negative pivot (or a nonzero off-diagonal in
    an all-zero-diagonal trailing block) shows G is not PSD.

    The elimination is fraction-free (symmetric Bareiss): G is scaled by
    the lcm D of its denominators to an integer matrix A, and after i
    pivots the lower triangle M holds p_prev times the Schur complement
    of A, p_prev being the last pivot of M (1 before the first).  The
    update (piv M[k][l] - M[k][i] M[l][i]) // p_prev divides exactly
    (Sylvester's identity), and d[i] = piv / (p_prev D), L[k][i] =
    M[k][i] / piv.  Since p_prev > 0, the diagonal of M has the same
    largest entry and the same ties as the Schur complement, so the
    pivots, and the factors, are those of rational elimination.
    """
    n = len(G)
    D = math.lcm(*(x.denominator for row in G for x in row))
    M = [[G[k][l].numerator * (D // G[k][l].denominator)
          for l in range(k + 1)] for k in range(n)]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    d = [Fraction(0)] * n
    rank = n
    p_prev = 1
    for i in range(n):
        j = max(range(i, n), key=lambda t: abs(M[t][t]))
        piv = M[j][j]
        if piv == 0:
            off = next((M[max(a, b)][min(a, b)] for a in range(i, n)
                        for b in range(i, n)
                        if a != b and M[max(a, b)][min(a, b)]), None)
            if off is not None:
                raise _IndefiniteGram(Fraction(-abs(off), p_prev * D))
            rank = i
            break
        if piv < 0:
            raise _IndefiniteGram(Fraction(piv, p_prev * D))
        if j != i:
            # symmetric swap of i < j within the lower triangle
            M[i][i], M[j][j] = M[j][j], M[i][i]
            for t in range(i + 1, j):
                M[t][i], M[j][t] = M[j][t], M[t][i]
            for t in range(j + 1, n):
                M[t][i], M[t][j] = M[t][j], M[t][i]
            perm[i], perm[j] = perm[j], perm[i]
            for t in range(i):
                L[i][t], L[j][t] = L[j][t], L[i][t]
        d[i] = Fraction(piv, p_prev * D)
        col = [M[k][i] for k in range(i + 1, n)]
        for k, a in enumerate(col, i + 1):
            Mk = M[k]
            if a:
                L[k][i] = Fraction(a, piv)
                for l, b in zip(range(i + 1, k + 1), col):
                    Mk[l] = (piv * Mk[l] - a * b) // p_prev
            else:
                for l in range(i + 1, k + 1):
                    if Mk[l]:
                        Mk[l] = piv * Mk[l] // p_prev
        p_prev = piv
    return perm, L, d, rank


def _ldl_basis(perm, L, d, rank):
    """(W, CU, d_kept) of the exact orthonormalization from an LDL factor.

    CU = P L^{-T}[:, :rank] is the unscaled basis change (the true basis
    change is CU diag(d^{-1/2})); W = ((P L)[:, :rank])^T satisfies
    C^T G = diag(sqrt(d)) W, so raising blocks reduce to the exact
    rational product W_tgt T CU_src with only the diagonal d^{+-1/2}
    scalings done in floating point.
    """
    n = len(L)
    zero, one = Fraction(0), Fraction(1)
    # columns of L^{-T} by back substitution: (L^T x)_i = x_i + sum_{t>i}
    # L[t][i] x_t = delta_{ij}
    X = [[zero] * rank for _ in range(n)]
    for j in range(rank):
        X[j][j] = one
        for i in range(j - 1, -1, -1):
            s = zero
            for t in range(i + 1, j + 1):
                if L[t][i] and X[t][j]:
                    s += L[t][i] * X[t][j]
            if s:
                X[i][j] = -s
    CU = [[zero] * rank for _ in range(n)]
    for pos in range(n):
        CU[perm[pos]] = X[pos]
    W = [[zero] * n for _ in range(rank)]
    for j in range(rank):
        for i in range(n):
            if L[i][j]:
                W[j][perm[i]] = L[i][j]
    return W, CU, d[:rank]


def _rat_mm(A, B):
    """Product of nested-list rational matrices, skipping zero entries."""
    if not A or not B:
        return []
    cols = len(B[0])
    zero = Fraction(0)
    out = []
    for row in A:
        acc = [zero] * cols
        for j, a in enumerate(row):
            if a:
                Bj = B[j]
                for q in range(cols):
                    if Bj[q]:
                        acc[q] += a * Bj[q]
        out.append(acc)
    return out


def _rat_float(E, rows, cols):
    out = np.zeros((rows, cols))
    for i, row in enumerate(E):
        for j, x in enumerate(row):
            if x:
                out[i, j] = float(x)
    return out


class GradedModule:
    """Truncated module with per-level orthonormal bases.

    basisChange[k] maps orthonormal coordinates to PBW coordinates
    (columns = Gram eigenvectors scaled by eigenvalue^{-1/2}); generator
    blocks are assembled lazily.  Lowering blocks are adjoints of raising
    blocks by definition.
    """

    def __init__(self, verma, basis_change, level_dims, exact_factors=None):
        self.verma = verma
        self.spec = verma.spec
        self.basis_change = basis_change
        self.level_dims = level_dims
        self.h0 = verma.h0
        self.offsets = np.concatenate([[0], np.cumsum(level_dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        self._blocks = {}
        self._gen_mats = {}
        # per-level (W, CU, d) LDL factors when rational arithmetic is
        # active (see _ldl_basis); otherwise blocks go through the float Gram
        self._exact_factors = exact_factors

    @property
    def N(self):
        return self.spec.N

    def a_diag(self):
        """Diagonal of A = 1 + L0 in the flat orthonormal basis."""
        out = np.empty(self.dim)
        for k in range(self.N + 1):
            out[self.offsets[k]:self.offsets[k + 1]] = 1.0 + float(self.h0) + k
        return out

    def level_of(self):
        out = np.empty(self.dim, dtype=int)
        for k in range(self.N + 1):
            out[self.offsets[k]:self.offsets[k + 1]] = k
        return out

    # -- generator blocks ---------------------------------------------------

    def _raising_block(self, gen, k):
        """Orthonormal-basis block of a raising (or mode-0) generator,
        level k -> k - n."""
        n = gen[-1]
        if self._exact_factors is not None:
            # B = C_tgt^T G_tgt T C_src with C^T G = diag(sqrt(d)) W and
            # C_src = CU_src diag(d_src^{-1/2}); the middle product is
            # exact (T CU_src from the sparse action), only the diagonal
            # scalings are floating point
            W_tgt, _, d_tgt = self._exact_factors[k - n]
            _, CU_src, d_src = self._exact_factors[k]
            E = _rat_float(_rat_mm(W_tgt, self.verma.act(gen, k, CU_src)),
                           len(d_tgt), len(d_src))
            s_tgt = np.sqrt([float(x) for x in d_tgt])
            s_src = np.sqrt([float(x) for x in d_src])
            if len(d_tgt) and len(d_src):
                E = s_tgt[:, None] * E / s_src[None, :]
            return E
        return (self.basis_change[k - n].T @ self.verma.gram(k - n)
                @ self.verma.transfer(gen, k) @ self.basis_change[k])

    def block(self, gen, k):
        """Dense block of a generator from level k.

        gen: ("L", n) for Virasoro modes, ("x", j, n) for affine modes.
        Returns the (possibly empty) matrix level k -> k - n.
        """
        n = gen[-1]
        if not (0 <= k <= self.N and 0 <= k - n <= self.N):
            return np.zeros((0, self.level_dims[k] if 0 <= k <= self.N else 0))
        key = (gen, k)
        hit = self._blocks.get(key)
        if hit is not None:
            return hit
        if gen == ("L", 0):
            B = (float(self.h0) + k) * np.eye(self.level_dims[k])
        elif n >= 0:
            B = self._raising_block(gen, k)
        else:
            B = self.block(self.verma.adjoint(gen), k - n).conj().T
        self._blocks[key] = B
        return B

    def generator_matrix(self, gen):
        """Full dim x dim matrix of a generator (compression to levels 0..N)."""
        hit = self._gen_mats.get(gen)
        if hit is not None:
            return hit
        n = gen[-1]
        M = np.zeros((self.dim, self.dim))
        for k in range(self.N + 1):
            if 0 <= k - n <= self.N:
                B = self.block(gen, k)
                M[self.offsets[k - n]:self.offsets[k - n + 1],
                  self.offsets[k]:self.offsets[k + 1]] = B
        self._gen_mats[gen] = M
        return M

    # -- representation map -------------------------------------------------

    def pi(self, X, l_blocks=None):
        """Matrix of a CentralElement (or bare algebra element).

        Virasoro: e_n maps to i * (L_n block); affine: x(n) maps to its
        block; the central coefficient t acts as i*t*Id.  `l_blocks`
        overrides the L_n matrices (used for the Sugawara action).
        """
        if not isinstance(X, CentralElement):
            X = CentralElement(X)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        if isinstance(X.base, FourierVectorField):
            if self.spec.kind != "virasoro" and l_blocks is None:
                raise TypeError("vector-field element on an affine module "
                                "requires Sugawara blocks")
            for n, a in X.base.coeffs.items():
                L = (l_blocks(n) if l_blocks is not None
                     else self.generator_matrix(("L", n)))
                M += 1j * complex(a) * L
        elif isinstance(X.base, LoopAlgebraElement):
            if self.spec.kind != "affine_sl2":
                raise TypeError("loop element on a non-affine module")
            for n, v in X.base.coeffs.items():
                for j in range(3):
                    a = complex(v[j])
                    if a:
                        M += a * self.generator_matrix(("x", j, n))
        else:
            raise TypeError(f"cannot represent {type(X.base).__name__}")
        t = complex(X.central)
        if t:
            M += 1j * t * np.eye(self.dim)
        return M

    @property
    def central_charge(self):
        """c of a Virasoro module; affine modules carry none (their
        Virasoro action is the SugawaraAction)."""
        if self.spec.kind != "virasoro":
            raise TypeError("no central charge available")
        return self.spec.c

    def seminorm(self, X, t):
        """|X|_t with the Goodman-Wallach constants of this module's
        algebra: Virasoro c, or loop level ell (central coefficients
        contribute their modulus)."""
        extra = abs(complex(X.central)) if isinstance(X, CentralElement) else 0.0
        base = X.base if isinstance(X, CentralElement) else X
        if self.spec.kind == "virasoro":
            return gw_virasoro_seminorm(base, t, float(self.spec.c)) + extra
        return gw_loop_seminorm(base, None, t, self.spec.ell) + extra

    def a_seminorm(self, X, t):
        """|X|_{A,t} (the central part commutes with A and drops out)."""
        base = X.base if isinstance(X, CentralElement) else X
        if self.spec.kind == "virasoro":
            return gw_virasoro_a_seminorm(base, t, float(self.spec.c))
        return gw_loop_a_seminorm(base, None, t, self.spec.ell)

    def projective_cocycle(self, X, Y):
        """B(X, Y) with [pi(X), pi(Y)] = pi([X, Y]) + i B(X, Y)."""
        from .liealg import vect_cocycle_integral, loop_cocycle
        if isinstance(X, CentralElement):
            X = X.base
        if isinstance(Y, CentralElement):
            Y = Y.base
        if isinstance(X, FourierVectorField):
            return float(self.spec.c) * complex(vect_cocycle_integral(X, Y))
        return float(self.spec.ell) * complex(loop_cocycle(X, Y))

    def safe_dim(self, depth):
        """Ambient dimension of levels 0..N-depth (the safe window)."""
        cut = max(self.N - depth, -1)
        return int(self.offsets[cut + 1]) if cut >= 0 else 0

    def random_vector(self, rng, max_level=None):
        """Gaussian vector of unit norm on levels 0..max_level (default N)."""
        top = self.N if max_level is None else max_level
        if not 0 <= top <= self.N:
            raise ValueError(f"random_vector: max_level={top} is outside "
                             f"0..N={self.N}")
        v = np.zeros(self.dim, dtype=complex)
        d = int(self.offsets[top + 1])
        v[:d] = rng.normal(size=d) + 1j * rng.normal(size=d)
        return v / np.linalg.norm(v)


def unitarize(verma):
    """Orthonormalize the Verma module level by level.

    Diagonalizes each Gram matrix; raises NotUnitarizable when an
    eigenvalue is negative beyond tolerance; quotients null directions
    (exact rank detection when rational arithmetic is active).
    """
    spec = verma.spec
    basis_change = []
    level_dims = []
    exact_factors = [] if verma.exact else None
    for k in range(spec.N + 1):
        if verma.exact:
            try:
                perm, L, d, rank = _exact_ldl(verma.gram(k))
            except _IndefiniteGram as exc:
                raise NotUnitarizable(k, float(exc.value))
            W, CU, dk = _ldl_basis(perm, L, d, rank)
            exact_factors.append((W, CU, dk))
            n = len(L)
            C = _rat_float(CU, n, rank)
            if rank:
                C = C / np.sqrt([float(x) for x in dk])[None, :]
            basis_change.append(C)
            level_dims.append(rank)
            continue
        G = verma.gram_float(k)
        scale = max(np.abs(G).max(), 1.0)
        w, V = np.linalg.eigh(G)
        if w.min() < -TOL_PSD * scale:
            raise NotUnitarizable(k, float(w.min()))
        keep = np.where(w > TOL_NULL * scale)[0]
        keep = sorted(keep, key=lambda i: -w[i])
        C = V[:, keep] / np.sqrt(np.maximum(w[keep], 1e-300))
        basis_change.append(C)
        level_dims.append(C.shape[1])
    return GradedModule(verma, basis_change, level_dims,
                        exact_factors=exact_factors)


def build_module(spec):
    return unitarize(build_verma(spec))


# ---------------------------------------------------------------------------
# Sugawara construction


class SugawaraAction:
    """Virasoro generators on an affine module via the quadratic formula.

    L_n (n >= 0) is assembled as 1/(2(ell+h_vee)) sum_i sum_m of normal-
    ordered x_i(-m) x^i(m+n) over retained modes (annihilating factor on
    the right, so the truncated sum is exact on every retained level);
    L_{-n} is defined as the adjoint of L_n.
    """

    # dual pairs (x_i, x^i, weight) for the basic inner product:
    # (e, f), (h, h/2), (f, e)
    _DUAL = ((E, F, 1.0), (H, H, 0.5), (F, E, 1.0))

    def __init__(self, module):
        if module.spec.kind != "affine_sl2":
            raise TypeError("Sugawara action needs an affine module")
        self.module = module
        self.ell = module.spec.ell
        self._mats = {}
        self._xfull = {}

    @property
    def central_charge(self):
        return DIM_SL2 * self.ell / (self.ell + H_VEE_SL2)

    @property
    def h0_shift(self):
        """Difference between the naive level grading origin (0) and the
        Sugawara lowest eigenvalue C_lam/2(ell+h_vee)."""
        return float(self.module.h0)

    @property
    def dim(self):
        return self.module.dim

    def a_diag(self):
        return self.module.a_diag()

    def level_of(self):
        return self.module.level_of()

    def safe_dim(self, depth):
        return self.module.safe_dim(depth)

    @property
    def N(self):
        return self.module.N

    def _x(self, j, n):
        key = (j, n)
        if key not in self._xfull:
            self._xfull[key] = self.module.generator_matrix(("x", j, n))
        return self._xfull[key]

    def matrix(self, n):
        """Full matrix of the Sugawara L_n on the truncation."""
        hit = self._mats.get(n)
        if hit is not None:
            return hit
        N = self.module.N
        if n < 0:
            M = self.matrix(-n).conj().T
        else:
            M = np.zeros((self.module.dim, self.module.dim))
            for m in range(-N - n, N + 1):
                p, q = -m, m + n          # modes of left/right factor
                if abs(p) > N or abs(q) > N:
                    continue
                for i, idual, wt in self._DUAL:
                    if p <= q:
                        term = self._x(i, p) @ self._x(idual, q)
                    else:
                        term = self._x(idual, q) @ self._x(i, p)
                    M += wt * term
            M /= 2.0 * (self.ell + H_VEE_SL2)
        self._mats[n] = M
        return M

    def pi(self, X):
        """Vector-field CentralElement via the Sugawara L_n blocks."""
        return self.module.pi(X, l_blocks=self.matrix)

    def seminorm(self, X, t):
        extra = abs(complex(X.central)) if isinstance(X, CentralElement) else 0.0
        base = X.base if isinstance(X, CentralElement) else X
        return gw_loop_seminorm(None, base, t, self.ell) + extra

    def a_seminorm(self, X, t):
        base = X.base if isinstance(X, CentralElement) else X
        return gw_loop_a_seminorm(None, base, t, self.ell)
