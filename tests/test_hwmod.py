from fractions import Fraction
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from prodexp.liealg import (E, FourierVectorField, LoopAlgebraElement,
                            bracket)
from prodexp.hwmod import (_ADJ, HighestWeightSpec, NotUnitarizable,
                           _exact_ldl, _IndefiniteGram, _lsolve, _ltsolve,
                           _mm, affine_spec,
                           build_module, build_verma, discrete_series_c,
                           discrete_series_h, partitions, virasoro_spec)


# ---------------------------------------------------------------------------
# independent symbolic reduction oracle (word rewriting, one swap at a time)

def _oracle_reduce(word, c, h):
    """Reduce the word L_{m_1}...L_{m_k} Omega into {canonical word: coeff}.

    Single adjacent swaps via [L_a, L_b] = (a-b)L_{a+b} + d c(a^3-a)/12,
    applied with a worklist; deliberately shares no code with the
    transfer-matrix engine.  A word is canonical when all letters are
    negative and ascending (modes nonincreasing in absolute value).
    """
    import sympy
    result = {}
    stack = [(tuple(word), sympy.Integer(1))]
    while stack:
        w, cf = stack.pop()
        if not w:
            result[()] = result.get((), 0) + cf
            continue
        last = w[-1]
        if last > 0:
            continue                       # L_m Omega = 0 for m > 0
        if last == 0:
            stack.append((w[:-1], cf * h))  # L_0 Omega = h Omega
            continue
        i = next((i for i in range(len(w) - 2, -1, -1) if w[i] > w[i + 1]),
                 None)
        if i is None:
            key = tuple(sorted((-x for x in w), reverse=True))
            result[key] = result.get(key, 0) + cf
            continue
        a, b = w[i], w[i + 1]
        stack.append((w[:i] + (b, a) + w[i + 2:], cf))
        stack.append((w[:i] + (a + b,) + w[i + 2:], cf * (a - b)))
        if a + b == 0:
            stack.append((w[:i] + w[i + 2:],
                          cf * c * sympy.Rational(a ** 3 - a, 12)))
    return result


def oracle_gram(level, c, h):
    """Symbolic Shapovalov matrix at `level` from the rewriting oracle."""
    import sympy
    parts = partitions(level)
    G = sympy.zeros(len(parts), len(parts))
    for i, mu in enumerate(parts):
        for j, nu in enumerate(parts):
            word = tuple(reversed(mu)) + tuple(-n for n in nu)
            G[i, j] = sympy.expand(_oracle_reduce(word, c, h).get((), 0))
    return G


class TestVermaAndGram:

    def test_level_dims_are_partition_counts(self):
        v = build_verma(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 8))
        assert v.level_dims == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_n_zero(self):
        v = build_verma(virasoro_spec(1, 0, 0))
        assert v.level_dims == [1]

    def test_affine_level1_dim(self):
        v = build_verma(affine_spec(1, 0, 1))
        assert v.level_dims == [1, 3]

    def test_gram_level1_and_2(self):
        c, h = Fraction(7, 10), Fraction(2, 5)
        v = build_verma(virasoro_spec(c, h, 4))
        assert v.gram(1) == [[2 * h]]
        G2 = v.gram(2)
        # basis order: (2,), (1,1)
        assert G2[0][0] == 4 * h + c / 2
        assert G2[0][1] == G2[1][0] == 6 * h
        assert G2[1][1] == 8 * h * h + 4 * h

    def test_gram_hermitian_rational(self):
        v = build_verma(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 6))
        for k in range(7):
            G = v.gram(k)
            n = len(G)
            for i in range(n):
                for j in range(n):
                    assert G[i][j] == G[j][i]
                    assert isinstance(G[i][j], Fraction)

    def test_gram_matches_symbolic_oracle(self):
        import sympy
        cs, hs = sympy.symbols("c h")
        subs = {cs: sympy.Rational(1, 2), hs: sympy.Rational(1, 16)}
        v = build_verma(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 4))
        for k in range(5):
            G_sym = oracle_gram(k, cs, hs)
            G = v.gram(k)
            for i in range(len(G)):
                for j in range(len(G)):
                    want = sympy.nsimplify(G_sym[i, j].subs(subs))
                    assert sympy.Rational(G[i][j].numerator,
                                          G[i][j].denominator) == want, (k, i, j)

    def test_gram_oracle_second_weight(self):
        import sympy
        cs, hs = sympy.symbols("c h")
        c, h = Fraction(1), Fraction(1)
        v = build_verma(virasoro_spec(c, h, 3))
        for k in (2, 3):
            G_sym = oracle_gram(k, cs, hs).subs(
                {cs: sympy.Integer(1), hs: sympy.Integer(1)})
            G = v.gram(k)
            for i in range(len(G)):
                for j in range(len(G)):
                    assert sympy.Rational(G[i][j].numerator,
                                          G[i][j].denominator) == G_sym[i, j]


class TestUnitarize:

    def test_discrete_series_point(self):
        assert discrete_series_c(1) == Fraction(1, 2)
        assert discrete_series_h(1, 2, 2) == Fraction(1, 16)
        mod = build_module(virasoro_spec(discrete_series_c(1),
                                         discrete_series_h(1, 2, 2), 8))
        assert mod.dim == sum(mod.level_dims)
        assert mod.level_dims[0] == 1

    def test_unitary_points_level8(self):
        for c, h in [(Fraction(1, 2), Fraction(1, 16)),
                     (Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(1), Fraction(0)),
                     (Fraction(1), Fraction(1))]:
            build_module(virasoro_spec(c, h, 8))   # must not raise

    def test_not_unitarizable(self):
        with pytest.raises(NotUnitarizable) as ei:
            build_module(virasoro_spec(Fraction(1, 2), Fraction(3, 10), 8))
        assert ei.value.eigenvalue < 0

    def test_null_quotient_c1_h1(self):
        # (c,h) = (1,1) has a null vector at level 1 of the degenerate Verma
        mod = build_module(virasoro_spec(Fraction(1), Fraction(1), 6))
        v = mod.verma
        assert any(mod.level_dims[k] < v.level_dims[k] for k in range(7))

    def test_orthonormality(self):
        # each kept word in PBW coordinates, then C^T G C = I for the
        # orthonormal basis C = words L^{-T} diag(d)^{-1/2} and the PBW Gram
        for spec in (virasoro_spec(Fraction(1, 2), Fraction(1, 16), 8),
                     virasoro_spec(Fraction(1), Fraction(1), 6),
                     affine_spec(2, 2, 3)):
            mod = build_module(spec)
            verma = mod.verma
            words = [[{verma.monomials[0][w]: 1} for _, w in mod.basis[0]]]
            for k in range(1, mod.N + 1):
                level = []
                for s, u in mod.basis[k]:
                    vec = {}
                    for mono, cf in words[k + s[-1]][u].items():
                        for mu, a in verma.apply_gen(s, mono).items():
                            vec[mu] = vec.get(mu, 0) + cf * a
                    level.append(vec)
                words.append(level)
            for k, level in enumerate(words):
                idx = verma.index[k]
                W = np.zeros((len(idx), len(level)))
                for j, vec in enumerate(level):
                    for mono, cf in vec.items():
                        W[idx[mono], j] = cf
                L, d = mod.factors[k]
                C = W @ (np.linalg.inv(L.astype(float)).T
                         / np.sqrt(d.astype(float)))
                G = np.array(verma.gram(k), dtype=float)
                np.testing.assert_allclose(C.T @ G @ C, np.eye(C.shape[1]),
                                           atol=1e-10, err_msg=str((spec, k)))

    @pytest.mark.parametrize("spec", [
        virasoro_spec(Fraction(1, 2), Fraction(1, 16), 8),
        affine_spec(1, 1, 4)], ids=["ising-n8", "aff11-n4"])
    def test_kept_words_are_the_first_independent_spanning_words(self,
                                                                 spec):
        # every spanning word s u in PBW coordinates and their exact Gram
        # from the PBW one: basis[k] is, in span order, exactly the words
        # that raise the rank of the Gram of the words up to them
        import sympy
        mod = build_module(spec)
        verma = mod.verma
        words = [[{verma.monomials[0][w]: 1} for _, w in mod.basis[0]]]
        for k in range(1, mod.N + 1):
            spans, vecs = [], []
            for s in verma.lowering:
                for u, word in enumerate(words[k + s[-1]]
                                         if k + s[-1] >= 0 else []):
                    vec = {}
                    for mono, cf in word.items():
                        for mu, a in verma.apply_gen(s, mono).items():
                            vec[mu] = vec.get(mu, 0) + cf * a
                    spans.append((s, u))
                    vecs.append(vec)
            G, idx = verma.gram(k), verma.index[k]
            Gs = sympy.Matrix([[sympy.Rational(sum(
                (a * b * G[idx[m]][idx[m2]]
                 for m, a in v.items() for m2, b in v2.items()), Fraction(0)))
                for v2 in vecs] for v in vecs])
            ranks = [Gs[:i, :i].rank() for i in range(len(spans) + 1)]
            kept = [i for i in range(len(spans)) if ranks[i + 1] > ranks[i]]
            assert mod.basis[k] == [spans[i] for i in kept], k
            words.append([vecs[i] for i in kept])

    @pytest.mark.parametrize("name", ["vir8", "aff5"])
    def test_adjoint_blocks(self, request, name):
        # a lowering generator is the adjoint of its raising one, bit for
        # bit; on an affine module that holds for the x(n) and for the
        # Sugawara L_n
        mod = request.getfixturevalue(name)
        for n in (1, 2, 3):
            pairs = [(("L", -n), ("L", n))]
            if mod.spec.kind == "affine_sl2":
                pairs += [(("x", j, -n), ("x", _ADJ[j], n)) for j in range(3)]
            for low, high in pairs:
                np.testing.assert_array_equal(
                    mod.generator_matrix(low),
                    mod.generator_matrix(high).conj().T)


def test_virasoro_level_dims_ising_sigma_character(vir16):
    # (c, h) = (1/2, 1/16): the Rocha-Caridi character is
    # q^h prod_{n>=1} (1 + q^n), so dim V_n counts the partitions of n
    # into distinct parts
    want = [1] + [0] * 16
    for part in range(1, 17):
        for n in range(16, part - 1, -1):
            want[n] += want[n - part]
    assert want[:13] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]
    assert list(vir16.level_dims) == want


# ---------------------------------------------------------------------------
# exact LDL: fraction-free elimination against plain Fraction elimination

def _fraction_ldl(G):
    """LDL^T in G's order in Fraction arithmetic, skipping a zero pivot
    whose column below is zero: the elimination `_exact_ldl` must
    reproduce exactly (same kept indices, factors and errors)."""
    n = len(G)
    M = [list(row) for row in G]
    keep, cols, d = [], [], []
    for i in range(n):
        piv = M[i][i]
        if piv < 0:
            raise _IndefiniteGram(piv)
        if piv == 0:
            off = next((M[k][i] for k in range(i + 1, n) if M[k][i]), 0)
            if off:
                raise _IndefiniteGram(-abs(off))
            continue
        col = {k: M[k][i] / piv for k in range(i + 1, n) if M[k][i]}
        for k, f in col.items():
            for l in range(i + 1, n):
                M[k][l] -= f * M[i][l]
        keep.append(i)
        cols.append(col)
        d.append(piv)
    L = [[Fraction(int(a == b)) if a <= b else cols[b].get(i, Fraction(0))
          for b in range(len(keep))] for a, i in enumerate(keep)]
    return keep, L, d


def _ldl_or_error(ldl, G):
    try:
        keep, L, d = ldl(G)
    except _IndefiniteGram as exc:
        return ("indefinite", exc.value)
    return list(keep), [list(row) for row in L], list(d)


_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def _congruence(draw, weight):
    """(B, q, G) with G = B^T diag(q) B, B r x n and r <= n, so G is
    symmetric and rank-deficient whenever r < n."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n))
    B = [[draw(_RATIONAL) for _ in range(n)] for _ in range(r)]
    q = [draw(weight) for _ in range(r)]
    G = [[sum((B[t][a] * q[t] * B[t][b] for t in range(r)), Fraction(0))
          for b in range(n)] for a in range(n)]
    return B, q, G


_POSITIVE = st.builds(Fraction, st.integers(1, 5), st.integers(1, 7))
_NONZERO = st.builds(lambda x, s: s * x, _POSITIVE, st.sampled_from((1, -1)))


class TestExactLDL:

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_congruence(_POSITIVE))
    def test_psd_factorization(self, case):
        import sympy
        B, q, G = case
        n = len(G)
        keep, L, d = _exact_ldl(G)

        def rank(m):
            # of G's leading m x m block: that of B's first m columns
            return sympy.Matrix(len(B), m, [
                sympy.Rational(x.numerator, x.denominator)
                for row in B for x in row[:m]]).rank()
        # the greedy rule: index i is kept iff it raises the rank
        assert keep == [i for i in range(n) if rank(i + 1) > rank(i)]
        r = len(keep)
        assert L.shape == (r, r) and d.shape == (r,)
        assert all(x > 0 for x in d)
        for a in range(r):
            assert L[a][a] == 1 and all(x == 0 for x in L[a][a + 1:])
            for b in range(r):
                assert G[keep[a]][keep[b]] == sum(
                    L[a][t] * d[t] * L[b][t] for t in range(r))
        assert _ldl_or_error(_exact_ldl, G) == _ldl_or_error(_fraction_ldl, G)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_congruence(_NONZERO))
    def test_matches_fraction_elimination_on_symmetric(self, case):
        # indefinite inputs must raise with the same value as the oracle
        G = case[2]
        assert _ldl_or_error(_exact_ldl, G) == _ldl_or_error(_fraction_ldl, G)

    @pytest.mark.parametrize("G, value", [
        ([[0, 1], [1, 0]], -1),
        ([[1, 2], [2, 1]], -3),
    ])
    def test_indefinite(self, G, value):
        G = [[Fraction(x) for x in row] for row in G]
        assert _ldl_or_error(_fraction_ldl, G) == ("indefinite", value)
        with pytest.raises(_IndefiniteGram) as ei:
            _exact_ldl(G)
        assert ei.value.value == value

    def test_matches_fraction_elimination_on_gram_levels(self, vir12):
        for k in range(13):
            G = vir12.verma.gram(k)
            assert (_ldl_or_error(_exact_ldl, G)
                    == _ldl_or_error(_fraction_ldl, G)), k

    def test_kac_determinant_ratio_at_c1(self):
        # det G_n(c, h) = K_n prod_{r,s >= 1, rs <= n} (h - h_rs)^p(n - rs)
        # with K_n independent of (c, h); at c = 1, h_rs = (r - s)^2 / 4,
        # so the ratio at two weights off the Kac table cancels K_n
        h1, h2 = Fraction(1, 3), Fraction(5, 7)
        v1 = build_verma(virasoro_spec(Fraction(1), h1, 6))
        v2 = build_verma(virasoro_spec(Fraction(1), h2, 6))
        for n in range(1, 7):
            dets = []
            for v in (v1, v2):
                keep, _, d = _exact_ldl(v.gram(n))
                assert len(keep) == len(v.gram(n))
                dets.append(math.prod(d))
            want = Fraction(1)
            for r in range(1, n + 1):
                for s in range(1, n // r + 1):
                    h_rs = Fraction((r - s) ** 2, 4)
                    want *= ((h1 - h_rs) / (h2 - h_rs)) ** len(
                        partitions(n - r * s))
            assert dets[0] / dets[1] == want, n


# ---------------------------------------------------------------------------
# integer kernels against plain Fraction arithmetic

def _fraction_mm(A, B):
    return [[sum((Fraction(A[i, t]) * B[t, j] for t in range(A.shape[1])),
                 Fraction(0)) for j in range(B.shape[1])]
            for i in range(A.shape[0])]


def _fraction_lsolve(L, Y):
    Z = [[Fraction(x) for x in row] for row in Y]
    for i in range(len(Z)):
        for t in range(i):
            Z[i] = [z - L[i, t] * zt for z, zt in zip(Z[i], Z[t])]
    return Z


def _fraction_ltsolve(L, W):
    n = len(W)
    X = [None] * n
    for i in range(n - 1, -1, -1):
        X[i] = [Fraction(w) - sum((L[t, i] * X[t][j] for t in range(i + 1, n)),
                                  Fraction(0)) for j, w in enumerate(W[i])]
    return X


def _assert_exact(out, want, shape):
    assert out.shape == shape
    assert all(type(x) is Fraction for x in out.flat)
    assert out.tolist() == want


_BIG = 10 ** 40
_ENTRY = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.just(Fraction(0)))


@st.composite
def _matrix(draw, n, m, zero_lines=True):
    """n x m object array of ints and Fractions, with some rows and
    columns zero if `zero_lines`."""
    A = np.empty((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            A[i, j] = draw(_ENTRY)
    if zero_lines:
        A[draw(st.lists(st.booleans(), min_size=n, max_size=n)), :] = 0
        A[:, draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0
    return A


@st.composite
def _unit_lower(draw, n):
    L = draw(_matrix(n, n, zero_lines=False))
    L[np.triu_indices(n)] = 0
    L[np.diag_indices(n)] = draw(st.sampled_from((1, Fraction(1))))
    return L


_DIM = st.integers(0, 5)


class TestExactKernels:

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.tuples(_DIM, _DIM, _DIM).flatmap(
        lambda s: st.tuples(_matrix(s[0], s[1]), _matrix(s[1], s[2]))))
    def test_mm(self, case):
        A, B = case
        _assert_exact(_mm(A, B), _fraction_mm(A, B),
                      (A.shape[0], B.shape[1]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.tuples(_DIM, _DIM).flatmap(
        lambda s: st.tuples(_unit_lower(s[0]), _matrix(s[0], s[1]))))
    def test_triangular_solves(self, case):
        L, Y = case
        _assert_exact(_lsolve(L, Y), _fraction_lsolve(L, Y), Y.shape)
        _assert_exact(_ltsolve(L, Y), _fraction_ltsolve(L, Y), Y.shape)

    def test_on_module_factors(self, vir12, aff5):
        # factors and coordinates of real levels: pivots whose lcm along a
        # row of L is far larger than any entry
        for mod in (vir12, aff5):
            for k in range(1, mod.N + 1):
                L, _ = mod.factors[k]
                Lt, _ = mod.factors[k - 1]
                R = mod._coord(mod.verma.adjoint(mod.verma.lowering[0]), k)
                X = _mm(Lt.T, R)
                _assert_exact(X, _fraction_mm(Lt.T, R), X.shape)
                _assert_exact(_lsolve(L, X.T), _fraction_lsolve(L, X.T),
                              X.T.shape)
                _assert_exact(_ltsolve(L, X.T), _fraction_ltsolve(L, X.T),
                              X.T.shape)


@pytest.mark.parametrize("name", ["vir8", "aff5"])
def test_exact_data_stays_exact(request, name):
    # every generator filled, including the raising modes that `_coord`
    # forms as commutators: no entry of the exact data is a float
    mod = request.getfixturevalue(name)
    for n in range(-mod.N, mod.N + 1):
        mod.generator_matrix(("L", n))
        if mod.spec.kind == "affine_sl2":
            for j in range(3):
                mod.generator_matrix(("x", j, n))
    exact = [x for R in mod._coords.values() for x in R.flat]
    exact += [x for L, d in mod.factors for x in (*L.flat, *d)]
    assert {type(x) for x in exact} <= {int, Fraction}


@pytest.mark.parametrize("name", ["vir8", "aff5"])
def test_grading_matches_the_level_loop(request, name):
    # level_of and a_diag read the grading off the level sizes; a
    # per-level fill is the reference, bit for bit
    mod = request.getfixturevalue(name)
    level = np.empty(mod.dim, dtype=int)
    diag = np.empty(mod.dim)
    for k in range(mod.N + 1):
        level[mod.offsets[k]:mod.offsets[k + 1]] = k
        diag[mod.offsets[k]:mod.offsets[k + 1]] = 1.0 + float(mod.h0) + k
    assert np.array_equal(mod.level_of(), level)
    assert np.array_equal(mod.a_diag(), diag)


# ---------------------------------------------------------------------------
# the quotient recursion against the PBW Shapovalov oracle

def _pbw_frames(verma):
    """(W, CU, d) per level from the exact LDL of the PBW Gram, as
    {monomial: coefficient} columns: C = CU diag(d)^{-1/2} is orthonormal
    and C^T G = diag(sqrt(d)) W^T, so W_j = G CU_j / d_j."""
    out = []
    for k in range(verma.spec.N + 1):
        G = verma.gram(k)
        keep, L, d = _exact_ldl(G)
        monos = verma.monomials[k]
        W, CU = [], []
        for j in range(len(keep)):
            # column j of L^{-T}: x_i + sum_{t > i} L[t][i] x_t = delta_ij
            x = {j: Fraction(1)}
            for i in range(j - 1, -1, -1):
                s = sum(L[t][i] * x[t] for t in x if t > i)
                if s:
                    x[i] = -s
            w = {}
            for m, row in zip(monos, G):
                v = sum(row[keep[i]] * cf for i, cf in x.items())
                if v:
                    w[m] = v / d[j]
            W.append(w)
            CU.append({monos[keep[i]]: v for i, v in x.items()})
        out.append((W, CU, np.array([float(x) for x in d])))
    return out


def _pbw_block(verma, frames, gen, k):
    """Orthonormal block of gen from level k by the PBW oracle:
    diag(sqrt(d_t)) W_t^T T CU_s diag(d_s)^{-1/2}, exact in the middle."""
    W, _, dt = frames[k - gen[-1]]
    _, CU, ds = frames[k]
    E = np.zeros((len(dt), len(ds)))
    for j, col in enumerate(CU):
        v = {}
        for mono, cf in col.items():
            for mu, a in verma.apply_gen(gen, mono).items():
                v[mu] = v.get(mu, 0) + cf * a
        for i, w in enumerate(W):
            E[i, j] = float(sum(w[mu] * a for mu, a in v.items() if mu in w))
    return np.sqrt(dt)[:, None] * E / np.sqrt(ds)[None, :]


@pytest.mark.parametrize("spec, modes", [
    (virasoro_spec(Fraction(1, 2), Fraction(1, 16), 14), range(1, 15)),
    (virasoro_spec(Fraction(1), Fraction(1), 8), range(1, 9)),
    (affine_spec(1, 0, 5), range(0, 6)),
    (affine_spec(1, 1, 4), range(0, 5)),
    (affine_spec(2, 2, 3), range(0, 4))],
    ids=["ising-n14", "c1h1-n8", "aff10-n5", "aff11-n4", "aff22-n3"])
def test_raising_block_singular_values_match_pbw_oracle(spec, modes):
    # the orthonormal bases differ, so compare what does not depend on
    # them: the singular values of every raising block
    mod = build_module(spec)
    verma = build_verma(spec)
    frames = _pbw_frames(verma)
    gens = ([("L", n) for n in modes] if spec.kind == "virasoro"
            else [("x", j, n) for n in modes for j in range(3)])
    for gen in gens:
        for k in range(gen[-1], spec.N + 1):
            want = np.linalg.svd(_pbw_block(verma, frames, gen, k),
                                 compute_uv=False)
            off = mod.offsets
            block = mod.generator_matrix(gen)[off[k - gen[-1]]:
                                              off[k - gen[-1] + 1],
                                              off[k]:off[k + 1]]
            got = np.linalg.svd(block, compute_uv=False)
            scale = want.max(initial=1.0)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=str((gen, k)))


@pytest.mark.parametrize("c, h", [
    (Fraction(1, 2), Fraction(3, 10)), (Fraction(1, 2), Fraction(1, 5)),
    (Fraction(1, 2), Fraction(-1, 10)), (Fraction(7, 10), Fraction(1, 5)),
    (Fraction(7, 10), Fraction(1, 20)), (Fraction(1, 2), Fraction(1, 30))])
def test_not_unitarizable_matches_pbw_oracle(c, h):
    # the level of the first negative pivot is the first level whose Gram
    # is indefinite, so both agree on it; the pivot itself depends on the
    # words and their order.  Through level 2 every spanning word s u is
    # one PBW monomial, so there the PBW Gram is taken in span order
    verma = build_verma(virasoro_spec(c, h, 8))
    for k in range(9):
        order = verma.monomials[k]
        if 0 < k <= 2:
            order = [(-s[1],) + m for s in verma.lowering if k + s[1] >= 0
                     for m in verma.monomials[k + s[1]]]
        G, idx = verma.gram(k), [verma.index[k][m] for m in order]
        try:
            _exact_ldl([[G[a][b] for b in idx] for a in idx])
        except _IndefiniteGram as exc:
            want = (k, float(exc.value))
            break
    with pytest.raises(NotUnitarizable) as ei:
        build_module(virasoro_spec(c, h, 8))
    assert ei.value.level == want[0]
    # the message names the level and calls the value a pivot
    msg = str(ei.value)
    assert f"level {want[0]} " in msg and "pivot" in msg
    assert "eigenvalue" not in msg
    if want[0] <= 2:
        assert ei.value.eigenvalue == want[1]


@pytest.mark.parametrize("c, h", [(0.5, Fraction(1, 16)),
                                  (Fraction(1, 2), 0.3)])
def test_float_weight_raises(c, h):
    field = "c=" if isinstance(c, float) else "h="
    with pytest.raises(ValueError, match=field):
        virasoro_spec(c, h, 4)


class TestCommutation:

    @pytest.fixture(scope="class")
    def mod10(self):
        return build_module(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 10))

    def test_safe_window_virasoro(self, mod10):
        mod = mod10
        c = 0.5
        for m in range(-3, 4):
            for n in range(-3, 4):
                Lm = mod.generator_matrix(("L", m))
                Ln = mod.generator_matrix(("L", n))
                comm = Lm @ Ln - Ln @ Lm
                want = (m - n) * mod.generator_matrix(("L", m + n))
                if m + n == 0:
                    want = want + c * (m ** 3 - m) / 12 * np.eye(mod.dim)
                d = mod.safe_dim(abs(m) + abs(n))
                assert np.abs((comm - want)[:, :d]).max() <= 1e-9, (m, n)

    def test_l0_diagonal(self, mod10):
        L0 = mod10.generator_matrix(("L", 0))
        np.testing.assert_allclose(
            np.diag(L0), 1 / 16 + mod10.level_of(), atol=1e-12)
        assert np.abs(L0 - np.diag(np.diag(L0))).max() == 0


def assert_projective_commutator(mod):
    """[pi(X), pi(Y)] - pi([X, Y]) = i B(X, Y) on the safe window, for two
    e_{+-2} fields with a nonzero real cocycle."""
    X = FourierVectorField({2: 0.3 + 0.1j, -2: 0.3 - 0.1j})
    Y = FourierVectorField({2: 1j, -2: -1j})
    PX, PY = mod.pi(X), mod.pi(Y)
    B = mod.projective_cocycle(X, Y)
    want = mod.pi(bracket(X, Y)) + 1j * B * np.eye(mod.dim)
    d = mod.safe_dim(4)
    assert np.abs((PX @ PY - PY @ PX - want)[:d, :d]).max() < 1e-10
    assert abs(B.imag) < 1e-14 and abs(B) > 0.01


class TestAssemblePi:

    @pytest.fixture(scope="class")
    def mod(self):
        return build_module(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 8))

    def test_zero(self, mod):
        X = FourierVectorField()
        assert np.abs(mod.pi(X)).max() == 0

    def test_e0_is_i_l0(self, mod):
        M = mod.pi(FourierVectorField({0: 1}))
        want = 1j * np.diag(1 / 16 + mod.level_of().astype(float))
        np.testing.assert_allclose(M, want, atol=1e-12)

    def test_real_field_skew_hermitian(self, mod):
        rng = np.random.default_rng(0)
        for _ in range(5):
            coeffs = {}
            for n in range(1, 4):
                a = complex(*rng.normal(size=2))
                coeffs[n] = a
                coeffs[-n] = a.conjugate()
            coeffs[0] = float(rng.normal())
            X = FourierVectorField(coeffs)
            M = mod.pi(X)
            assert np.abs(M + M.conj().T).max() <= 1e-12 * max(1, np.abs(M).max())

    def test_projective_commutator(self, mod):
        assert_projective_commutator(mod)

    def test_kind_mismatch(self, mod, request):
        with pytest.raises(TypeError):
            mod.pi(LoopAlgebraElement.single(E, 1, 1.0))
        # pi takes the algebra element itself: anything else is refused
        # by name on either kind of module
        for name in ("vir8", "aff5"):
            module = request.getfixturevalue(name)
            for foreign in (np.array([0.4, -0.2, 0.9]), {1: 0.5}):
                with pytest.raises(TypeError,
                                   match=type(foreign).__name__):
                    module.pi(foreign)


class TestAffineAndSugawara:

    @pytest.fixture(scope="class")
    def amod(self):
        return build_module(affine_spec(1, 0, 5))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HighestWeightSpec(kind="affine_sl2", N=2, ell=1, lam=2)

    def test_central_charge(self, amod):
        assert amod.central_charge == pytest.approx(1.0)

    def test_central_charge_extracted(self, amod):
        L = {n: amod.generator_matrix(("L", n)) for n in (-2, 0, 2)}
        comm = L[2] @ L[-2] - L[-2] @ L[2] - 4 * L[0]
        d = amod.safe_dim(4)
        np.testing.assert_allclose(np.diag(comm)[:d].real,
                                   0.5 * np.ones(d), atol=1e-8)

    def test_sugawara_l0_is_level(self, amod):
        L0 = amod.generator_matrix(("L", 0))
        np.testing.assert_allclose(L0, np.diag(amod.level_of().astype(float)),
                                   atol=1e-12)
        assert abs(float(amod.h0)) == 0     # lam = 0 => C_lam = 0

    def test_sugawara_hermiticity(self, amod):
        for n in (1, 2, 3):
            np.testing.assert_array_equal(
                amod.generator_matrix(("L", -n)),
                amod.generator_matrix(("L", n)).conj().T)

    def test_intertwining(self, amod):
        # [L_m, x(n)] = -n x(m+n) on the safe window
        for m in (-2, -1, 1, 2):
            for n in (-2, -1, 0, 1, 2):
                if abs(m + n) > amod.N:
                    continue
                for j in range(3):
                    X = amod.generator_matrix(("x", j, n))
                    L = amod.generator_matrix(("L", m))
                    comm = L @ X - X @ L
                    want = -n * amod.generator_matrix(("x", j, m + n))
                    d = amod.safe_dim(abs(m) + abs(n) + abs(m + n))
                    if d == 0:
                        continue
                    assert np.abs((comm - want)[:d, :d]).max() <= 1e-8

    def test_sugawara_projective_commutator(self, amod):
        # vector fields act by the Sugawara L_n, with the Virasoro cocycle
        # at c = 3 ell / (ell + 2)
        assert_projective_commutator(amod)

    def test_loop_pi_skew_and_defect(self, amod):
        X = LoopAlgebraElement({1: (1, 0.5, 0.25), -1: (-0.25, -0.5, -1)})
        M = amod.pi(X)
        assert np.abs(M + M.conj().T).max() < 1e-12
        Y = LoopAlgebraElement({2: (0, 1j, 0), -2: (0, 1j, 0)})
        comm = amod.pi(X) @ amod.pi(Y) - amod.pi(Y) @ amod.pi(X)
        want = (amod.pi(bracket(X, Y))
                + 1j * amod.projective_cocycle(X, Y) * np.eye(amod.dim))
        d = amod.safe_dim(4)
        assert np.abs((comm - want)[:d, :d]).max() < 1e-10

    def test_affine_exact_gram_small(self):
        v = build_verma(affine_spec(1, 0, 2))
        G1 = v.gram(1)
        # <x(-1) O, y(-1) O> = ell <x^dagger, y>; basis order e,h,f with
        # e^dagger = f, so the matrix is diag(<f,e>, <h,h>, <e,f>) = diag(1,2,1)
        assert [G1[i][i] for i in range(3)] == [1, 2, 1]
        assert all(G1[i][j] == 0 for i in range(3) for j in range(3) if i != j)

    @staticmethod
    def _lattice_dims(lam, N):
        # ell = 1 (Frenkel-Kac): the character of the lowest weight lam is
        # sum_m q^{m^2 + lam m} / prod_{n>=1} (1 - q^n) in the level
        # grading, so dim V_n = sum_m p(n - m^2 - lam m)
        p = [1] + [0] * N                      # partition counts p(n)
        for part in range(1, N + 1):
            for n in range(part, N + 1):
                p[n] += p[n - part]
        return [sum(p[n - m * m - lam * m] for m in range(-n - 1, n + 1)
                    if 0 <= m * m + lam * m <= n) for n in range(N + 1)]

    @pytest.mark.parametrize("N, shapovalov", [(4, True), (6, False)])
    def test_affine_level_dims_lattice_character(self, N, shapovalov):
        want = self._lattice_dims(0, N)
        assert want == [1, 3, 4, 7, 13, 19, 29][:N + 1]
        mod = build_module(affine_spec(1, 0, N))
        assert list(mod.level_dims) == want
        if shapovalov:
            # the irreducible quotient is the Verma module modulo the radical
            # of its Shapovalov form, so its level dims are the Gram ranks
            assert [len(_exact_ldl(mod.verma.gram(k))[0])
                    for k in range(N + 1)] == want

    @pytest.mark.parametrize("lam", [0, 1])
    def test_affine_level_dims_lattice_character_by_weight(self, lam):
        N = 8
        mod = build_module(affine_spec(1, lam, N))
        assert list(mod.level_dims) == self._lattice_dims(lam, N)
