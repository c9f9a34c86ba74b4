import unittest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st
import numpy as np

from conftest import unitarity_defect
from prodexp.nelson import (FinDimRep, axis_angle_oracle, laplacian,
                            spin_matrices, verify_assumptions)
from prodexp.prodint import (GeneratorPath, product_integral,
                             step_product)

MIXED = FinDimRep((0.5, 1.5))
# the probe block of every MIXED product: dim 6, so the whole propagator
EYE = np.eye(MIXED.dim)


class SpinMatrixTests(unittest.TestCase):

    def test_angular_momentum_algebra(self):
        for j in (0.5, 1.0, 1.5, 2.0):
            Jx, Jy, Jz = spin_matrices(j)
            np.testing.assert_allclose(Jx @ Jy - Jy @ Jx, 1j * Jz, atol=1e-13)
            casimir = Jx @ Jx + Jy @ Jy + Jz @ Jz
            np.testing.assert_allclose(
                casimir, j * (j + 1) * np.eye(casimir.shape[0]), atol=1e-13)

    def test_hermiticity(self):
        for J in spin_matrices(1.5):
            np.testing.assert_allclose(J, J.conj().T, atol=1e-14)


class FinDimRepTests(unittest.TestCase):

    def test_validation(self):
        with self.assertRaises(ValueError):
            FinDimRep(())
        with self.assertRaises(ValueError):
            FinDimRep((0.3,))
        with self.assertRaises(ValueError):
            FinDimRep((-1,))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    @example([1, 3])
    @example([2])
    def test_structure_constants(self, twice_spins):
        # skew-Hermitian generators with [X_i, X_j] = eps_ijk X_k
        G = FinDimRep(tuple(Fraction(t, 2) for t in twice_spins)).generators
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            self.assertLess(np.abs(G[i] + G[i].conj().T).max(), 1e-13)
            self.assertLess(np.abs(G[i] @ G[j] - G[j] @ G[i] - G[k]).max(),
                            1e-13)

    def test_dimensions(self):
        self.assertEqual(MIXED.dim, 6)
        self.assertEqual(FinDimRep((0, 0.5, 1)).dim, 6)


class LaplacianTests(unittest.TestCase):

    def test_spin_zero(self):
        rep = FinDimRep((0,))
        Delta, A = laplacian(rep)
        self.assertEqual(Delta.shape, (1, 1))
        np.testing.assert_allclose(Delta, 0.0, atol=1e-15)
        np.testing.assert_allclose(A, 1.0)

    def test_spin_half_casimir(self):
        Delta, _ = laplacian(FinDimRep((0.5,)))
        np.testing.assert_allclose(-Delta, 0.75 * np.eye(2), atol=1e-14)

    def test_mixed_block_constants(self):
        _, A = laplacian(MIXED)
        np.testing.assert_allclose(np.diag(A), [1.75, 1.75,
                                                4.75, 4.75, 4.75, 4.75],
                                   atol=1e-13)
        np.testing.assert_allclose(A, np.diag(np.diag(A)), atol=1e-13)
        np.testing.assert_allclose(MIXED.a_diag(), np.diag(A).real)

    def test_blocks_match_the_spin_loop(self):
        # one block of int(2 s) + 1 coordinates per spin, in order
        rep = FinDimRep((1, 0, 0.5, 1.5))
        off = 0
        for i, (sl, s) in enumerate(zip(rep.block_slices(), rep.spins)):
            d = int(2 * s) + 1
            self.assertEqual(sl, slice(off, off + d))
            self.assertTrue(np.all(rep.level_of()[sl] == i))
            self.assertTrue(np.all(rep.a_diag()[sl]
                                   == 1.0 + float(s * (s + 1))))
            off += d
        self.assertEqual(rep.dim, off)


class AssumptionTests(unittest.TestCase):

    def test_single_irrep_commutator_vanishes(self):
        for row in verify_assumptions(FinDimRep((1,))):
            self.assertLess(row["commutator_constant"], 1e-12)
            self.assertTrue(row["finite"])

    def test_mixed_constants_finite(self):
        rows = verify_assumptions(MIXED)
        self.assertEqual(len(rows), 15)
        for row in rows:
            self.assertTrue(row["finite"])
            self.assertGreater(row["pi_constant"], 0)

    def test_linearity_under_scaling(self):
        x = np.array([0.3, -1.1, 0.7])
        for n in range(3):
            self.assertAlmostEqual(MIXED.seminorm(2 * x, n),
                                   2 * MIXED.seminorm(x, n), places=12)
            self.assertAlmostEqual(MIXED.a_seminorm(2 * x, n),
                                   2 * MIXED.a_seminorm(x, n), places=12)


def test_axis_angle_against_expm():
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.normal(size=3)
        want = np.eye(MIXED.dim, dtype=complex)
        from scipy.linalg import expm
        want = expm(MIXED.pi(x))
        got = axis_angle_oracle(MIXED, x)
        assert np.abs(got - want).max() < 1e-12


def ode_reference(path):
    """The propagator of `path` on MIXED by a tight-tolerance ODE solve."""
    from scipy.integrate import solve_ivp
    a, b = path.interval
    sol = solve_ivp(lambda t, y: (MIXED.pi(path(t))
                                  @ y.reshape(MIXED.dim, MIXED.dim)).ravel(),
                    (a, b), np.eye(MIXED.dim, dtype=complex).ravel(),
                    rtol=1e-12, atol=1e-13)
    return sol.y[:, -1].reshape(MIXED.dim, MIXED.dim)


def halves_residual(path, P, tol):
    """|U over [m, b] U over [a, m] - P|, m the interval's midpoint."""
    a, b = path.interval
    m = a + 0.5 * (b - a)
    P1 = product_integral(MIXED, GeneratorPath(path.func, (a, m)), EYE,
                          tol=tol)
    P2 = product_integral(MIXED, GeneratorPath(path.func, (m, b)), P1.matrix,
                          tol=tol)
    return np.abs(P2.matrix - P.matrix).max()


def test_constant_path_matches_oracle():
    x = np.array([0.4, -0.2, 0.9])
    path = GeneratorPath(lambda t: x)
    P = product_integral(MIXED, path, EYE, tol=1e-10)
    assert np.abs(P.matrix - axis_angle_oracle(MIXED, x)).max() < 1e-12
    assert unitarity_defect(P.matrix) < 1e-12
    assert np.abs(P.matrix - ode_reference(path)).max() < 1e-9
    assert halves_residual(path, P, 1e-10) < 1e-10


def test_full_turn_spin_half_is_minus_identity():
    rep = FinDimRep((0.5,))
    axis = 2 * np.pi * np.array([0.0, 0.0, 1.0])
    U = axis_angle_oracle(rep, axis)
    assert np.abs(U + np.eye(2)).max() < 1e-12
    P = product_integral(rep, GeneratorPath(lambda t: axis), np.eye(2),
                         tol=1e-10)
    assert np.abs(P.matrix + np.eye(2)).max() < 1e-9
    # ...and on the mixed sum the spin-1/2 block flips sign while the
    # spin-3/2 block returns to -Id as well (half-integer spins)
    Um = axis_angle_oracle(MIXED, axis)
    assert np.abs(Um + np.eye(MIXED.dim)).max() < 1e-12


def test_time_dependent_path_report():
    def f(t):
        return np.array([np.sin(t), 0.3 * np.cos(2 * t), 0.5 * t])
    path = GeneratorPath(f)
    P = product_integral(MIXED, path, EYE, tol=1e-9)
    assert unitarity_defect(P.matrix) < 1e-12
    assert np.abs(P.matrix - ode_reference(path)).max() < 1e-6
    assert halves_residual(path, P, 1e-9) < 1e-8


def test_path_independence_euler_decomposition():
    # two different paths to the same SU(2) element: a three-segment
    # Euler route versus the direct axis-angle path, compared on the
    # full reducible representation
    alpha, beta, gamma = 0.7, 1.1, -0.4
    ez = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])

    def euler(t):
        if t < 1 / 3:
            return 3 * alpha * ez
        if t < 2 / 3:
            return 3 * beta * ex
        return 3 * gamma * ez

    kw = dict(tol=1e-9)
    # product of the three constant segments (rightmost acts first)
    P = EYE
    for seg in ((0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)):
        P = product_integral(MIXED, GeneratorPath(euler, seg), P, **kw).matrix

    # extract theta * n from the spin-1/2 block of the endpoint
    rep_half = FinDimRep((0.5,))
    target = np.eye(2, dtype=complex)
    for x in (alpha * ez, beta * ex, gamma * ez):   # alpha segment first
        target = axis_angle_oracle(rep_half, x) @ target
    cos_half = np.real(np.trace(target)) / 2
    theta = 2 * np.arccos(np.clip(cos_half, -1, 1))
    G = rep_half.generators
    # tr(g G_i) = -n_i sin(theta/2) for g = exp(theta n . X)
    raw = np.array([np.trace(target @ G[i]).real for i in range(3)])
    x = -theta * raw / np.linalg.norm(raw)
    direct = axis_angle_oracle(MIXED, x)
    assert np.abs(P - direct).max() < 1e-6


def test_block_determinants_unimodular():
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.normal(size=3)
        U = axis_angle_oracle(MIXED, x)
        for sl in MIXED.block_slices():
            assert abs(abs(np.linalg.det(U[sl, sl])) - 1) < 1e-12


def test_magnus4_axis_angle():
    x = np.array([0.4, -0.2, 0.9])
    P = product_integral(MIXED, GeneratorPath(lambda t: x), EYE, tol=1e-10)
    assert np.abs(P.matrix - axis_angle_oracle(MIXED, x)).max() < 1e-12
    assert unitarity_defect(P.matrix) < 1e-13


def test_magnus_exponent_is_cross_product():
    # [pi(y), pi(x)] = pi(y cross x) against the two dense products
    rng = np.random.default_rng(3)
    h, w = 0.3, 0.7
    for _ in range(5):
        x, y = rng.normal(size=3), rng.normal(size=3)
        A, B = MIXED.pi(x), MIXED.pi(y)
        want = h * (A + B) + w * (B @ A - A @ B)
        assert np.abs(MIXED.magnus_exponent(x, y, h, w) - want).max() < 1e-14


def test_magnus4_noncommuting_path_vs_ode():
    # a path whose values do not commute, so the commutator term of the
    # Magnus exponent matters; the reference is an independent ODE solve
    from scipy.integrate import solve_ivp

    def f(t):
        return np.array([np.sin(3 * t), 0.8 * np.cos(2 * t), 0.5 + t])

    path = GeneratorPath(f)
    sol = solve_ivp(lambda t, y: (MIXED.pi(f(t)) @ y.reshape(6, 6)).ravel(),
                    (0, 1), np.eye(6, dtype=complex).ravel(),
                    rtol=1e-12, atol=1e-13)
    ref = sol.y[:, -1].reshape(6, 6)
    errs = {rule: np.abs(step_product(MIXED, path, 16, EYE, rule)
                         - ref).max() for rule in ("left", "magnus4")}
    assert errs["magnus4"] < 1e-5
    assert errs["magnus4"] < errs["left"] / 50
    P = product_integral(MIXED, path, EYE, tol=1e-11)
    assert np.abs(P.matrix - ref).max() < 1e-9
