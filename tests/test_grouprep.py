import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import expm
from scipy.optimize import brentq

from conftest import dense_at_vector_steps, unitarity_defect
from prodexp import grouprep
from prodexp.grouprep import (BoundaryViolation, CirclePath, CurvatureTooLarge,
                              FlatHomotopy, NonMonotone, OutsideChart,
                              PhaseChart, circle_inverse, exponentiate_path,
                              extension_cocycle_check, holonomy_phase,
                              local_cocycle, log_derivative, phase_function,
                              scalar_part, shrinking_loop_homotopy,
                              verify_up_properties)
from prodexp.hwmod import affine_spec, build_module, virasoro_spec
from prodexp.liealg import FourierVectorField, LoopAlgebraElement
from prodexp.nelson import FinDimRep
from prodexp.prodint import GeneratorPath, product_integral
from prodexp.scale import SobolevScale


def mobius_diffeo(eps=0.2):
    """phi(t, theta) = theta + t * eps * sin(theta)."""
    return CirclePath(
        coeff=lambda t: {1: -0.5j * eps * t, -1: 0.5j * eps * t},
        dcoeff=lambda t: {1: -0.5j * eps, -1: 0.5j * eps})


def odd_mode_diffeo():
    """phi(t, theta) = theta + t (0.2 cos(theta) + 0.06 sin(3 theta))."""
    return CirclePath(
        coeff=lambda t: {1: 0.1 * t, -1: 0.1 * t,
                         3: -0.03j * t, -3: 0.03j * t},
        dcoeff=lambda t: {1: 0.1, -1: 0.1, 3: -0.03j, -3: 0.03j})


def max_velocity_error(X, t, velocity):
    """max over s of |X(t)(phi(t, s)) - d_t phi(t, s)|, phi(t, s) =
    s + t velocity(s) on 101 angles."""
    s = np.linspace(0.0, 2 * np.pi, 101)
    angle = s + t * velocity(s)
    val = sum(c * np.exp(1j * n * angle) for n, c in X.coeffs.items())
    return np.abs(val - velocity(s)).max()


def grids_used(monkeypatch):
    """The node counts of every `circle_inverse` call from now on."""
    sizes = []
    inverse = grouprep.circle_inverse

    def spy(coeffs, theta, t):
        sizes.append(len(theta))
        return inverse(coeffs, theta, t)
    monkeypatch.setattr(grouprep, "circle_inverse", spy)
    return sizes


def oscillator(scale=0.25):
    def f(t):
        a = scale * np.exp(1j * t)
        return FourierVectorField({1: a, -1: a.conjugate()})
    return GeneratorPath(f, (0.0, 1.0))


# ---------------------------------------------------------------------------
# CirclePath and log_derivative


def test_circle_path_validation():
    with pytest.raises(TypeError):
        CirclePath()
    with pytest.raises(TypeError):         # two callables, no grid knob
        CirclePath(lambda t: {}, lambda t: {}, 64)
    with pytest.raises(ValueError):
        CirclePath(coeff=lambda t: {0: 1.0}, dcoeff=None)
    with pytest.raises(ValueError):        # phi(0) must be the identity
        CirclePath(coeff=lambda t: {0: 1.0}, dcoeff=lambda t: {0: 1.0})


def test_rotation_log_derivative(monkeypatch):
    sizes = grids_used(monkeypatch)
    gen = log_derivative(CirclePath.rotation(2 * np.pi))
    for t in (0.0, 0.3, 1.0):
        X = gen(t)
        assert set(X.coeffs) == {0}
        assert X.coeffs[0] == pytest.approx(2 * np.pi, abs=1e-12)
    assert sizes == [8, 8, 8]              # one 8-point fit per t


def test_mobius_log_derivative_at_zero():
    eps = 0.15
    gen = log_derivative(mobius_diffeo(eps))
    X = gen(0.0)
    # d_t phi(0, theta) = eps sin(theta) = eps (e^{i th} - e^{-i th})/(2i)
    assert X.coeffs[1] == pytest.approx(-0.5j * eps, abs=1e-12)
    assert X.coeffs[-1] == pytest.approx(0.5j * eps, abs=1e-12)
    assert all(abs(c) < 1e-12 for n, c in X.coeffs.items()
               if n not in (1, -1))


def test_mobius_log_derivative_consistency():
    # X(t)(phi(t, s)) = d_t phi(t, s): evaluate the fitted field at pushed-
    # forward angles and compare with the closed form of the velocity
    eps, t = 0.2, 0.7
    gen = log_derivative(mobius_diffeo(eps))
    X = gen(t)
    for s in np.linspace(0.0, 2 * np.pi, 11):
        angle = s + t * eps * np.sin(s)
        val = sum(c * np.exp(1j * n * angle) for n, c in X.coeffs.items())
        assert val.real == pytest.approx(eps * np.sin(s), abs=1e-9)
        assert abs(val.imag) < 1e-9


def cosine_path():
    """phi = theta + 1.2 t cos(theta): phi' = 1 - 1.2 t sin(theta)."""
    return CirclePath(coeff=lambda t: {1: 0.6 * t, -1: 0.6 * t},
                      dcoeff=lambda t: {1: 0.6, -1: 0.6})


def test_log_derivative_nonmonotone(monkeypatch):
    sizes = grids_used(monkeypatch)
    gen = log_derivative(cosine_path())
    # phi' > 0 is certified on 8 nodes at t = 0.5, but the dropped modes
    # carry 1.8e-4 of the norm on 64 nodes and 1.5e-11 only on 256
    X = gen(0.5)
    assert sizes == [8, 16, 32, 64, 128, 256]
    assert max_velocity_error(X, 0.5, lambda s: 1.2 * np.cos(s)) < 1e-9
    sizes.clear()
    with pytest.raises(NonMonotone, match="<= 0"):
        gen(1.0)                   # min -0.2, on the first grid
    assert sizes == []


def test_log_derivative_nonmonotone_between_nodes():
    # phi'(t, .) = 1 + 6.4 t cos(64 theta) is 1 + 6.4 t at every node of
    # a 64-point grid; the first grid, 512 nodes, sees its minimum -5.4
    path = CirclePath(coeff=lambda t: {64: -0.05j * t, -64: 0.05j * t},
                      dcoeff=lambda t: {64: -0.05j, -64: 0.05j})
    with pytest.raises(NonMonotone, match="<= 0"):
        log_derivative(path)(1.0)
    # phi' = 1 - 0.99999996 sin(theta) is 4e-8 at its minimum node, and
    # the Bernstein slack pi 0.99999996 / M stays above it up to MAX_GRID
    with pytest.raises(NonMonotone, match="not certified positive on 65536"):
        log_derivative(cosine_path())(0.8333333)


def test_log_derivative_spectral_tail(monkeypatch):
    # phi = theta - 0.002 t sin(40 theta): modes +-40 start the grid at
    # 256 > 4 * 40 nodes, so none of them aliases into |n| <= M/4
    path = CirclePath(coeff=lambda t: {40: 0.001j * t, -40: -0.001j * t},
                      dcoeff=lambda t: {40: 0.001j, -40: -0.001j})
    sizes = grids_used(monkeypatch)
    X = log_derivative(path)(0.5)
    assert sizes[0] == 256 and sizes[-1] == 2048
    assert max_velocity_error(
        X, 0.5, lambda s: -0.002 * np.sin(40 * s)) < 1e-13
    # a cap below the 256 nodes the cosine path needs: the error names
    # t, M and the share of the norm above M/4
    monkeypatch.setattr(grouprep, "MAX_GRID", 64)
    with pytest.raises(ValueError,
                       match=r"t=0\.5: .* M=64 carry 0\.000179 of the norm"):
        log_derivative(cosine_path())(0.5)


@pytest.mark.parametrize("path", [mobius_diffeo(0.2), odd_mode_diffeo()],
                         ids=["mobius", "modes-1-3"])
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_circle_inverse_matches_brentq(path, t):
    # non-rigid paths: the vectorized Newton solve against scalar brentq
    c = path.coeff(t)

    def phi(s):
        return s + sum(v * np.exp(1j * n * s) for n, v in c.items()).real

    theta = 2 * np.pi * np.arange(64) / 64
    inv = circle_inverse(c, theta, t)
    ref = np.array([brentq(lambda s, x=x: phi(s) - x, x - 1, x + 1,
                           xtol=1e-15) for x in theta])
    assert np.abs(inv - ref).max() <= 1e-12
    assert np.abs(phi(inv) - theta).max() <= 1e-12


def test_odd_mode_log_derivative_consistency():
    # X(t)(phi(t, s)) = d_t phi(t, s) on a path with modes +-1 and +-3
    t = 0.8
    X = log_derivative(odd_mode_diffeo())(t)
    for s in np.linspace(0.0, 2 * np.pi, 11):
        velocity = 0.2 * np.cos(s) + 0.06 * np.sin(3 * s)
        angle = s + t * velocity
        val = sum(c * np.exp(1j * n * angle) for n, c in X.coeffs.items())
        assert val.real == pytest.approx(velocity, abs=1e-9)
        assert abs(val.imag) < 1e-9


def test_circle_inverse_iteration_cap(monkeypatch):
    # an unconverged inverse raises, naming t and the worst residual
    monkeypatch.setattr(grouprep, "ROOT_MAXITER", 1)
    with pytest.raises(ValueError, match=r"t=0\.7.*worst residual"):
        log_derivative(mobius_diffeo(0.2))(0.7)


# ---------------------------------------------------------------------------
# exponentiate_path and the U_p properties


def test_rotation_propagator_phase(vir8):
    P = exponentiate_path(vir8, CirclePath.rotation(2 * np.pi),
                          np.eye(vir8.dim), tol=1e-10)
    # L0 is diagonal: the full-turn propagator is e^{2 pi i h} Id exactly
    want = np.exp(2j * np.pi / 16)
    assert np.abs(P.matrix - want * np.eye(vir8.dim)).max() < 1e-8
    off = P.matrix - np.diag(np.diag(P.matrix))
    assert np.abs(off).max() < 1e-12
    s, dev = scalar_part(vir8, P.matrix, vir8.N)
    assert abs(s - want) < 1e-8 and dev < 1e-8


def test_trivial_path_identity(vir8):
    triv = CirclePath(coeff=lambda t: {}, dcoeff=lambda t: {})
    P = exponentiate_path(vir8, triv, np.eye(vir8.dim), tol=1e-10)
    assert np.abs(P.matrix - np.eye(vir8.dim)).max() < 1e-12


def test_mobius_unitarity(vir8):
    P = exponentiate_path(vir8, mobius_diffeo(0.2), np.eye(vir8.dim),
                          tol=1e-6)
    assert unitarity_defect(P.matrix) < 1e-10


def test_up_properties(vir8):
    V = np.random.default_rng(4).normal(size=(vir8.dim, 4))
    res = verify_up_properties(vir8, oscillator(0.25), V, tol=1e-9)
    assert res["constant-exponential"] < 1e-10
    assert res["reparametrization"] < 1e-6
    # split at 1/3, the pieces refine onto grids the whole path's does
    # not contain, so the entry is an integration error, not rounding
    assert 1e-12 < res["concatenation"] < 1e-8
    assert res["adjoint"] < 1e-8


# ---------------------------------------------------------------------------
# flat homotopies


def constant_homotopy(X1const, X2const):
    zero = FourierVectorField()
    return FlatHomotopy(X1=lambda x, y: X1const, X2=lambda x, y: X2const,
                        d2X1=lambda x, y: zero, d1X2=lambda x, y: zero)


def test_shrinking_loop_is_flat():
    for k in (1, 2):
        hom = shrinking_loop_homotopy(k=k)
        assert hom.curvature_residual() < 1e-12
        assert hom.boundary_residual() < 1e-14


def numpy_loop_homotopy(k, alpha=0.16, beta=0.16):
    """shrinking_loop_homotopy's closed forms as numpy evaluates them on
    numpy scalars: the reference its math-module forms must equal bit
    for bit."""
    def a(x):
        return alpha * np.sin(np.pi * x) ** 2

    def da(x):
        return alpha * np.pi * np.sin(2 * np.pi * x)

    def b(x):
        return beta * np.sin(np.pi * x) ** 2 * np.cos(np.pi * x)

    def db(x):
        return beta * np.pi * (np.sin(2 * np.pi * x) * np.cos(np.pi * x)
                               - np.sin(np.pi * x) ** 3)

    def frame(cu, cv, c0):
        return FourierVectorField({k: cu + 1j * cv, -k: cu - 1j * cv,
                                   0: complex(c0)})

    def X1(x, y):
        A = y * a(x)
        return frame(y * da(x), y * db(x) * np.cosh(2 * k * A),
                     2 * y * db(x) * np.sinh(2 * k * A))

    def X2(x, y):
        A = y * a(x)
        return frame(a(x), b(x) * np.cosh(2 * k * A),
                     2 * b(x) * np.sinh(2 * k * A))

    def d2X1(x, y):
        A = y * a(x)
        ch, sh = np.cosh(2 * k * A), np.sinh(2 * k * A)
        return frame(da(x),
                     db(x) * ch + 2 * k * a(x) * y * db(x) * sh,
                     2 * db(x) * sh + 4 * k * a(x) * y * db(x) * ch)

    def d1X2(x, y):
        A = y * a(x)
        ch, sh = np.cosh(2 * k * A), np.sinh(2 * k * A)
        return frame(da(x),
                     db(x) * ch + 2 * k * y * da(x) * b(x) * sh,
                     2 * db(x) * sh + 4 * k * y * da(x) * b(x) * ch)

    return FlatHomotopy(X1, X2, d2X1, d1X2)


def homotopy_node_grids():
    """The nodes per axis holonomy_phase evaluates the homotopy on: the
    5-, 10- and 20-point Gauss-Legendre rules and the checker grid."""
    grids = [(np.polynomial.legendre.leggauss(n)[0] + 1.0) / 2.0
             for n in (5, 10, 20)]
    return grids + [np.linspace(0.0, 1.0, grouprep.CHECKER_NODES)]


@pytest.mark.parametrize("k", [1, 2])
def test_shrinking_loop_matches_numpy_reference_bit_for_bit(k):
    hom, ref = shrinking_loop_homotopy(k=k), numpy_loop_homotopy(k)
    for grid in homotopy_node_grids():
        for x, y in itertools.product(grid, repeat=2):
            for name in ("X1", "X2", "d2X1", "d1X2"):
                got = getattr(hom, name)(float(x), float(y)).coeffs
                want = getattr(ref, name)(x, y).coeffs
                assert got.keys() == want.keys(), (name, x, y)
                assert all(got[n] == want[n] for n in got), (name, x, y)


@pytest.mark.parametrize("k", [1, 2])
def test_shrinking_loop_coefficients_are_python_complex(k):
    # numpy scalars would tax every later sum, bracket and cocycle
    hom = shrinking_loop_homotopy(k=k)
    grid = np.linspace(0.0, 1.0, grouprep.CHECKER_NODES).tolist()
    for x, y in itertools.product(grid, repeat=2):
        for name in ("X1", "X2", "d2X1", "d1X2"):
            coeffs = getattr(hom, name)(x, y).coeffs.values()
            assert all(type(c) is complex for c in coeffs), (name, x, y)


def test_holonomy_boundary_guard(vir8):
    X = FourierVectorField({0: 1.0})
    hom = constant_homotopy(X, X)
    with pytest.raises(BoundaryViolation):
        holonomy_phase(vir8, hom)


def test_holonomy_x2_zero(vir8):
    X = FourierVectorField({2: 0.2, -2: 0.2})
    zero = FourierVectorField()
    hom = constant_homotopy(X, zero)
    rep = holonomy_phase(vir8, hom, tol=1e-9)
    assert rep.predicted == 1.0
    assert abs(rep.measured - 1.0) < 1e-10
    assert rep.deviation < 1e-10


def test_holonomy_mobius(vir8):
    rep = holonomy_phase(vir8, shrinking_loop_homotopy(k=1))
    assert rep.predicted == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.measured - 1.0) < 1e-6


def test_holonomy_nontrivial_vir8(vir8):
    rep = holonomy_phase(vir8, shrinking_loop_homotopy(k=2))
    assert abs(rep.predicted) == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.predicted.imag) > 1e-3       # genuinely nontrivial
    # N = 8 is the coarsest truncation: modest but definite agreement
    assert rep.mismatch < 5e-2
    assert rep.curvature < 1e-12


def test_holonomy_quadrature_call_count(vir8, monkeypatch):
    # the k = 2 integral settles between 10 and 20 Gauss nodes per axis:
    # one integrand call per node of the 5-, 10- and 20-node grids
    calls = []
    cocycle = vir8.projective_cocycle
    monkeypatch.setattr(vir8, "projective_cocycle",
                        lambda X, Y: calls.append(1) or cocycle(X, Y))
    rep = holonomy_phase(vir8, shrinking_loop_homotopy(k=2))
    assert rep.quad_nodes == 20
    assert len(calls) == 5 ** 2 + 10 ** 2 + 20 ** 2


def test_holonomy_quadrature_cap(vir8, monkeypatch):
    # two values that never agree stop at the cap, naming both values
    monkeypatch.setattr(grouprep, "QUAD_TOL", 0.0)
    monkeypatch.setattr(grouprep, "QUAD_MAX_NODES", 20)
    with pytest.raises(ValueError,
                       match=r"Gauss values .* at 10 and 20 nodes per axis"):
        holonomy_phase(vir8, shrinking_loop_homotopy(k=2))


def test_holonomy_integral_matches_closed_form(vir8):
    # for the shrinking loop, B(X_1, X_2) = c (k^3 - k)/6 y cosh(2 k y a)
    # (a' b - b' a), with a, b, alpha, beta as in shrinking_loop_homotopy
    k, alpha, beta = 2, 0.16, 0.16
    s, c = np.sin, np.cos

    def integrand(y, x):
        a = alpha * s(np.pi * x) ** 2
        da = alpha * np.pi * s(2 * np.pi * x)
        b = beta * s(np.pi * x) ** 2 * c(np.pi * x)
        db = beta * np.pi * (s(2 * np.pi * x) * c(np.pi * x)
                             - s(np.pi * x) ** 3)
        return (0.5 * (k ** 3 - k) / 6 * y * np.cosh(2 * k * y * a)
                * (da * b - db * a))

    want, _ = dblquad(integrand, 0.0, 1.0, 0.0, 1.0,
                      epsabs=1e-15, epsrel=1e-13)
    rep = holonomy_phase(vir8, shrinking_loop_homotopy(k=k))
    assert abs(rep.integral - want) < 1e-13


# the Heisenberg pair of loop-projective-defect: u = h(1) - h(-1) and
# v = i(h(1) + h(-1)) commute in the loop algebra, with B(u, v) = 4 ell
HEIS_U = LoopAlgebraElement({1: (0, 1, 0), -1: (0, -1, 0)})
HEIS_V = LoopAlgebraElement({1: (0, 1j, 0), -1: (0, 1j, 0)})
E1 = LoopAlgebraElement({1: (1, 0, 0)})              # e(1)
FM1 = LoopAlgebraElement({-1: (0, 0, 1)})            # f(-1)


def heisenberg_homotopy(alpha, beta):
    """H = exp(y a(x) u) exp(y b(x) v), a and b as in
    shrinking_loop_homotopy; as [u, v] = 0, X_1 = y (a' u + b' v),
    X_2 = a u + b v and d_2 X_1 = d_1 X_2 = a' u + b' v."""
    def a(x):
        return alpha * np.sin(np.pi * x) ** 2

    def b(x):
        return beta * np.sin(np.pi * x) ** 2 * np.cos(np.pi * x)

    def dX(x, y):
        da = alpha * np.pi * np.sin(2 * np.pi * x)
        db = beta * np.pi * (np.sin(2 * np.pi * x) * np.cos(np.pi * x)
                             - np.sin(np.pi * x) ** 3)
        return da * HEIS_U + db * HEIS_V

    return FlatHomotopy(X1=lambda x, y: y * dX(x, y),
                        X2=lambda x, y: a(x) * HEIS_U + b(x) * HEIS_V,
                        d2X1=dX, d1X2=dX)


@pytest.fixture(scope="module")
def aff6():
    return build_module(affine_spec(1, 0, 6))


def test_heisenberg_loop_holonomy(aff6):
    # B(X_1, X_2) = 4 ell y (a'b - b'a) and a'b - b'a = pi alpha beta
    # sin^5(pi x), so the integral is (32/15) ell alpha beta; a flipped
    # sign would miss by 1.02 and phase 1 by 0.53
    alpha = beta = 0.5
    rep = holonomy_phase(aff6, heisenberg_homotopy(alpha, beta), window=0)
    assert rep.curvature == 0.0
    assert rep.integral == pytest.approx(32 / 15 * alpha * beta, abs=1e-12)
    assert rep.mismatch < 1e-4


def test_loop_curvature_guard(aff5):
    # X_1 = e(1), X_2 = sin(pi x) f(-1): X_2 vanishes on {0, 1} x I, but
    # d_1 X_2 - d_2 X_1 - [X_1, X_2] = pi cos(pi x) f(-1) - sin(pi x) h(0)
    hom = FlatHomotopy(X1=lambda x, y: E1,
                       X2=lambda x, y: np.sin(np.pi * x) * FM1,
                       d2X1=lambda x, y: LoopAlgebraElement(),
                       d1X2=lambda x, y: np.pi * np.cos(np.pi * x) * FM1)
    assert hom.boundary_residual() < 1e-15
    assert hom.curvature_residual() > 6
    with pytest.raises(CurvatureTooLarge):
        holonomy_phase(aff5, hom)


def nan_homotopy(lo, hi):
    """The k = 2 shrinking loop with X_1 nan for lo <= x < hi."""
    hom = shrinking_loop_homotopy(k=2)
    X1 = hom.X1
    return dataclasses.replace(
        hom, X1=lambda x, y: (float("nan") * X1(x, y) if lo <= x < hi
                              else X1(x, y)))


@pytest.fixture(scope="module")
def vir4():
    return build_module(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 4))


@pytest.fixture
def capped_nodes(monkeypatch):
    """Stop holonomy_phase's node doubling past 40 nodes per axis."""
    gauss = grouprep._gauss_2d

    def capped(f, n):
        if n > 40:
            raise RuntimeError(f"quadrature still doubling at {n} nodes")
        return gauss(f, n)

    monkeypatch.setattr(grouprep, "_gauss_2d", capped)


def test_holonomy_nan_homotopy_fails_the_guard(vir4, capped_nodes):
    # a nan curvature is not below CURVATURE_TOL
    hom = nan_homotopy(0.9, np.inf)
    with pytest.raises(CurvatureTooLarge, match="nan"):
        holonomy_phase(vir4, hom)
    assert np.isnan(hom.curvature_residual())


def test_holonomy_nan_quadrature_names_the_nodes(vir4, capped_nodes):
    # nan only between the checker's nodes: the guards pass, the 5-node
    # grid (last node 0.953) misses it and the 10-node grid (node 0.933)
    # is the first to meet it
    hom = nan_homotopy(0.91, 0.95)
    assert hom.curvature_residual() < 1e-12
    with pytest.raises(ValueError, match="10 nodes per axis"):
        holonomy_phase(vir4, hom)


@pytest.mark.parametrize("window", [1, 3])
def test_holonomy_magnus4_matches_step_scheme(vir8, window):
    # the measured phase is the window trace of U_{p1} U_{p0}^*, built from
    # the boundary propagators; an independent DOP853 solve of the window
    # columns along the reversed p0 and then p1 gives the same trace
    from scipy.integrate import solve_ivp
    hom = shrinking_loop_homotopy(k=2)
    d = int((vir8.level_of() <= window).sum())
    assert d == int(vir8.offsets[window + 1])

    P0, P1 = (product_integral(vir8, hom.boundary_path(y), np.eye(vir8.dim),
                               tol=1e-7) for y in (0.0, 1.0))
    magnus = np.trace((P1.matrix @ P0.matrix.conj().T)[:d, :d]) / d

    W = np.eye(vir8.dim, d, dtype=complex)
    for path in (hom.boundary_path(0.0).reversed(), hom.boundary_path(1.0)):
        sol = solve_ivp(
            lambda t, y: (vir8.pi(path(t)) @ y.reshape(W.shape)).ravel(),
            path.interval, W.ravel(), method="DOP853", rtol=1e-12,
            atol=1e-13)
        W = sol.y[:, -1].reshape(W.shape)
    assert abs(magnus - np.trace(W[:d, :d]) / d) < 1e-6
    assert magnus == pytest.approx(
        holonomy_phase(vir8, hom, window=window).measured, abs=1e-12)


@pytest.mark.parametrize("name", ["vir8", "vir12"])
def test_vector_consumers_match_dense(request, name):
    # holonomy_phase propagates only its window columns; at equal step
    # counts it equals the dense magnus4 products
    rep = request.getfixturevalue(name)
    hom = shrinking_loop_homotopy(k=2)

    def run():
        h = holonomy_phase(rep, hom)
        return [h.measured, h.deviation]

    vector = run()
    with dense_at_vector_steps():
        dense = run()
    assert np.abs(np.subtract(vector, dense)).max() < 1e-12


@pytest.mark.parametrize("name", ["vir8", "vir12"])
def test_holonomy_matches_dense_window_trace(request, name):
    # the propagators of V = I refine on every coordinate column, the window
    # columns alone may stop a level earlier: they agree within tol
    rep = request.getfixturevalue(name)
    hom = shrinking_loop_homotopy(k=2)
    tol = 1e-7
    P0, P1 = (product_integral(rep, hom.boundary_path(y), np.eye(rep.dim),
                               tol=tol) for y in (0.0, 1.0))
    dense, _ = scalar_part(rep, P1.matrix @ P0.matrix.conj().T, 3)
    assert abs(holonomy_phase(rep, hom, tol=tol).measured - dense) < tol


def _real_loop_element():
    a, b = 0.3 + 0.2j, 0.1
    return LoopAlgebraElement({
        1: (a, b, 0.5 * a), -1: (-0.5 * a.conjugate(), -b, -a.conjugate())})


@pytest.mark.parametrize("rep_name, element", [
    ("vir8", FourierVectorField({1: 0.3, -1: 0.3, 2: 0.1j, -2: -0.1j})),
    ("aff5", _real_loop_element()),
    ("aff5", FourierVectorField({1: 0.2 - 0.1j, -1: 0.2 + 0.1j})),
    ("su2", np.array([0.4, -0.2, 0.9])),
])
def test_representation_protocol(request, rep_name, element):
    # every representation serves product_integral, SobolevScale and its
    # own seminorms through the same methods
    rep = (FinDimRep((0.5, 1.5)) if rep_name == "su2"
           else request.getfixturevalue(rep_name))
    P = product_integral(rep, GeneratorPath.constant(element),
                         np.eye(rep.dim))
    np.testing.assert_allclose(P.matrix, expm(rep.pi(element)), atol=1e-9)
    assert SobolevScale(rep).diag.shape == (rep.dim,)
    for t in (0, 1, 2):
        for value in (rep.seminorm(element, t), rep.a_seminorm(element, t)):
            assert np.isfinite(value) and value >= 0


# ---------------------------------------------------------------------------
# phase charts, local and extension cocycles


def omega_chart(rep):
    xi = np.zeros(rep.dim, dtype=complex)
    xi[0] = 1.0
    return PhaseChart(xi)


def test_phase_chart_validation(vir8):
    with pytest.raises(ValueError):
        PhaseChart(np.ones(vir8.dim, dtype=complex))


def test_phase_function_basics(vir8):
    chart = omega_chart(vir8)
    assert phase_function(chart, np.eye(vir8.dim)) == pytest.approx(1.0)
    th = 0.83
    z = phase_function(chart, np.exp(1j * th) * np.eye(vir8.dim))
    assert z == pytest.approx(np.exp(1j * th), abs=1e-14)
    # equivariance on a generic unitary
    U = expm(vir8.pi(FourierVectorField({1: 0.3, -1: 0.3})))
    assert (phase_function(chart, np.exp(1j * th) * U)
            == pytest.approx(np.exp(1j * th) * phase_function(chart, U)))


def test_phase_function_outside_chart(vir8):
    chart = omega_chart(vir8)
    U = np.eye(vir8.dim, dtype=complex)
    U[[0, 1]] = U[[1, 0]]          # swaps the basepoint off itself
    with pytest.raises(OutsideChart):
        phase_function(chart, U)


def test_local_cocycle_trivial_and_modulus(vir8):
    chart = omega_chart(vir8)
    U = expm(vir8.pi(FourierVectorField({2: 0.4, -2: 0.4})))
    assert local_cocycle(chart, np.eye(vir8.dim), U) == pytest.approx(1.0)
    assert local_cocycle(chart, U, np.eye(vir8.dim)) == pytest.approx(1.0)
    V = expm(vir8.pi(FourierVectorField({1: 0.2j, -1: -0.2j})))
    assert abs(local_cocycle(chart, U, V)) == pytest.approx(1.0, abs=1e-13)


def test_local_cocycle_rotation_mobius(vir8):
    # a rotation flow and a Moebius flow: the basepoint Omega is an
    # eigenvector of the rotation, so the multiplier is exactly 1
    chart = omega_chart(vir8)
    Ug = expm(0.9 * vir8.pi(FourierVectorField({0: 1.0})))
    Uh = expm(vir8.pi(FourierVectorField({1: 0.4, -1: 0.4})))
    assert local_cocycle(chart, Ug, Uh) == pytest.approx(1.0, abs=1e-6)


def test_local_cocycle_rescaling_invariance(vir8):
    chart = omega_chart(vir8)
    Ug = expm(vir8.pi(FourierVectorField({2: 0.3, -2: 0.3})))
    Uh = expm(vir8.pi(FourierVectorField({2: 0.2j, -2: -0.2j})))
    c0 = local_cocycle(chart, Ug, Uh)
    assert abs(c0 - 1.0) > 1e-3     # nontrivial value
    rng = np.random.default_rng(31)
    for _ in range(10):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        c = local_cocycle(chart, np.exp(1j * a) * Ug, np.exp(1j * b) * Uh)
        assert abs(c - c0) < 1e-13


def test_extension_cocycle_antisymmetry(vir8):
    chart = omega_chart(vir8)
    X = FourierVectorField({2: 1.0, -2: 1.0})
    rep = extension_cocycle_check(vir8, chart, X, X)
    assert rep["measured"] == 0.0 and rep["expected"] == 0.0


def test_extension_cocycle_coboundary(vir8):
    # Moebius span: B = 0 and the value is the pure coboundary term
    chart = omega_chart(vir8)
    X = FourierVectorField({1: 1.0, -1: 1.0})
    Y = FourierVectorField({1: 1j, -1: -1j})
    rep = extension_cocycle_check(vir8, chart, Y, X)
    # [Y, X] = -4 e_0 here and (pi(e_0) Omega, Omega) = i h
    assert rep["expected"] == pytest.approx(-4 * (1 / 16), abs=1e-12)
    assert rep["difference"] < 1e-3


def test_extension_cocycle_e2(vir8):
    chart = omega_chart(vir8)
    X = FourierVectorField({2: 1.0, -2: 1.0})
    Y = FourierVectorField({2: 1j, -2: -1j})
    rep = extension_cocycle_check(vir8, chart, Y, X)
    assert rep["difference"] < 1e-3
    assert abs(rep["expected"]) > 0.5      # genuinely nontrivial


@pytest.mark.parametrize("lam", [0, 1])
def test_extension_cocycle_heisenberg_loops(lam):
    # [v, u] = 0, so the value is B(v, u) = -4 ell alone
    mod = build_module(affine_spec(1, lam, 4))
    rep = extension_cocycle_check(mod, omega_chart(mod), HEIS_V, HEIS_U)
    assert rep["expected"] == pytest.approx(-4.0, abs=1e-12)
    assert rep["difference"] < 1e-9


@pytest.mark.parametrize("lam, expected", [(0, -2.0), (1, -4.0)])
def test_extension_cocycle_sl2_loops(lam, expected):
    # Y = i(e(1) + f(-1)), X = e(1) - f(-1): B(Y, X) = -2 ell, and
    # [Y, X] = -2i h(0) adds -i (pi(-2i h(0)) Omega, Omega) = -2 lam
    mod = build_module(affine_spec(1, lam, 4))
    rep = extension_cocycle_check(mod, omega_chart(mod), 1j * (E1 + FM1),
                                  E1 - FM1)
    assert rep["expected"] == pytest.approx(expected, abs=1e-12)
    assert rep["difference"] < 1e-5
