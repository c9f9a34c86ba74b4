import numpy as np
import pytest
from scipy.linalg import expm

from conftest import dense_at_vector_steps
from prodexp.grouprep import (BoundaryViolation, CirclePath, CurvatureTooLarge,
                              FlatHomotopy, NonMonotone, OutsideChart,
                              PhaseChart, exponentiate_path,
                              extension_cocycle_check, flat_section,
                              holonomy_phase, local_cocycle, log_derivative,
                              phase_function, scalar_part,
                              shrinking_loop_homotopy, verify_up_properties)
from prodexp.liealg import (CentralElement, FourierVectorField,
                            LoopAlgebraElement, sl2_chevalley)
from prodexp.nelson import FinDimRep
from prodexp.prodint import GeneratorPath, product_integral
from prodexp.scale import SobolevScale


def mobius_diffeo(eps=0.2, grid_size=64):
    """phi(t, theta) = theta + t * eps * sin(theta)."""
    return CirclePath(
        coeff=lambda t: {1: -0.5j * eps * t, -1: 0.5j * eps * t},
        dcoeff=lambda t: {1: -0.5j * eps, -1: 0.5j * eps},
        grid_size=grid_size)


def oscillator(scale=0.25):
    def f(t):
        a = scale * np.exp(1j * t)
        return CentralElement(FourierVectorField({1: a, -1: a.conjugate()}))
    return GeneratorPath(f, (0.0, 1.0))


# ---------------------------------------------------------------------------
# CirclePath and log_derivative


def test_circle_path_validation():
    with pytest.raises(ValueError):
        CirclePath()
    with pytest.raises(ValueError):
        CirclePath(generator=oscillator(),
                   coeff=lambda t: {}, dcoeff=lambda t: {})
    with pytest.raises(ValueError):
        CirclePath(coeff=lambda t: {0: 1.0}, dcoeff=None)
    with pytest.raises(ValueError):
        CirclePath(coeff=lambda t: {}, dcoeff=lambda t: {}, grid_size=48)
    with pytest.raises(ValueError):        # phi(t0) must be the identity
        CirclePath(coeff=lambda t: {0: 1.0}, dcoeff=lambda t: {0: 1.0})


def test_generator_form_passthrough():
    gen = oscillator()
    path = CirclePath(generator=gen, interval=gen.interval)
    assert path.form == "generator"
    assert log_derivative(path) is gen


def test_rotation_log_derivative():
    gen = log_derivative(CirclePath.rotation(2 * np.pi))
    for t in (0.0, 0.3, 1.0):
        X = gen(t)
        assert set(X.base.coeffs) == {0}
        assert X.base.coeffs[0] == pytest.approx(2 * np.pi, abs=1e-12)


def test_mobius_log_derivative_at_zero():
    eps = 0.15
    gen = log_derivative(mobius_diffeo(eps))
    X = gen(0.0)
    # d_t phi(0, theta) = eps sin(theta) = eps (e^{i th} - e^{-i th})/(2i)
    assert X.base.coeffs[1] == pytest.approx(-0.5j * eps, abs=1e-12)
    assert X.base.coeffs[-1] == pytest.approx(0.5j * eps, abs=1e-12)
    assert all(abs(c) < 1e-12 for n, c in X.base.coeffs.items()
               if n not in (1, -1))


def test_mobius_log_derivative_consistency():
    # X(t)(phi(t, s)) = d_t phi(t, s): evaluate the fitted field at pushed-
    # forward angles and compare with the closed form of the velocity
    eps, t = 0.2, 0.7
    gen = log_derivative(mobius_diffeo(eps))
    X = gen(t)
    for s in np.linspace(0.0, 2 * np.pi, 11):
        angle = s + t * eps * np.sin(s)
        val = sum(c * np.exp(1j * n * angle) for n, c in X.base.coeffs.items())
        assert val.real == pytest.approx(eps * np.sin(s), abs=1e-9)
        assert abs(val.imag) < 1e-9


def test_log_derivative_nonmonotone():
    path = CirclePath(coeff=lambda t: {1: 0.6 * t, -1: 0.6 * t},
                      dcoeff=lambda t: {1: 0.6, -1: 0.6}, grid_size=64)
    gen = log_derivative(path)
    gen(0.5)                       # phi' = 1 - 1.2 t sin(theta): still fine
    with pytest.raises(NonMonotone):
        gen(1.0)


# ---------------------------------------------------------------------------
# exponentiate_path and the U_p properties


def test_rotation_propagator_phase(vir8):
    P = exponentiate_path(vir8, CirclePath.rotation(2 * np.pi), tol=1e-10)
    # L0 is diagonal: the full-turn propagator is e^{2 pi i h} Id exactly
    want = np.exp(2j * np.pi / 16)
    assert np.abs(P.matrix - want * np.eye(vir8.dim)).max() < 1e-8
    off = P.matrix - np.diag(np.diag(P.matrix))
    assert np.abs(off).max() < 1e-12
    s, dev = scalar_part(vir8, P.matrix, vir8.N)
    assert abs(s - want) < 1e-8 and dev < 1e-8


def test_trivial_path_identity(vir8):
    triv = CirclePath(coeff=lambda t: {}, dcoeff=lambda t: {}, grid_size=8)
    P = exponentiate_path(vir8, triv, tol=1e-10)
    assert np.abs(P.matrix - np.eye(vir8.dim)).max() < 1e-12


def test_mobius_unitarity(vir8):
    P = exponentiate_path(vir8, mobius_diffeo(0.2), tol=1e-6)
    assert P.unitarity_defect() < 1e-10


def test_up_properties(vir8):
    res = verify_up_properties(vir8, oscillator(0.25), tol=1e-9)
    assert res["constant-exponential"] < 1e-10
    assert res["reparametrization"] < 1e-6
    assert res["concatenation"] < 1e-8
    assert res["adjoint"] < 1e-8


# ---------------------------------------------------------------------------
# flat homotopies


def constant_homotopy(X1const, X2const):
    zero = CentralElement(FourierVectorField())
    return FlatHomotopy(X1=lambda x, y: X1const, X2=lambda x, y: X2const,
                        d2X1=lambda x, y: zero, d1X2=lambda x, y: zero)


def test_flat_section_trivial(vir8):
    zero = CentralElement(FourierVectorField())
    hom = constant_homotopy(zero, zero)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    res = flat_section(vir8, hom, xi0, nx=5, ny=5)
    assert np.abs(res.values - xi0).max() < 1e-13
    assert res.residual1 < 1e-12 and res.residual2 < 1e-12


def test_flat_section_horizontal(vir8):
    X = CentralElement(FourierVectorField({2: 0.3, -2: 0.3}))
    zero = CentralElement(FourierVectorField())
    hom = constant_homotopy(X, zero)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    res = flat_section(vir8, hom, xi0, nx=5, ny=3)
    for i, x in enumerate(res.xs):
        want = expm(x * vir8.pi(X)) @ xi0
        assert np.linalg.norm(res.values[i, -1] - want) < 1e-7


def test_flat_section_commuting(vir8):
    a, b = 0.4, -0.7
    e0 = FourierVectorField({0: 1.0})
    hom = constant_homotopy(CentralElement(a * e0), CentralElement(b * e0))
    xi0 = vir8.random_vector(np.random.default_rng(21))
    res = flat_section(vir8, hom, xi0, nx=5, ny=5)
    P = vir8.pi(e0)
    for i, x in enumerate(res.xs):
        for j, y in enumerate(res.ys):
            want = expm((a * x + b * y) * P) @ xi0
            assert np.linalg.norm(res.values[i, j] - want) < 1e-8


def test_flat_section_curvature_guard(vir8):
    X = CentralElement(FourierVectorField({1: 0.5, -1: 0.5}))
    Y = CentralElement(FourierVectorField({2: 0.5, -2: 0.5}))
    hom = constant_homotopy(X, Y)      # [X, Y] != 0 but derivatives are 0
    with pytest.raises(CurvatureTooLarge):
        flat_section(vir8, hom, np.zeros(vir8.dim), nx=3, ny=3)


def test_shrinking_loop_is_flat():
    for k in (1, 2):
        hom = shrinking_loop_homotopy(k=k)
        assert hom.curvature_residual() < 1e-12
        assert hom.boundary_residual() < 1e-14


def test_holonomy_boundary_guard(vir8):
    X = CentralElement(FourierVectorField({0: 1.0}))
    hom = constant_homotopy(X, X)
    with pytest.raises(BoundaryViolation):
        holonomy_phase(vir8, hom)


def test_holonomy_x2_zero(vir8):
    X = CentralElement(FourierVectorField({2: 0.2, -2: 0.2}))
    zero = CentralElement(FourierVectorField())
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


def test_holonomy_quadrature_evaluates_each_node_once(vir8, monkeypatch):
    # the Simpson grids 8, 16, 32, ... are nested, so the integrand is
    # evaluated once per node of the finest grid
    calls = []
    cocycle = vir8.projective_cocycle
    monkeypatch.setattr(vir8, "projective_cocycle",
                        lambda X, Y: calls.append(1) or cocycle(X, Y))
    rep = holonomy_phase(vir8, shrinking_loop_homotopy(k=2))
    assert rep.quad_panels > 8
    assert len(calls) == (rep.quad_panels + 1) ** 2


@pytest.mark.parametrize("window", [1, 3])
def test_holonomy_magnus4_matches_step_scheme(vir8, window):
    # the measured phase is the window trace of U_{p1} U_{p0}^*, built from
    # the boundary propagators; the step scheme gives the same trace
    hom = shrinking_loop_homotopy(k=2)
    d = int((vir8.level_of() <= window).sum())
    assert d == int(vir8.offsets[window + 1])

    def window_trace(rule):
        P0, P1 = (product_integral(vir8, hom.boundary_path(y), rule=rule,
                                   tol=1e-7)
                  for y in (0.0, 1.0))
        R = P1.matrix @ P0.matrix.conj().T
        return np.trace(R[:d, :d]) / d

    magnus = window_trace("magnus4")
    assert abs(magnus - window_trace("midpoint")) < 1e-6
    assert magnus == pytest.approx(
        holonomy_phase(vir8, hom, window=window).measured, abs=1e-12)


@pytest.mark.parametrize("name", ["vir8", "vir12"])
def test_vector_consumers_match_dense(request, name):
    # holonomy_phase and flat_section propagate only their vectors; at
    # equal step counts they equal the dense magnus4 products
    rep = request.getfixturevalue(name)
    hom = shrinking_loop_homotopy(k=2)
    xi0 = np.zeros(rep.dim, dtype=complex)
    xi0[0] = 1.0

    def run():
        h = holonomy_phase(rep, hom)
        return [h.measured, h.deviation], flat_section(
            rep, hom, xi0, nx=5, ny=5).values

    vector = run()
    with dense_at_vector_steps():
        dense = run()
    assert np.abs(np.subtract(vector[0], dense[0])).max() < 1e-12
    assert np.abs(vector[1] - dense[1]).max() < 1e-12


@pytest.mark.parametrize("name", ["vir8", "vir12"])
def test_holonomy_matches_dense_window_trace(request, name):
    # the dense propagators refine on every coordinate column, the window
    # columns alone may stop a level earlier: they agree within tol
    rep = request.getfixturevalue(name)
    hom = shrinking_loop_homotopy(k=2)
    tol = 1e-7
    P0, P1 = (product_integral(rep, hom.boundary_path(y), tol=tol)
              for y in (0.0, 1.0))
    dense, _ = scalar_part(rep, P1.matrix @ P0.matrix.conj().T, 3)
    assert abs(holonomy_phase(rep, hom, tol=tol).measured - dense) < tol


def _real_loop_element():
    a, b = 0.3 + 0.2j, 0.1
    return LoopAlgebraElement(sl2_chevalley(), {
        1: (a, b, 0.5 * a), -1: (-0.5 * a.conjugate(), -b, -a.conjugate())})


@pytest.mark.parametrize("rep_name, element", [
    ("vir8", FourierVectorField({1: 0.3, -1: 0.3, 2: 0.1j, -2: -0.1j})),
    ("aff5", _real_loop_element()),
    ("sug5", FourierVectorField({1: 0.2 - 0.1j, -1: 0.2 + 0.1j})),
    ("su2", np.array([0.4, -0.2, 0.9])),
])
def test_representation_protocol(request, rep_name, element):
    # every representation serves product_integral, SobolevScale and its
    # own seminorms through the same methods
    rep = (FinDimRep((0.5, 1.5)) if rep_name == "su2"
           else request.getfixturevalue(rep_name))
    P = product_integral(rep, GeneratorPath.constant(element))
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
    rep = extension_cocycle_check(vir8, chart, Y, X, step=1e-3)
    assert rep["difference"] < 1e-3
    assert abs(rep["expected"]) > 0.5      # genuinely nontrivial
