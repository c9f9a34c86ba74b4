import collections
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (dense_at_vector_steps, dense_commutator,
                      reference_step_product, safe_vector, unitarity_defect)
from prodexp import checks, prodint
from prodexp.grouprep import holonomy_phase, shrinking_loop_homotopy
from prodexp.hwmod import GradedModule, affine_spec, build_module
from prodexp.liealg import E, F, FourierVectorField, LoopAlgebraElement
from prodexp.nelson import FinDimRep
from prodexp.prodint import (GeneratorPath, MaxRefinementExceeded,
                             cumulative_simpson, dyson_expansion,
                             gateaux_derivative, product_integral,
                             solve_homogeneous, solve_inhomogeneous,
                             step_product)


def oscillating_path(scale=1.0, interval=(0.0, 1.0)):
    def f(t):
        a = scale * (np.cos(t) + 1j * np.sin(t))
        return FourierVectorField({1: a, -1: a.conjugate()})
    return GeneratorPath(f, interval)


def recording_path(interval):
    """(seen, path): a constant path that appends each time it is
    evaluated at to the list `seen`."""
    seen = []
    X = FourierVectorField({1: 0.1, -1: 0.1})
    return seen, GeneratorPath(lambda t: seen.append(t) or X, interval)


def test_step_product_rules(vir8):
    V = np.eye(vir8.dim, 1)
    with pytest.raises(ValueError):
        step_product(vir8, oscillating_path(), 4, V, rule="right")
    # the left rule samples each of the n uniform steps at its left end
    seen, path = recording_path((0.0, 1.0))
    step_product(vir8, path, 4, V, "left")
    np.testing.assert_allclose(seen, [0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("rule", prodint.RULES)
def test_step_product_evaluates_its_path_at_floats(vir8, rule):
    # plain floats, not numpy scalars, so that a path's closed forms and
    # the step's h and w stay out of numpy's per-scalar arithmetic
    seen, path = recording_path((0.0, 1.0))
    step_product(vir8, path, 4, np.eye(vir8.dim, 1), rule)
    assert len(seen) == (8 if rule == "magnus4" else 4)
    assert all(type(t) is float for t in seen)


def test_catalog_oscillator_has_complex_coefficients():
    for t in (0.0, 0.3, 1.0):
        X = checks._oscillator(0.3)(t)
        assert set(X.coeffs) == {1, -1}
        assert all(type(c) is complex for c in X.coeffs.values())


@pytest.mark.parametrize("rule, amplitude", [
    ("magnus4", float("nan")), ("magnus4", 1e300), ("left", float("nan")),
    ("left", 1e300)])
def test_non_finite_step_exponent_is_named(vir8, rule, amplitude):
    # the path blows up from t = 0.5 on: the error names the first step
    # whose exponent is not finite, or whose 1-norm would take more than
    # MAX_STEPS Taylor substeps, its start and its 1-norm (magnus4's
    # commutator turns 1e300 into nan, the left rule's norm stays finite)
    norm = ("nan" if rule == "magnus4" or amplitude != 1e300
            else r"\d\.\d+e\+300")

    def f(t):
        a = amplitude * t if t >= 0.5 else 0.1
        return FourierVectorField({1: a, -1: a})
    with pytest.raises(ValueError,
                       match=rf"^{rule} step 2 of 4 at t=0\.5: .* {norm}$"):
        step_product(vir8, GeneratorPath(f), 4, np.eye(vir8.dim, 2), rule)


@pytest.mark.parametrize("rule", prodint.RULES)
def test_product_integral_returns_the_accepted_step_product(vir8, rule):
    # the refined block is the step product at the accepted step count,
    # bit for bit, and nothing else
    V = np.eye(vir8.dim, 3, dtype=complex)
    P = product_integral(vir8, oscillating_path(scale=0.3), V, tol=1e-3,
                         rule=rule)
    assert P.steps == P.refinement_error[-1][0]
    np.testing.assert_array_equal(
        P.matrix, step_product(vir8, oscillating_path(scale=0.3), P.steps, V,
                               rule))


def test_cumulative_simpson_polynomial():
    # exact for cubics
    x = np.linspace(0, 2, 41)
    vals = x ** 3 - 2 * x + 1
    want = x ** 4 / 4 - x ** 2 + x
    got = cumulative_simpson(vals, x[1] - x[0])
    # composite Simpson is cubic-exact at even nodes; odd nodes are O(h^4)
    np.testing.assert_allclose(got[::2], want[::2], atol=1e-12)
    np.testing.assert_allclose(got, want, atol=1e-5)
    # fourth-order on smooth data
    errs = []
    for n in (16, 32):
        x = np.linspace(0, 1, n + 1)
        got = cumulative_simpson(np.exp(x), x[1] - x[0])[-1]
        errs.append(abs(got - (np.e - 1)))
    assert errs[0] / errs[1] > 12


def test_constant_path_exact(vir8):
    X = FourierVectorField({1: 0.3 + 0.2j, -1: 0.3 - 0.2j,
                            2: 0.1, -2: 0.1})
    P = product_integral(vir8, GeneratorPath.constant(X), np.eye(vir8.dim),
                         tol=1e-9, rule="left")
    assert np.abs(P.matrix - expm(vir8.pi(X))).max() < 1e-13


def test_diagonal_family(vir8):
    # path through multiples of e_0 only: exp of the integral
    path = GeneratorPath(lambda t: FourierVectorField({0: np.sin(t)}), (0, 1))
    P = product_integral(vir8, path, np.eye(vir8.dim), tol=1e-11)
    integral = 1 - np.cos(1.0)
    want = expm(integral * vir8.pi(FourierVectorField({0: 1.0})))
    assert np.abs(P.matrix - want).max() < 1e-9


def test_first_order_convergence(vir8):
    path = oscillating_path()
    eye = np.eye(vir8.dim)
    ref = product_integral(vir8, path, eye, tol=1e-9).matrix
    ns = np.array([8, 16, 32, 64, 128, 256])
    errs = [np.linalg.norm(step_product(vir8, path, int(n), eye, "left")
                           - ref, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_refinement_within_bound(vir8):
    P = product_integral(vir8, oscillating_path(), np.eye(vir8.dim),
                         tol=5e-3, r=1, rule="left")
    assert len(P.refinement_error) >= 2
    for n, emp, bound in P.refinement_error:
        assert emp <= bound


def test_max_refinement(vir8, monkeypatch):
    from prodexp import checks, prodint
    monkeypatch.setattr(prodint, "MAX_STEPS", 64)
    with pytest.raises(MaxRefinementExceeded):
        product_integral(vir8, oscillating_path(), np.eye(vir8.dim),
                         tol=1e-14, n0=4, rule="left")


def test_unitarity_and_inversion(vir8):
    path = oscillating_path(scale=0.4)
    eye = np.eye(vir8.dim)
    P = product_integral(vir8, path, eye, tol=1e-9)
    assert unitarity_defect(P.matrix) < 1e-10
    Pinv = product_integral(vir8, path.reversed(), P.matrix, tol=1e-9)
    assert np.abs(Pinv.matrix - eye).max() < 1e-9


def test_semigroup(vir8):
    f = oscillating_path(scale=0.4).func
    kw = dict(tol=1e-9)
    eye = np.eye(vir8.dim)
    P = product_integral(vir8, GeneratorPath(f, (0, 1)), eye, **kw)
    Pa = product_integral(vir8, GeneratorPath(f, (0, 0.4)), eye, **kw)
    Pb = product_integral(vir8, GeneratorPath(f, (0.4, 1)), Pa.matrix, **kw)
    assert np.abs(Pb.matrix - P.matrix).max() < 1e-9


def test_homogeneous_diagonal_phase(vir8):
    path = GeneratorPath.constant(FourierVectorField({0: 1.0}), (0, 1))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    traj = solve_homogeneous(vir8, path, xi0, np.linspace(0, 1, 5), tol=1e-10)
    # e_0 acts as i(h0 + k): the lowest vector picks up phase e^{i h0 t}
    want = np.exp(1j * (1 / 16))
    assert abs(traj[-1][0] - want) < 1e-9


def test_homogeneous_norm_and_reversal(vir8):
    rng = np.random.default_rng(12)
    path = oscillating_path(scale=0.5)
    xi0 = rng.normal(size=vir8.dim) + 1j * rng.normal(size=vir8.dim)
    xi0[vir8.safe_dim(4):] = 0
    xi0 /= np.linalg.norm(xi0)
    grid = np.linspace(0, 1, 17)
    traj = solve_homogeneous(vir8, path, xi0, grid, tol=1e-9)
    assert np.abs(np.linalg.norm(traj, axis=1) - 1).max() < 1e-9
    back = solve_homogeneous(vir8, path.reversed(), traj[-1],
                             grid, tol=1e-9)
    assert np.linalg.norm(back[-1] - xi0) < 1e-9


def test_homogeneous_residual(vir8):
    path = oscillating_path(scale=0.3)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 129)
    traj = solve_homogeneous(vir8, path, xi0, grid, tol=1e-9)
    h = grid[1] - grid[0]
    worst = 0.0
    for i in range(1, len(grid) - 1):
        lhs = (traj[i + 1] - traj[i - 1]) / (2 * h)
        rhs = vir8.pi(path(grid[i])) @ traj[i]
        worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst < 1e-4


def test_homogeneous_one_segment_is_product_integral(vir8):
    # the first segment starts at 4 steps, as product_integral(n0=4) does
    path = oscillating_path(scale=0.3)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    traj = solve_homogeneous(vir8, path, xi0, [0.0, 1.0], tol=1e-9)
    P = product_integral(vir8, path, xi0[:, None], tol=1e-9, n0=4)
    assert np.array_equal(traj[-1], P.matrix[:, 0])


def test_homogeneous_carries_the_start_level(vir8, monkeypatch):
    # the ode-residual row's problem: restarting every segment at 4
    # steps takes 1,536; starting each segment at the previous one's
    # converged level takes about a quarter of that
    from prodexp import checks, prodint
    steps = []
    step = prodint.step_product

    def counting(rep, path, n, *args, **kw):
        steps.append(n)
        return step(rep, path, n, *args, **kw)

    monkeypatch.setattr(prodint, "step_product", counting)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    solve_homogeneous(vir8, oscillating_path(scale=0.3), xi0,
                      np.linspace(0, 1, 129), tol=1e-9)
    assert sum(steps) <= 512


def test_homogeneous_burst_matches_ode_reference(vir8):
    # a burst at t = 0.6 on a quiet path: the segments refine up into it
    # and back down after it, each still passing its own comparison
    def burst(t):
        a = 0.01 + 3.0 * np.exp(-((t - 0.6) / 0.01) ** 2)
        return FourierVectorField({1: 0.2, -1: 0.2, 2: a, -2: a})

    path = GeneratorPath(burst, (0.0, 1.0))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 129)
    traj = solve_homogeneous(vir8, path, xi0, grid, tol=1e-9)
    ref = ode_reference(lambda t, y: vir8.pi(path(t)) @ y, xi0, grid)
    assert np.abs(traj - ref).max() < 1e-9


def test_inhomogeneous_zero_source(vir8):
    path = oscillating_path(scale=0.3)
    traj = solve_inhomogeneous(vir8, path,
                               lambda t: np.zeros(vir8.dim, dtype=complex),
                               np.linspace(0, 1, 17), tol=1e-8)
    assert np.abs(traj).max() == 0


def test_inhomogeneous_zero_generator(vir8):
    # X = 0: J(t) = int_0^t eta
    path = GeneratorPath(lambda t: FourierVectorField(), (0, 1))
    e0 = np.zeros(vir8.dim, dtype=complex)
    e0[0] = 1.0
    grid = np.linspace(0, 1, 33)
    traj = solve_inhomogeneous(vir8, path, lambda t: np.sin(t) * e0,
                               grid, tol=1e-8)
    # each segment stops when a doubling moves J by less than tol; the
    # fourth-order Gauss nodes leave far less than that
    np.testing.assert_allclose(traj[:, 0], 1 - np.cos(grid), atol=1e-12)


def test_inhomogeneous_residual(vir8):
    rng = np.random.default_rng(13)
    path = oscillating_path(scale=0.3)
    d = vir8.safe_dim(3)
    w = np.zeros(vir8.dim, dtype=complex)
    w[:d] = rng.normal(size=d) + 1j * rng.normal(size=d)
    w /= np.linalg.norm(w)

    def eta(t):
        return np.cos(2 * t) * w

    grid = np.linspace(0, 1, 129)
    traj = solve_inhomogeneous(vir8, path, eta, grid, tol=1e-9)
    assert np.linalg.norm(traj[0]) == 0
    h = grid[1] - grid[0]
    worst = 0.0
    for i in range(1, len(grid) - 1, 4):
        lhs = (traj[i + 1] - traj[i - 1]) / (2 * h)
        rhs = vir8.pi(path(grid[i])) @ traj[i] + eta(grid[i])
        worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst < 1e-4


def ode_reference(rhs, y0, grid):
    """DOP853 solution of y' = rhs(t, y) at every grid time (rows)."""
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, t_eval=grid,
                    method="DOP853", rtol=1e-12, atol=1e-13)
    return sol.y.T


def test_inhomogeneous_matches_ode_reference(vir8):
    # the inhomogeneous-residual row's problem
    w = safe_vector(np.random.default_rng(13), vir8, 3)
    path = oscillating_path(scale=0.3)
    grid = np.linspace(0, 1, 129)
    traj = solve_inhomogeneous(vir8, path, lambda t: np.cos(2 * t) * w,
                               grid, tol=1e-9)
    ref = ode_reference(
        lambda t, y: vir8.pi(path(t)) @ y + np.cos(2 * t) * w,
        np.zeros(vir8.dim, dtype=complex), grid)
    assert np.abs(traj - ref).max() < 1e-10


def test_gateaux_matches_ode_reference(vir8):
    # J is the second half of the variational system
    # (xi, J)' = (pi(X) xi, pi(X) J + pi(delta) xi) from (xi0, 0)
    path = oscillating_path(scale=0.3)
    delta = GeneratorPath(lambda t: FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)}), (0, 1))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 65)
    traj = gateaux_derivative(vir8, path, xi0, delta, grid, tol=1e-9)
    d = vir8.dim

    def rhs(t, y):
        P = vir8.pi(path(t))
        return np.concatenate([P @ y[:d],
                               P @ y[d:] + vir8.pi(delta(t)) @ y[:d]])

    ref = ode_reference(rhs, np.concatenate([xi0, np.zeros(d)]), grid)
    assert np.abs(traj - ref[:, d:]).max() < 1e-10


def test_gateaux_zero_direction(vir8):
    path = oscillating_path(scale=0.3)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    zero = GeneratorPath(lambda t: FourierVectorField(), (0, 1))
    traj = gateaux_derivative(vir8, path, xi0, zero, np.linspace(0, 1, 17))
    assert np.abs(traj).max() < 1e-12


def test_gateaux_constant_selfdirection(vir8):
    # d/ds e^{t pi((1+s)X)}|_0 xi = t pi(X) e^{t pi(X)} xi
    X = FourierVectorField({1: 0.4, -1: 0.4})
    path = GeneratorPath.constant(X, (0, 1))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 65)
    traj = gateaux_derivative(vir8, path, xi0, path, grid, tol=1e-9)
    P = vir8.pi(X)
    want = 1.0 * P @ (expm(1.0 * P) @ xi0)
    assert np.linalg.norm(traj[-1] - want) < 1e-6


def test_gateaux_matches_central_difference(vir8):
    path = oscillating_path(scale=0.3)
    delta = GeneratorPath(lambda t: FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)}), (0, 1))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 65)
    traj = gateaux_derivative(vir8, path, xi0, delta, grid, tol=1e-9)
    eps = 1e-4
    kw = dict(tol=1e-10)

    def shifted(s):
        return GeneratorPath(lambda t: path(t) + s * delta(t), (0, 1))

    plus = solve_homogeneous(vir8, shifted(eps), xi0, grid, **kw)
    minus = solve_homogeneous(vir8, shifted(-eps), xi0, grid, **kw)
    fd = (plus[-1] - minus[-1]) / (2 * eps)
    rel = np.linalg.norm(traj[-1] - fd) / np.linalg.norm(fd)
    assert rel < 1e-5


def test_dyson_low_orders(vir8):
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    path = oscillating_path()
    assert np.array_equal(dyson_expansion(vir8, path, xi0, 0), [xi0])
    X = FourierVectorField({1: 0.5, -1: 0.5})
    cpath = GeneratorPath.constant(X, (0, 1))
    psi = dyson_expansion(vir8, cpath, xi0, 2)
    assert psi.shape == (3, vir8.dim)
    assert np.array_equal(psi[0], xi0)
    # psi_j = pi(X)^j xi0 / j! for a constant path
    assert np.linalg.norm(psi[1] - vir8.pi(X) @ xi0) < 1e-10
    assert np.linalg.norm(psi[2] - vir8.pi(X) @ psi[1] / 2) < 1e-10


def oscillator_propagator(rep, h, xi0):
    """xi(1) for xi' = h pi(X(t)) xi on `oscillating_path()`, in closed
    form: pi(X(t)) = e^{-t pi(e_0)} pi(X(0)) e^{t pi(e_0)}, so
    xi(1) = e^{-pi(e_0)} e^{pi(e_0 + h X(0))} xi0."""
    e0 = FourierVectorField({0: 1.0})
    X0 = oscillating_path()(0.0)
    return prodint.exponential(rep, -e0) @ (
        prodint.exponential(rep, e0 + h * X0) @ xi0)


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_oscillator_rotating_frame(vir8, t):
    # pi(e_0) = i L_0 is diagonal and pi(e_n) lowers the level by n, so
    # conjugating by e^{t pi(e_0)} multiplies pi(e_n) by e^{int}
    P = vir8.pi(FourierVectorField({0: 1.0}))
    path = oscillating_path()
    want = expm(-t * P) @ vir8.pi(path(0.0)) @ expm(t * P)
    assert np.abs(vir8.pi(path(t)) - want).max() < 1e-13


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.025])
def test_oscillator_propagator_matches_ode(vir8, h):
    from scipy.integrate import solve_ivp
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    path = oscillating_path()
    sol = solve_ivp(lambda t, y: h * (vir8.pi(path(t)) @ y), (0, 1), xi0,
                    rtol=1e-12, atol=1e-13)
    got = oscillator_propagator(vir8, h, xi0)
    assert np.abs(got - sol.y[:, -1]).max() < 1e-11


def test_dyson_order_scaling(vir8):
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    psi = dyson_expansion(vir8, oscillating_path(), xi0, 3)
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    exact = [oscillator_propagator(vir8, h, xi0) for h in hs]
    for k in (1, 2, 3):
        errs = [np.linalg.norm(sum(h ** j * psi[j] for j in range(k + 1))
                               - want) for h, want in zip(hs, exact)]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(k + 1, abs=0.15), (k, slope)


def test_change_of_variable(vir8):
    # the product integral of X over phi([0, 1]) against that of
    # phi' . (X o phi) over [0, 1], in operator norm
    path = oscillating_path(scale=0.4)

    def change(phi, dphi, tol):
        eye = np.eye(vir8.dim)
        direct = product_integral(
            vir8, GeneratorPath(path.func, (phi(0), phi(1))), eye, tol=tol)
        pulled = product_integral(
            vir8, GeneratorPath(lambda s: dphi(s) * path(phi(s)), (0, 1)),
            eye, tol=tol)
        return np.linalg.norm(direct.matrix - pulled.matrix, 2)

    assert change(lambda s: s, lambda s: 1.0, 1e-6) < 1e-12
    assert change(lambda s: 0.2 + 0.6 * s, lambda s: 0.6, 1e-6) < 1e-9
    assert change(lambda s: s ** 2, lambda s: 2 * s, 1e-7) < 1e-6


# ---------------------------------------------------------------------------
# the fourth-order Magnus rule


def test_magnus4_gauss_nodes(vir8):
    # the rule samples the path at the two Gauss-Legendre nodes of each
    # interval, in time order, and nowhere else
    seen, path = recording_path((0.0, 1.5))
    step_product(vir8, path, 2, np.eye(vir8.dim, 1))
    c = np.sqrt(3) / 6
    np.testing.assert_allclose(seen, [0.75 * (0.5 - c), 0.75 * (0.5 + c),
                                      0.75 + 0.75 * (0.5 - c),
                                      0.75 + 0.75 * (0.5 + c)])


def test_magnus4_fourth_order(vir8):
    path = oscillating_path()
    eye = np.eye(vir8.dim)
    ref = step_product(vir8, path, 1024, eye)
    ns = np.array([8, 16, 32, 64])
    errs = [np.linalg.norm(step_product(vir8, path, int(n), eye)
                           - ref, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.3)


def test_magnus4_unitary(vir8):
    P = product_integral(vir8, oscillating_path(), np.eye(vir8.dim),
                         tol=1e-10)
    assert P.steps >= 64
    assert unitarity_defect(P.matrix) < 1e-13


# real Fourier fields on modes 1-3: a_{-n} = conj(a_n), so pi(X) is
# skew-Hermitian
_COEFF = st.complex_numbers(max_magnitude=0.5, allow_nan=False,
                            allow_infinity=False)
_REAL_FIELD = st.dictionaries(st.integers(1, 3), _COEFF, min_size=1).map(
    lambda c: FourierVectorField(
        {**c, **{-n: a.conjugate() for n, a in c.items()}}))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_REAL_FIELD, _REAL_FIELD)
def test_magnus4_real_fields_unitary(vir8, F, G):
    # the path t -> F + t G: every magnus4 exponent is skew-Hermitian, so
    # the product is unitary
    path = GeneratorPath(lambda t: F + t * G)
    assert unitarity_defect(
        step_product(vir8, path, 8, np.eye(vir8.dim))) < 1e-12


def test_magnus4_constant_path_exact(vir8):
    X = FourierVectorField({1: 0.3 + 0.2j, -1: 0.3 - 0.2j,
                            2: 0.1, -2: 0.1})
    P = product_integral(vir8, GeneratorPath.constant(X), np.eye(vir8.dim),
                         tol=1e-9)
    assert np.abs(P.matrix - expm(vir8.pi(X))).max() < 1e-13


def test_magnus4_matches_ode_reference(vir8):
    from scipy.integrate import solve_ivp
    path = oscillating_path(scale=0.5)
    P = product_integral(vir8, path, np.eye(vir8.dim), tol=1e-10)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[:vir8.safe_dim(3)] = 1.0
    sol = solve_ivp(lambda t, y: vir8.pi(path(t)) @ y, (0, 1), xi0,
                    method="DOP853", rtol=1e-12, atol=1e-13)
    assert np.linalg.norm(P.matrix @ xi0 - sol.y[:, -1]) < 1e-9


def test_magnus4_records_no_step_bound(vir8):
    P = product_integral(vir8, oscillating_path(), np.eye(vir8.dim),
                         tol=5e-3, r=1)
    assert P.refinement_error
    assert all(np.isnan(bound) for _, _, bound in P.refinement_error)


# ---------------------------------------------------------------------------
# the Taylor action on a probe block


@pytest.mark.parametrize("norm", [0.05, 0.3, 1.0, 2.0, 3.0, 5.0])
def test_taylor_action_matches_expm(norm):
    from prodexp.prodint import _expm_action, _norm1, _taylor_plan
    rng = np.random.default_rng(int(norm * 100))
    d = 30
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    omega = G - G.conj().T
    omega *= norm / _norm1(omega)
    V = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
    got = _expm_action(omega.__matmul__, norm, V)
    assert np.abs(got - expm(omega) @ V).max() < 1e-13
    # one Taylor polynomial up to 2, substeps beyond
    assert (_taylor_plan(norm)[1] > 1) == (norm > 2.0)


def test_taylor_plan_remainder_below_roundoff():
    from math import factorial
    from prodexp.prodint import _THETAS, _taylor_plan
    for m, x in enumerate(_THETAS, 1):
        # at the root the bound holds with equality, up to rounding
        tail = sum(x ** k / factorial(k) for k in range(m + 1, m + 60))
        assert tail <= 2.0 ** -53 * x * (1 + 1e-12)
    assert _taylor_plan(0.0) == (0, 1)
    for norm in (1e-3, 0.1, 1.0, 10.0, 100.0):
        m, s = _taylor_plan(norm)
        assert norm / s <= _THETAS[m - 1]


@pytest.mark.parametrize("rule", ["magnus4", "left"])
def test_vector_mode_matches_dense_product(vir8, rule):
    path = oscillating_path(scale=0.5)
    rng = np.random.default_rng(5)
    V = rng.normal(size=(vir8.dim, 3)) + 1j * rng.normal(size=(vir8.dim, 3))
    dense = reference_step_product(vir8, path, 32, rule)
    vec = step_product(vir8, path, 32, V, rule)
    assert vec.shape == V.shape
    assert np.abs(vec - dense @ V).max() < 1e-12


@pytest.mark.parametrize("rule", ["magnus4", "left"])
def test_vector_mode_matches_dense_product_n16(vir16, rule):
    # the N=8 test's assertions, at equal step counts, on the N=16 module
    test_vector_mode_matches_dense_product(vir16, rule)


def test_zero_probe_column_converges(vir8):
    path = oscillating_path(scale=0.5)
    kw = dict(tol=1e-9)
    zero = product_integral(vir8, path, np.zeros((vir8.dim, 1)), **kw)
    assert zero.steps == 16 and zero.refinement_error[0][1] == 0.0
    assert not zero.matrix.any()
    V = np.zeros((vir8.dim, 2), dtype=complex)
    V[0, 1] = 1.0
    P = product_integral(vir8, path, V, **kw)
    alone = product_integral(vir8, path, V[:, 1:], **kw)
    assert P.steps == alone.steps > 16
    assert not P.matrix[:, 0].any()
    np.testing.assert_allclose(P.matrix[:, 1], alone.matrix[:, 0],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["vir8", "vir12"])
def test_vector_solvers_match_dense(request, name):
    # the homogeneous solver and the Gateaux base solve propagate one
    # vector; at equal step counts they equal the dense magnus4 product
    rep = request.getfixturevalue(name)
    path = oscillating_path(scale=0.3)
    delta = GeneratorPath(lambda t: FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)}), (0, 1))
    xi0 = np.zeros(rep.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 9)

    def solve():
        return (solve_homogeneous(rep, path, xi0, grid, tol=1e-9),
                gateaux_derivative(rep, path, xi0, delta, grid,
                                   tol=1e-9))

    vector = solve()
    with dense_at_vector_steps():
        dense = solve()
    for v, d in zip(vector, dense):
        assert np.abs(v - d).max() < 1e-12


# ---------------------------------------------------------------------------
# the magnus4 exponent from cached generator commutators


def relative_error(M, want):
    return np.abs(M - want).max() / np.abs(want).max()


def real_field(coeffs):
    """The real vector field with the given a_n for n >= 0."""
    both = dict(coeffs)
    both.update({-n: np.conj(a) for n, a in coeffs.items() if n})
    return FourierVectorField(both)


def counted(monkeypatch, owner, *names):
    """A Counter of the calls to each named attribute of owner."""
    calls = collections.Counter()

    def wrap(name, original):
        def wrapper(*args, **kw):
            calls[name] += 1
            return original(*args, **kw)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return calls


@pytest.fixture(scope="module")
def aff4():
    """Affine sl2, ell = 1, lam = 1, N = 4."""
    return build_module(affine_spec(1, 1, 4))


HEISENBERG_U = LoopAlgebraElement({1: (0, 1, 0), -1: (0, -1, 0)})
HEISENBERG_V = LoopAlgebraElement({1: (0, 1j, 0), -1: (0, 1j, 0)})


@pytest.mark.parametrize("module, X, Y, cached", [
    ("vir8", real_field({0: 0.3, 2: 0.3 + 0.1j}),
     real_field({0: -0.7, 2: 1j}), True),
    # eight modes each: 64 coefficient products, the dense fallback
    ("vir8", real_field({n: 0.2 * n + 0.1j for n in range(1, 5)}),
     real_field({n: 0.3 - 0.05j * n for n in range(1, 5)}), False),
    ("aff4", HEISENBERG_U, HEISENBERG_V, True),
    ("aff4", LoopAlgebraElement.single(E, 1), LoopAlgebraElement.single(F, -1),
     True),
], ids=["vir8-modes-0-2", "vir8-fallback", "aff4-heisenberg", "aff4-e1-f-1"])
def test_magnus_exponent_matches_dense(request, monkeypatch, module, X, Y,
                                       cached):
    rep = request.getfixturevalue(module)
    calls = counted(monkeypatch, GradedModule, "_generator_commutator")
    h, w = 0.3, 0.7
    M = rep.magnus_exponent(X, Y, h, w)
    assert bool(calls) == cached
    A1, A2 = rep.pi(X), rep.pi(Y)
    assert relative_error(M, h * (A1 + A2)
                          + w * dense_commutator(A2, A1)) < 1e-13


def stacked_generator(monkeypatch, solve):
    """The stacked representation that `solve` hands to
    solve_homogeneous (which is not run)."""
    seen = []

    def capture(rep, path, xi0, grid, tol):
        seen.append(rep)
        return np.zeros((len(grid), rep.dim), dtype=complex)

    monkeypatch.setattr(prodint, "solve_homogeneous", capture)
    solve()
    return seen[0]


def stacked_cases(rep, path, delta, w_vec):
    """(solve, dense) pairs for the Gateaux and Duhamel solvers on rep:
    solve runs the solver, dense(t) is its stacked generator at t."""
    d = rep.dim
    xi0 = np.eye(d, 1, dtype=complex)[:, 0]
    grid = [0.0, 1.0]
    zero = np.zeros((d, d))

    def gateaux(t):
        P = rep.pi(path(t))
        return np.block([[P, zero], [rep.pi(delta(t)), P]])

    def duhamel(t):
        S = np.zeros((d + 1, d + 1), dtype=complex)
        S[1:, 0], S[1:, 1:] = np.cos(2 * t) * w_vec, rep.pi(path(t))
        return S

    return [
        (lambda: gateaux_derivative(rep, path, xi0, delta, grid), gateaux),
        (lambda: solve_inhomogeneous(rep, path,
                                     lambda t: np.cos(2 * t) * w_vec, grid),
         duhamel),
    ]


def test_stacked_exponents_match_dense(vir8, monkeypatch):
    # the Gateaux coupling block is the polarization of magnus_exponent,
    # on vector fields and on su(2) coordinate arrays alike
    su2 = FinDimRep((Fraction(1, 2), Fraction(3, 2)))
    su2_w = [1, 1j] @ np.random.default_rng(3).normal(size=(2, su2.dim))
    cases = stacked_cases(
        vir8, oscillating_path(scale=0.5),
        GeneratorPath(lambda t: real_field({0: 0.1 * t, 2: 0.2 * np.sin(t)})),
        safe_vector(np.random.default_rng(2), vir8, 3))
    cases += stacked_cases(
        su2, GeneratorPath(lambda t: np.array([np.sin(3 * t), 0.8, t])),
        GeneratorPath(lambda t: np.array([0.1 * t, np.cos(t), -0.3])),
        su2_w / np.linalg.norm(su2_w))
    h, w = 0.3, 0.7
    for solve, dense in cases:
        stacked = stacked_generator(monkeypatch, solve)
        for t1, t2 in ((0.2, 0.45), (0.9, 0.1)):
            S1, S2 = dense(t1), dense(t2)
            want = h * (S1 + S2) + w * dense_commutator(S2, S1)
            assert relative_error(stacked.magnus_exponent(t1, t2, h, w),
                                  want) < 1e-13


@pytest.mark.parametrize("name", ["vir8", "vir12"])
def test_step_product_matches_reference_step(request, name):
    # holonomy_phase's top boundary path, 16 steps
    rep = request.getfixturevalue(name)
    path = shrinking_loop_homotopy().boundary_path(1.0)
    ref = reference_step_product(rep, path, 16)
    W = np.eye(rep.dim, int((rep.level_of() <= 3).sum()), dtype=complex)
    vec = step_product(rep, path, 16, W)
    assert np.abs(vec - ref @ W).max() < 1e-12


def test_warm_holonomy_forms_no_dense_commutator(vir8, monkeypatch):
    hom = shrinking_loop_homotopy()
    holonomy_phase(vir8, hom)                # fills the commutator cache
    cached = set(vir8._gen_mats)
    calls = counted(monkeypatch, GradedModule, "pi", "_combination",
                    "magnus_exponent")
    holonomy_phase(vir8, hom)
    # every step's exponent is one accumulator: no pi matrix, no dense
    # fallback (it would combine three times), no commutator recomputed
    assert calls["pi"] == 0
    assert calls["_combination"] == calls["magnus_exponent"] > 0
    assert set(vir8._gen_mats) == cached


# ---------------------------------------------------------------------------
# the dense exponential of a constant element


SU2 = FinDimRep((Fraction(1, 2), Fraction(3, 2)))


@pytest.mark.parametrize("module, X", [
    ("vir8", real_field({1: 0.3, 2: 0.2j})),
    ("vir8", real_field({0: 0.7, 3: 0.4 - 0.1j})),
    ("aff4", real_field({1: 0.4, 2: 0.1j})),
    ("aff4", LoopAlgebraElement.single(E, 1)
     - LoopAlgebraElement.single(F, -1)),
    ("aff4", 1j * (LoopAlgebraElement.single(E, 1)
                   + LoopAlgebraElement.single(F, -1))),
    ("aff4", HEISENBERG_U),
    ("aff4", HEISENBERG_V),
    ("su2", (0.3, -1.2, 0.7)),
], ids=["vir8-modes-1-2", "vir8-modes-0-3", "aff4-sugawara",
        "aff4-e1-minus-f-1", "aff4-i-e1-plus-f-1", "aff4-heisenberg-u",
        "aff4-heisenberg-v", "su2"])
def test_expm_matches_scipy(request, module, X):
    # eigh of the Hermitian i pi(X) against scipy's scaling-and-squaring
    # Pade exponential
    rep = SU2 if module == "su2" else request.getfixturevalue(module)
    A = rep.pi(X)
    got = prodint.expm(A)
    assert np.abs(got - expm(A)).max() < 1e-13
    assert unitarity_defect(got) < 1e-14


def test_expm_rejects_non_skew_hermitian(vir8):
    # pi(e_2) lowers the level by two, and its adjoint raises it
    with pytest.raises(ValueError, match="skew-Hermitian"):
        prodint.expm(vir8.pi(FourierVectorField({2: 1.0})))
