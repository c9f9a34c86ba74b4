from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy.linalg import expm

from conftest import dense_at_vector_steps, safe_vector
from prodexp.liealg import CentralElement, FourierVectorField
from prodexp.prodint import (GeneratorPath, MaxRefinementExceeded,
                             TruncationOverflow,
                             _probe_difference, change_of_variable_check,
                             cumulative_simpson, dyson_expansion,
                             gateaux_derivative, product_integral,
                             solve_homogeneous, solve_inhomogeneous,
                             step_product)


def oscillating_path(scale=1.0, interval=(0.0, 1.0)):
    def f(t):
        a = scale * (np.cos(t) + 1j * np.sin(t))
        return CentralElement(FourierVectorField({1: a, -1: a.conjugate()}))
    return GeneratorPath(f, interval)


def recording_path(interval):
    """(seen, path): a constant path that appends each time it is
    evaluated at to the list `seen`."""
    seen = []
    X = CentralElement(FourierVectorField({1: 0.1, -1: 0.1}))
    return seen, GeneratorPath(lambda t: seen.append(t) or X, interval)


def test_step_product_rules(vir8):
    with pytest.raises(ValueError):
        step_product(vir8, oscillating_path(), 4, rule="right")
    # the midpoint rule samples each of the n uniform steps at its middle
    seen, path = recording_path((0.0, 1.0))
    step_product(vir8, path, 4, "midpoint")
    np.testing.assert_allclose(seen, [0.125, 0.375, 0.625, 0.875])


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
    X = CentralElement(FourierVectorField({1: 0.3 + 0.2j, -1: 0.3 - 0.2j,
                                           2: 0.1, -2: 0.1}))
    P = product_integral(vir8, GeneratorPath.constant(X), tol=1e-9,
                         rule="left")
    assert np.abs(P.matrix - expm(vir8.pi(X))).max() < 1e-13


def test_diagonal_family(vir8):
    # path through multiples of e_0 only: exp of the integral
    path = GeneratorPath(lambda t: CentralElement(
        FourierVectorField({0: np.sin(t)})), (0, 1))
    P = product_integral(vir8, path, tol=1e-11)
    integral = 1 - np.cos(1.0)
    want = expm(integral * vir8.pi(FourierVectorField({0: 1.0})))
    assert np.abs(P.matrix - want).max() < 1e-9


def test_first_order_convergence(vir8):
    path = oscillating_path()
    ref = product_integral(vir8, path, tol=1e-9).matrix
    ns = np.array([8, 16, 32, 64, 128, 256])
    errs = [np.linalg.norm(step_product(vir8, path, int(n), "left").matrix
                           - ref, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_refinement_within_bound(vir8):
    P = product_integral(vir8, oscillating_path(), tol=5e-3, r=1,
                         rule="left")
    assert len(P.refinement_error) >= 2
    for n, emp, bound in P.refinement_error:
        assert emp <= bound


def test_max_refinement(vir8):
    with pytest.raises(MaxRefinementExceeded):
        product_integral(vir8, oscillating_path(), tol=1e-14, n0=4,
                         max_steps=64, rule="left")


def test_unitarity_and_inversion(vir8):
    path = oscillating_path(scale=0.4)
    P = product_integral(vir8, path, tol=1e-9)
    assert P.unitarity_defect() < 1e-10
    Pinv = product_integral(vir8, path.reversed(), tol=1e-9)
    assert np.abs(Pinv.matrix @ P.matrix - np.eye(vir8.dim)).max() < 1e-9


def test_semigroup(vir8):
    f = oscillating_path(scale=0.4).func
    kw = dict(tol=1e-9)
    P = product_integral(vir8, GeneratorPath(f, (0, 1)), **kw)
    Pa = product_integral(vir8, GeneratorPath(f, (0, 0.4)), **kw)
    Pb = product_integral(vir8, GeneratorPath(f, (0.4, 1)), **kw)
    assert np.abs(Pb.matrix @ Pa.matrix - P.matrix).max() < 1e-9


def test_homogeneous_diagonal_phase(vir8):
    path = GeneratorPath.constant(
        CentralElement(FourierVectorField({0: 1.0})), (0, 1))
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
    traj = solve_homogeneous(vir8, path, xi0, grid, tol=1e-9,
                             overflow_threshold=None)
    assert np.abs(traj.norms() - 1).max() < 1e-9
    back = solve_homogeneous(vir8, path.reversed(), traj[-1],
                             grid, tol=1e-9, overflow_threshold=None)
    assert np.linalg.norm(back[-1] - xi0) < 1e-9


def test_homogeneous_residual(vir8):
    path = oscillating_path(scale=0.3)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 129)
    traj = solve_homogeneous(vir8, path, xi0, grid, tol=1e-9,
                             overflow_threshold=None)
    h = grid[1] - grid[0]
    worst = 0.0
    for i in range(1, len(grid) - 1):
        lhs = (traj[i + 1] - traj[i - 1]) / (2 * h)
        rhs = vir8.pi(path(grid[i])) @ traj[i]
        worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst < 1e-4


def test_truncation_overflow(vir8):
    path = GeneratorPath.constant(
        CentralElement(FourierVectorField({1: 3.0, -1: 3.0})), (0, 1))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    with pytest.raises(TruncationOverflow):
        solve_homogeneous(vir8, path, xi0, np.linspace(0, 1, 9), tol=1e-6)


def test_inhomogeneous_zero_source(vir8):
    path = oscillating_path(scale=0.3)
    traj = solve_inhomogeneous(vir8, path,
                               lambda t: np.zeros(vir8.dim, dtype=complex),
                               np.linspace(0, 1, 17), tol=1e-8)
    assert np.abs(traj.vectors).max() == 0


def test_inhomogeneous_zero_generator(vir8):
    # X = 0: J(t) = int_0^t eta
    path = GeneratorPath(lambda t: CentralElement(FourierVectorField()), (0, 1))
    e0 = np.zeros(vir8.dim, dtype=complex)
    e0[0] = 1.0
    traj = solve_inhomogeneous(vir8, path, lambda t: np.sin(t) * e0,
                               np.linspace(0, 1, 33), tol=1e-8)
    # each segment stops when a doubling moves J by less than tol; the
    # fourth-order Gauss nodes leave far less than that
    np.testing.assert_allclose(traj.vectors[:, 0],
                               1 - np.cos(traj.times), atol=1e-12)


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
    assert np.abs(traj.vectors - ref).max() < 1e-10


def test_gateaux_matches_ode_reference(vir8):
    # J is the second half of the variational system
    # (xi, J)' = (pi(X) xi, pi(X) J + pi(delta) xi) from (xi0, 0)
    path = oscillating_path(scale=0.3)
    delta = GeneratorPath(lambda t: CentralElement(
        FourierVectorField({2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)})), (0, 1))
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
    assert np.abs(traj.vectors - ref[:, d:]).max() < 1e-10


def test_gateaux_zero_direction(vir8):
    path = oscillating_path(scale=0.3)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    zero = GeneratorPath(lambda t: CentralElement(FourierVectorField()), (0, 1))
    traj = gateaux_derivative(vir8, path, xi0, zero, np.linspace(0, 1, 17))
    assert np.abs(traj.vectors).max() < 1e-12


def test_gateaux_constant_selfdirection(vir8):
    # d/ds e^{t pi((1+s)X)}|_0 xi = t pi(X) e^{t pi(X)} xi
    X = CentralElement(FourierVectorField({1: 0.4, -1: 0.4}))
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
    delta = GeneratorPath(lambda t: CentralElement(
        FourierVectorField({2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)})), (0, 1))
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 65)
    traj = gateaux_derivative(vir8, path, xi0, delta, grid, tol=1e-9)
    eps = 1e-4
    kw = dict(tol=1e-10, overflow_threshold=None)

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
    assert np.array_equal(dyson_expansion(vir8, path, xi0, 0, 0.3), xi0)
    X = CentralElement(FourierVectorField({1: 0.5, -1: 0.5}))
    cpath = GeneratorPath.constant(X, (0, 1))
    got = dyson_expansion(vir8, cpath, xi0, 1, 0.2)
    want = xi0 + 0.2 * vir8.pi(X) @ xi0
    assert np.linalg.norm(got - want) < 1e-10


def test_dyson_order_scaling(vir8):
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[0] = 1.0
    path = oscillating_path()
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    exact = {}
    from scipy.integrate import solve_ivp
    for h in hs:
        sol = solve_ivp(lambda t, y: h * (vir8.pi(path(t)) @ y), (0, 1), xi0,
                        rtol=1e-12, atol=1e-13)
        exact[h] = sol.y[:, -1]
    for k in (1, 2, 3):
        errs = [np.linalg.norm(dyson_expansion(vir8, path, xi0, k, h)
                               - exact[h]) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(k + 1, abs=0.15), (k, slope)


def test_change_of_variable(vir8):
    path = oscillating_path(scale=0.4)
    d, _, _ = change_of_variable_check(vir8, path, lambda s: s, lambda s: 1.0,
                                       (0, 1), tol=1e-6)
    assert d < 1e-12
    d, _, _ = change_of_variable_check(vir8, path,
                                       lambda s: 0.2 + 0.6 * s,
                                       lambda s: 0.6, (0, 1), tol=1e-6)
    assert d < 1e-9
    d, _, _ = change_of_variable_check(vir8, path, lambda s: s ** 2,
                                       lambda s: 2 * s, (0, 1), tol=1e-7)
    assert d < 1e-6


# ---------------------------------------------------------------------------
# the fourth-order Magnus rule


def test_magnus4_gauss_nodes(vir8):
    # the rule samples the path at the two Gauss-Legendre nodes of each
    # interval, in time order, and nowhere else
    seen, path = recording_path((0.0, 1.5))
    step_product(vir8, path, 2)
    c = np.sqrt(3) / 6
    np.testing.assert_allclose(seen, [0.75 * (0.5 - c), 0.75 * (0.5 + c),
                                      0.75 + 0.75 * (0.5 - c),
                                      0.75 + 0.75 * (0.5 + c)])


def test_magnus4_fourth_order(vir8):
    path = oscillating_path()
    ref = step_product(vir8, path, 1024).matrix
    ns = np.array([8, 16, 32, 64])
    errs = [np.linalg.norm(step_product(vir8, path, int(n)).matrix - ref, 2)
            for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.3)


def test_magnus4_unitary(vir8):
    P = product_integral(vir8, oscillating_path(), tol=1e-10)
    assert P.steps >= 64
    assert P.unitarity_defect() < 1e-13


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
    # the dense product is unitary and vector mode keeps column norms
    path = GeneratorPath(lambda t: CentralElement(F + t * G))
    assert step_product(vir8, path, 8).unitarity_defect() < 1e-12
    V = np.eye(vir8.dim, 4, dtype=complex)
    W = step_product(vir8, path, 8, V=V).matrix
    assert np.abs(np.linalg.norm(W, axis=0) - 1.0).max() < 1e-12


def test_magnus4_constant_path_exact(vir8):
    X = CentralElement(FourierVectorField({1: 0.3 + 0.2j, -1: 0.3 - 0.2j,
                                           2: 0.1, -2: 0.1}))
    P = product_integral(vir8, GeneratorPath.constant(X), tol=1e-9)
    assert np.abs(P.matrix - expm(vir8.pi(X))).max() < 1e-13


def test_magnus4_matches_ode_reference(vir8):
    from scipy.integrate import solve_ivp
    path = oscillating_path(scale=0.5)
    P = product_integral(vir8, path, tol=1e-10)
    xi0 = np.zeros(vir8.dim, dtype=complex)
    xi0[:vir8.safe_dim(3)] = 1.0
    sol = solve_ivp(lambda t, y: vir8.pi(path(t)) @ y, (0, 1), xi0,
                    method="DOP853", rtol=1e-12, atol=1e-13)
    assert np.linalg.norm(P.matrix @ xi0 - sol.y[:, -1]) < 1e-9


def test_magnus4_matches_step_scheme(vir8):
    # both rules stop when a doubling moves the probe difference below
    # tol, so they agree to the requested tolerance in that norm
    path = oscillating_path(scale=0.5)
    tol = 1e-8
    Pm = product_integral(vir8, path, tol=tol)
    Ps = product_integral(vir8, path, tol=tol, rule="midpoint")
    assert Pm.steps < Ps.steps
    assert _probe_difference(vir8, Pm.matrix, Ps.matrix, 0) < tol


def test_magnus4_records_no_step_bound(vir8):
    P = product_integral(vir8, oscillating_path(), tol=5e-3, r=1)
    assert P.refinement_error
    assert all(np.isnan(bound) for _, _, bound in P.refinement_error)


def test_midpoint_records_no_step_bound(vir8):
    # the difference estimate samples the left step functions, so it is
    # no bound for the midpoint scheme
    P = product_integral(vir8, oscillating_path(), tol=5e-3, r=1,
                         rule="midpoint")
    assert P.refinement_error
    assert all(np.isnan(bound) for _, _, bound in P.refinement_error)


# ---------------------------------------------------------------------------
# vector mode


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


@pytest.mark.parametrize("rule", ["magnus4", "midpoint"])
def test_vector_mode_matches_dense_product(vir8, rule):
    path = oscillating_path(scale=0.5)
    rng = np.random.default_rng(5)
    V = rng.normal(size=(vir8.dim, 3)) + 1j * rng.normal(size=(vir8.dim, 3))
    dense = step_product(vir8, path, 32, rule).matrix
    vec = step_product(vir8, path, 32, rule, V=V)
    assert vec.matrix.shape == V.shape and vec.steps == 32
    assert np.abs(vec.matrix - dense @ V).max() < 1e-12


def test_zero_probe_column_converges(vir8):
    path = oscillating_path(scale=0.5)
    kw = dict(tol=1e-9)
    zero = product_integral(vir8, path, V=np.zeros((vir8.dim, 1)), **kw)
    assert zero.steps == 16 and zero.refinement_error[0][1] == 0.0
    assert not zero.matrix.any()
    V = np.zeros((vir8.dim, 2), dtype=complex)
    V[0, 1] = 1.0
    P = product_integral(vir8, path, V=V, **kw)
    alone = product_integral(vir8, path, V=V[:, 1:], **kw)
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
    delta = GeneratorPath(lambda t: CentralElement(FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)})), (0, 1))
    xi0 = np.zeros(rep.dim, dtype=complex)
    xi0[0] = 1.0
    grid = np.linspace(0, 1, 9)

    def solve():
        return (solve_homogeneous(rep, path, xi0, grid, tol=1e-9,
                                  overflow_threshold=None).vectors,
                gateaux_derivative(rep, path, xi0, delta, grid,
                                   tol=1e-9).vectors)

    vector = solve()
    with dense_at_vector_steps():
        dense = solve()
    for v, d in zip(vector, dense):
        assert np.abs(v - d).max() < 1e-12
