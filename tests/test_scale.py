import math

import numpy as np
import pytest
from scipy.linalg import expm

from prodexp import checks
from prodexp.liealg import FourierVectorField, LoopAlgebraElement, seminorm
from prodexp.scale import (SobolevScale, check_basic_estimates,
                           check_exp_difference, check_exp_estimate,
                           check_gw_loop, check_gw_virasoro,
                           gw_virasoro_seminorm)

from conftest import safe_vector


def real_field(rng, modes, scale=1.0):
    coeffs = {}
    for n in modes:
        a = scale * complex(*rng.normal(size=2))
        coeffs[n] = a
        coeffs[-n] = a.conjugate()
    return FourierVectorField(coeffs)


def test_scale_diagonal(vir8):
    s = SobolevScale(vir8)
    assert s.diag.min() >= 1.0
    np.testing.assert_allclose(s.power(0.5) * s.power(1.5), s.power(2.0),
                               rtol=1e-13)
    np.testing.assert_allclose(s.diag, 1 + 1 / 16 + vir8.level_of())


def test_sobolev_norm_basics(vir8):
    scale = SobolevScale(vir8)
    omega = np.zeros(vir8.dim)
    omega[0] = 1.0
    a0 = 1 + 1 / 16
    for t in (0, 0.5, 1, 2, -1):
        assert scale.norm(omega, t) == pytest.approx(a0 ** t)
    rng = np.random.default_rng(1)
    v = rng.normal(size=vir8.dim)
    assert scale.norm(v, 0) == pytest.approx(np.linalg.norm(v))


def test_interpolation_inequality(vir8):
    rng = np.random.default_rng(2)
    s = SobolevScale(vir8)
    for _ in range(50):
        v = rng.normal(size=vir8.dim) + 1j * rng.normal(size=vir8.dim)
        assert s.norm(v, 0.5) ** 2 <= s.norm(v, 0) * s.norm(v, 1) * (1 + 1e-12)


def test_basic_estimates_e0(vir8):
    rng = np.random.default_rng(3)
    xi = safe_vector(rng, vir8, 1)
    reps = check_basic_estimates(vir8, FourierVectorField({0: 1.0}), xi, 1)
    comm = [r for r in reps if r.estimate == "commutator-bound"][0]
    assert comm.lhs < 1e-12      # [A, pi(e_0)] = 0


def test_basic_estimates_random(vir8):
    rng = np.random.default_rng(4)
    X = FourierVectorField({2: 1.0, -2: 1.0})
    for n in (0, 1, 2):
        for _ in range(30):
            xi = safe_vector(rng, vir8, 2)
            for r in check_basic_estimates(vir8, X, xi, n):
                assert r.holds, (n, r.estimate, r.lhs, r.rhs)


def test_basic_estimate_vs_dense_norm(vir8):
    # cross-check the pi-bound lhs against a dense operator-norm bound
    X = FourierVectorField({1: 0.7, -1: 0.7})
    s = SobolevScale(vir8)
    op = s.operator_norm(vir8.pi(X), 0, 1)
    rng = np.random.default_rng(5)
    for _ in range(20):
        xi = safe_vector(rng, vir8, 1)
        r = check_basic_estimates(vir8, X, xi, 0)[0]
        assert r.lhs <= op * s.norm(xi, 1) * (1 + 1e-10)
        assert op <= gw_virasoro_seminorm(X, 1, 0.5) * (1 + 1e-10)


def test_gw_virasoro(vir8):
    rng = np.random.default_rng(6)
    X = FourierVectorField({1: 1.0, -1: 1.0})
    for t in (0, 0.5, 1, 1.5, -1):
        for _ in range(100):
            xi = safe_vector(rng, vir8, 1)
            r = check_gw_virasoro(vir8, X, xi, t)
            assert r.holds, (t, r.lhs, r.rhs)
    z = check_gw_virasoro(vir8, FourierVectorField(), xi, 0)
    assert z.lhs == 0 and z.rhs == 0


def test_gw_virasoro_random_fields(vir12):
    rng = np.random.default_rng(7)
    for _ in range(60):
        X = real_field(rng, (1, 2, 3))
        xi = safe_vector(rng, vir12, 3)
        t = float(rng.choice([0, 0.5, 1, 1.5, -1]))
        assert check_gw_virasoro(vir12, X, xi, t).holds


def test_gw_loop(aff5):
    rng = np.random.default_rng(8)
    for _ in range(60):
        a = complex(*rng.normal(size=2))
        b = float(rng.normal())
        # real loop element: x_{-n} = -x_n^dagger (e <-> f, conjugate)
        X = LoopAlgebraElement({1: (a, b, 0.5 * a),
                                -1: (-0.5 * a.conjugate(), -b,
                                     -a.conjugate())})
        f = real_field(rng, (1,), scale=0.5)
        xi = safe_vector(rng, aff5, 2)
        for t in (0, 0.5, 1):
            for r in check_gw_loop(aff5, X, f, xi, t):
                assert r.holds, (t, r.estimate, r.lhs, r.rhs)


def test_sugawara_estimates_use_its_own_constants(aff5):
    # a vector field on an affine module acts by the Sugawara L_n and is
    # measured by the field seminorm dim(g)||f||_{t+1/2}, not by the
    # loop-element constant
    rng = np.random.default_rng(12)
    s = SobolevScale(aff5)
    for _ in range(20):
        f = real_field(rng, (1, 2), scale=0.2)
        xi = safe_vector(rng, aff5, 2)
        for n in (0, 1):
            norm_next = s.norm(xi, n + 1)
            assert aff5.seminorm(f, n + 1) == 3 * seminorm(f, n + 1.5)
            assert aff5.a_seminorm(f, n + 1) == 3 * seminorm(
                f.mode_derivative(), n + 1.5)
            pi_bound, comm_bound = check_basic_estimates(aff5, f, xi, n)
            assert pi_bound.rhs == aff5.seminorm(f, n + 1) * norm_next
            assert comm_bound.rhs == aff5.a_seminorm(f, n + 1) * norm_next
            exp_bound = check_exp_estimate(aff5, f, n)
            assert exp_bound.rhs == math.exp(2 * n * aff5.a_seminorm(f, n))
            for r in (pi_bound, comm_bound, exp_bound):
                assert r.holds, (n, r.estimate, r.lhs, r.rhs)
    # check_gw_virasoro takes the Sugawara c = 1 from the affine module
    r = check_gw_virasoro(aff5, f, xi, 0.5)
    M = math.sqrt(1 / 12)
    assert r.rhs == pytest.approx(
        math.sqrt(2) * seminorm(f, 0.5) * s.norm(xi, 1.5)
        + M * seminorm(f, 1.5) * s.norm(xi, 1.0)
        + M * seminorm(f, 2.0) * s.norm(xi, 0.5), rel=1e-14)


def test_row_leakage_is_top_fraction(monkeypatch):
    # ode-norm-conservation reports the fraction of its solver's final
    # vector's norm in the top two retained levels
    finals = []
    solve = checks.solve_homogeneous

    def recording(*args, **kw):
        traj = solve(*args, **kw)
        finals.append(traj[-1])
        return traj

    monkeypatch.setattr(checks, "solve_homogeneous", recording)
    ctx = checks.CheckContext(seed=7)
    row = checks.run_check("ode-norm-conservation", ctx)
    level = ctx.rep("virasoro").level_of()
    (v,) = finals
    want = (np.linalg.norm(v[level >= level.max() - 1])
            / np.linalg.norm(v))
    assert row["verdict"] == "pass"
    assert 0 < row["leakage"] < 1
    assert row["leakage"] == pytest.approx(want, rel=1e-14)


def test_exp_estimate(vir8):
    r0 = check_exp_estimate(vir8, FourierVectorField({0: 1.0}), 1)
    assert r0.lhs == pytest.approx(1.0, abs=1e-10)
    X = FourierVectorField({2: 0.1, -2: 0.1})
    for n in (0, 1, 2):
        r = check_exp_estimate(vir8, X, n)
        assert r.holds, (n, r.lhs, r.rhs)
    assert check_exp_estimate(vir8, X, 0).lhs <= 1 + 1e-10  # unitarity


def test_exp_difference(vir8):
    rng = np.random.default_rng(9)
    X = FourierVectorField({2: 0.3, -2: 0.3})
    xi = safe_vector(rng, vir8, 2)
    same = check_exp_difference(vir8, X, X, xi, 1)
    assert same.lhs < 1e-13 and same.rhs == 0
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        Y = X + FourierVectorField({1: delta, -1: delta})
        for n in (0, 1):
            r = check_exp_difference(vir8, X, Y, xi, n)
            assert r.holds
            assert r.lhs > 0


def test_unitarity_on_h0(vir8):
    rng = np.random.default_rng(10)
    X = real_field(rng, (1, 2))
    U = expm(vir8.pi(X))
    xi = safe_vector(rng, vir8, 0)
    assert abs(np.linalg.norm(U @ xi) - 1) < 1e-12


def test_a_seminorm_relation(vir8, aff5):
    X = FourierVectorField({3: 0.5, -2: 1.0})
    # |X|_{A,t} is the |.|_t seminorm of the mode-scaled field
    Xp = FourierVectorField({3: 1.5, -2: -2.0})
    assert vir8.a_seminorm(X, 2) == pytest.approx(
        gw_virasoro_seminorm(Xp, 2, 0.5))
    # and of the mode-scaled loop element, (ell + 1)||Yp||_{t-1/2} at ell = 1
    Y = LoopAlgebraElement({1: (1.0, 0.5, 0.0), -2: (0.0, 1.0, 2.0)})
    Yp = LoopAlgebraElement({1: (1.0, 0.5, 0.0), -2: (0.0, -2.0, -4.0)})
    assert aff5.a_seminorm(Y, 2) == pytest.approx(2 * seminorm(Yp, 1.5))
