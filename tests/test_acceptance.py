"""Acceptance suite: the quantitative criteria for the whole package.

Each test states its tolerance inline.  The holonomy truncation sweep
(with the N = 16 module build) is the slow part, a few seconds;
everything else is faster.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from prodexp import cli
from prodexp.grouprep import (CirclePath, PhaseChart, exponentiate_path,
                              holonomy_phase, local_cocycle, scalar_part,
                              shrinking_loop_homotopy)
from prodexp.hwmod import (NotUnitarizable, build_module, build_verma,
                           virasoro_spec)
from prodexp.liealg import FourierVectorField, LoopAlgebraElement
from prodexp.nelson import FinDimRep, axis_angle_oracle
from prodexp.prodint import (GeneratorPath, dyson_expansion,
                             gateaux_derivative, product_integral,
                             solve_homogeneous, solve_inhomogeneous,
                             step_product)
from prodexp.scale import (check_exp_difference, check_exp_estimate,
                           check_gw_loop, check_gw_virasoro)

from conftest import safe_vector
from test_hwmod import oracle_gram


def oscillating_path(scale=1.0, interval=(0.0, 1.0)):
    def f(t):
        a = scale * np.exp(1j * t)
        return FourierVectorField({1: a, -1: a.conjugate()})
    return GeneratorPath(f, interval)


def omega(mod):
    xi = np.zeros(mod.dim, dtype=complex)
    xi[0] = 1.0
    return xi


def real_field(rng, modes, scale=1.0):
    coeffs = {}
    for n in modes:
        a = scale * complex(*rng.normal(size=2))
        coeffs[n] = a
        coeffs[-n] = a.conjugate()
    return FourierVectorField(coeffs)


# ---------------------------------------------------------------------------
# 1. Virasoro commutation on (1/2, 1/16), N = 12


def test_virasoro_commutation_n12(vir12):
    t0 = time.perf_counter()
    c = 0.5
    worst = 0.0
    for m in range(-3, 4):
        for n in range(-3, 4):
            Lm = vir12.generator_matrix(("L", m))
            Ln = vir12.generator_matrix(("L", n))
            comm = Lm @ Ln - Ln @ Lm
            want = (m - n) * vir12.generator_matrix(("L", m + n))
            if m + n == 0:
                want = want + c * (m ** 3 - m) / 12 * np.eye(vir12.dim)
            d = vir12.safe_dim(abs(m) + abs(n))
            worst = max(worst, np.abs((comm - want)[:d, :d]).max())
    assert worst <= 1e-9
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Shapovalov values, exactly


def test_shapovalov_low_levels_exact():
    c, h = Fraction(1, 2), Fraction(1, 16)
    v = build_verma(virasoro_spec(c, h, 4))
    assert v.gram(1) == [[2 * h]]
    G2 = v.gram(2)
    assert G2[0][0] == 4 * h + c / 2        # basis order (2,), (1,1)


def test_shapovalov_vs_symbolic_oracle_through_level4():
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
                got = sympy.Rational(G[i][j].numerator, G[i][j].denominator)
                assert got == want, (k, i, j)


# ---------------------------------------------------------------------------
# 3. unitarity region


def test_unitarity_region_level8():
    for c, h in [(Fraction(1, 2), Fraction(1, 16)),
                 (Fraction(1, 2), Fraction(1, 2)),
                 (Fraction(1), Fraction(0)),
                 (Fraction(1), Fraction(1))]:
        mod = build_module(virasoro_spec(c, h, 8))     # must not raise
        for k in range(9):
            w = np.linalg.eigvalsh(np.array(mod.verma.gram(k), dtype=float))
            assert w.min() >= -1e-9 * max(1.0, w.max())
    with pytest.raises(NotUnitarizable):
        build_module(virasoro_spec(Fraction(1, 2), Fraction(3, 10), 8))


# ---------------------------------------------------------------------------
# 4. rotation phase


def test_rotation_phase(vir8):
    t0 = time.perf_counter()
    P = exponentiate_path(vir8, CirclePath.rotation(2 * np.pi),
                          np.eye(vir8.dim), tol=1e-10)
    s, dev = scalar_part(vir8, P.matrix, vir8.N)
    want = np.exp(2j * np.pi / 16)
    assert abs(s - want) < 1e-8
    assert dev < 1e-8
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 5. holonomy


def test_holonomy_truncation_sweep(vir8, vir12, vir16):
    hom = shrinking_loop_homotopy(k=2)
    mismatches = [holonomy_phase(mod, hom).mismatch
                  for mod in (vir8, vir12, vir16)]
    assert mismatches[0] > mismatches[1] > mismatches[2]
    assert mismatches[2] < 1e-4


def test_holonomy_mobius_trivial(vir8):
    rep = holonomy_phase(vir8, shrinking_loop_homotopy(k=1))
    assert rep.predicted == 1.0 + 0j          # the cocycle vanishes on k = 1
    assert abs(rep.measured - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# 6. product-integral convergence


def test_step_scheme_first_order(vir8):
    path = oscillating_path()
    eye = np.eye(vir8.dim)
    ref = product_integral(vir8, path, eye, tol=1e-9).matrix
    ns = np.array([8, 16, 32, 64, 128, 256])
    errs = [np.linalg.norm(step_product(vir8, path, int(n), eye, "left")
                           - ref, 2) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_dyson_scaling_orders(vir8):
    from scipy.integrate import solve_ivp
    path = oscillating_path()
    xi0 = omega(vir8)
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    exact = {}
    for h in hs:
        sol = solve_ivp(lambda t, y: h * (vir8.pi(path(t)) @ y), (0, 1), xi0,
                        rtol=1e-12, atol=1e-13)
        exact[h] = sol.y[:, -1]
    psi = dyson_expansion(vir8, path, xi0, 3)
    for k in (1, 2, 3):
        errs = [np.linalg.norm(sum(h ** j * psi[j] for j in range(k + 1))
                               - exact[h]) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(k + 1, abs=0.15), (k, slope)


def test_refinement_differences_within_bound(vir8):
    P = product_integral(vir8, oscillating_path(), np.eye(vir8.dim),
                         tol=5e-3, r=1, rule="left")
    assert len(P.refinement_error) >= 2
    for n, emp, bound in P.refinement_error:
        assert emp <= bound


# ---------------------------------------------------------------------------
# 7. ODE theorems as residuals


def test_homogeneous_norm_and_residual(vir8):
    path = oscillating_path(scale=0.3)
    grid = np.linspace(0, 1, 129)
    traj = solve_homogeneous(vir8, path, omega(vir8), grid, tol=1e-9)
    assert np.abs(np.linalg.norm(traj, axis=1) - 1).max() < 1e-9
    h = grid[1] - grid[0]
    worst = max(np.linalg.norm((traj[i + 1] - traj[i - 1]) / (2 * h)
                               - vir8.pi(path(grid[i])) @ traj[i])
                for i in range(1, len(grid) - 1))
    assert worst < 1e-4


def test_inhomogeneous_residual(vir8):
    rng = np.random.default_rng(21)
    path = oscillating_path(scale=0.3)
    d = vir8.safe_dim(3)
    w = np.zeros(vir8.dim, dtype=complex)
    w[:d] = rng.normal(size=d) + 1j * rng.normal(size=d)
    w /= np.linalg.norm(w)
    grid = np.linspace(0, 1, 129)
    traj = solve_inhomogeneous(vir8, path, lambda t: np.cos(2 * t) * w,
                               grid, tol=1e-9)
    h = grid[1] - grid[0]
    worst = max(np.linalg.norm((traj[i + 1] - traj[i - 1]) / (2 * h)
                               - vir8.pi(path(grid[i])) @ traj[i]
                               - np.cos(2 * grid[i]) * w)
                for i in range(1, len(grid) - 1))
    assert worst < 1e-4


def test_gateaux_matches_central_difference(vir8):
    path = oscillating_path(scale=0.3)
    delta = GeneratorPath(lambda t: FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)}), (0, 1))
    grid = np.linspace(0, 1, 65)
    xi0 = omega(vir8)
    traj = gateaux_derivative(vir8, path, xi0, delta, grid, tol=1e-9)
    eps = 1e-4
    kw = dict(tol=1e-10)

    def shifted(s):
        return GeneratorPath(lambda t: path(t) + s * delta(t), (0, 1))

    plus = solve_homogeneous(vir8, shifted(eps), xi0, grid, **kw)
    minus = solve_homogeneous(vir8, shifted(-eps), xi0, grid, **kw)
    fd = (plus[-1] - minus[-1]) / (2 * eps)
    assert np.linalg.norm(traj[-1] - fd) / np.linalg.norm(fd) < 1e-5


# ---------------------------------------------------------------------------
# 8. estimates on 1000 randomized samples each


def test_gw_virasoro_thousand_samples(vir8):
    rng = np.random.default_rng(22)
    for _ in range(1000):
        X = real_field(rng, (1, 2, 3))
        xi = safe_vector(rng, vir8, 3)
        t = float(rng.choice([0, 0.5, 1, 1.5, -1]))
        r = check_gw_virasoro(vir8, X, xi, t)
        assert r.holds, (t, r.lhs, r.rhs)


def test_gw_loop_thousand_samples(aff5):
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = complex(*rng.normal(size=2))
        b = float(rng.normal())
        X = LoopAlgebraElement({1: (a, b, 0.5 * a),
                                -1: (-0.5 * a.conjugate(), -b,
                                     -a.conjugate())})
        f = real_field(rng, (1,), scale=0.5)
        xi = safe_vector(rng, aff5, 2)
        t = float(rng.choice([0, 0.5, 1]))
        reports = check_gw_loop(aff5, X, f, xi, t)
        assert len(reports) == 2              # both loop inequalities
        for r in reports:
            assert r.holds, (t, r.estimate, r.lhs, r.rhs)


def test_exp_estimate_thousand_samples(vir8):
    rng = np.random.default_rng(24)
    for _ in range(1000):
        X = real_field(rng, (1, 2), scale=0.3)
        n = int(rng.integers(0, 3))
        r = check_exp_estimate(vir8, X, n)
        assert r.holds, (n, r.lhs, r.rhs)


def test_exp_difference_thousand_samples(vir8):
    rng = np.random.default_rng(25)
    for _ in range(1000):
        X = real_field(rng, (1, 2), scale=0.3)
        Y = X + real_field(rng, (1,), scale=0.01)
        xi = safe_vector(rng, vir8, 2)
        n = int(rng.integers(0, 2))
        r = check_exp_difference(vir8, X, Y, xi, n)
        assert r.holds, (n, r.lhs, r.rhs)


# ---------------------------------------------------------------------------
# 9. Sugawara


def test_sugawara_central_charge(aff5):
    assert abs(aff5.central_charge - 1.0) < 1e-8       # dim(G) l/(l+h_vee)
    # extracted from [L_2, L_{-2}] = 4 L_0 + c/2
    L = {n: aff5.generator_matrix(("L", n)) for n in (-2, 0, 2)}
    comm = L[2] @ L[-2] - L[-2] @ L[2] - 4 * L[0]
    d = aff5.safe_dim(4)
    np.testing.assert_allclose(np.diag(comm)[:d].real, 0.5, atol=1e-8)


def test_sugawara_intertwining(aff5):
    for m in (-2, -1, 0, 1, 2):
        L = aff5.generator_matrix(("L", m))
        for j in range(3):
            for n in (-2, -1, 0, 1, 2):
                X = aff5.generator_matrix(("x", j, n))
                comm = L @ X - X @ L
                want = -n * aff5.generator_matrix(("x", j, m + n))
                d = aff5.safe_dim(abs(m) + abs(n) + abs(m + n))
                if d:
                    assert np.abs((comm - want)[:d, :d]).max() <= 1e-8, (m, n)


def test_sugawara_lowest_weight_vacuum(aff5):
    L0 = aff5.generator_matrix(("L", 0))
    w = np.linalg.eigvalsh((L0 + L0.conj().T) / 2)
    assert abs(w.min()) < 1e-10               # lam = 0: lowest L0 is 0


# ---------------------------------------------------------------------------
# 10. Nelson testbed


def test_nelson_axis_angle_residual():
    rep = FinDimRep((0.5, 1.5))
    x = np.array([0.4, -0.2, 0.9])
    P = product_integral(rep, GeneratorPath(lambda t: x), np.eye(rep.dim),
                         tol=1e-10)
    assert np.abs(P.matrix - axis_angle_oracle(rep, x)).max() < 1e-12


def test_nelson_path_independence():
    rep = FinDimRep((0.5, 1.5))
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
    P = np.eye(rep.dim)
    for seg in ((0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.0)):
        P = product_integral(rep, GeneratorPath(euler, seg), P, **kw).matrix

    # the same SU(2) element along the direct axis-angle path
    rep_half = FinDimRep((0.5,))
    target = np.eye(2, dtype=complex)
    for x in (alpha * ez, beta * ex, gamma * ez):
        target = axis_angle_oracle(rep_half, x) @ target
    theta = 2 * np.arccos(np.clip(np.real(np.trace(target)) / 2, -1, 1))
    G = rep_half.generators
    raw = np.array([np.trace(target @ G[i]).real for i in range(3)])
    x = -theta * raw / np.linalg.norm(raw)
    assert np.abs(P - axis_angle_oracle(rep, x)).max() < 1e-6


def test_nelson_spin_half_full_turn():
    rep = FinDimRep((0.5,))
    axis = 2 * np.pi * np.array([0.0, 0.0, 1.0])
    P = product_integral(rep, GeneratorPath(lambda t: axis), np.eye(2),
                         tol=1e-10)
    assert np.abs(P.matrix + np.eye(2)).max() < 1e-9


# ---------------------------------------------------------------------------
# 11. extension cocycle


def test_local_cocycle_lift_rescaling_invariance(vir8):
    chart = PhaseChart(omega(vir8))
    Ug = expm(vir8.pi(FourierVectorField({2: 0.3, -2: 0.3})))
    Uh = expm(vir8.pi(FourierVectorField({2: 0.2j, -2: -0.2j})))
    c0 = local_cocycle(chart, Ug, Uh)
    assert abs(abs(c0) - 1) < 1e-12
    rng = np.random.default_rng(26)
    for _ in range(10):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        c = local_cocycle(chart, np.exp(1j * a) * Ug, np.exp(1j * b) * Uh)
        assert abs(c - c0) < 1e-12


# ---------------------------------------------------------------------------
# 12. reproducibility


def test_report_rows_bit_identical(tmp_path):
    descriptor = cli.validate_descriptor({
        "name": "repro",
        "module": {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 8},
        "seed": 99,
        "checks": ["vir-commutation", "gw-virasoro-estimate",
                   "exp-difference-estimate", "rotation-phase"],
    })
    cache = cli.ModuleCache(str(tmp_path))
    reports = [cli.execute(descriptor, cache=cache) for _ in range(2)]
    strip = lambda r: [{k: v for k, v in row.items() if k != "wall_time"}
                       for row in r["rows"]]
    assert json.dumps(strip(reports[0]), sort_keys=True) == \
        json.dumps(strip(reports[1]), sort_keys=True)
    assert reports[0]["artifact_hashes"] == reports[1]["artifact_hashes"]
