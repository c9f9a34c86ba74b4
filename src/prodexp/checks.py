"""Named verification checks for the experiment runner.

Each check is a pure function of a CheckContext returning a report row
{check, params, measured, bound, verdict, leakage, wall_time}.  The
measured value is a residual or violation count; the verdict is "pass"
iff measured <= bound.  All randomness derives from the descriptor seed
(one independent stream per check, keyed by its id), so a rerun with
the same descriptor reproduces the rows bit for bit apart from wall
times.  A row that ran on a default module, because the descriptor names
none of the kind the check needs, names that module in `params["module"]`
(descriptor JSON; a list when there are several).
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .liealg import CentralElement, FourierVectorField, bracket_vect
from .hwmod import (NotUnitarizable, SugawaraAction, affine_spec,
                    build_module, build_verma, discrete_series_c,
                    discrete_series_h, virasoro_spec)
from .prodint import (GeneratorPath, dyson_expansion, gateaux_derivative,
                      product_integral, solve_homogeneous, solve_inhomogeneous,
                      step_product, _top_fraction)
from . import grouprep, nelson, scale


DEFAULT_VIRASORO = dict(c=Fraction(1, 2), h=Fraction(1, 16), N=8)


class CheckContext:
    """Shared state for one report: seed, module cache, tolerances, and
    the default modules the running check used (`substituted`)."""

    def __init__(self, seed=7, module_spec=None, tolerances=None,
                 cache=None):
        self.seed = int(seed)
        self.module_spec = module_spec
        self.tolerances = dict(tolerances or {})
        self.cache = cache          # optional ModuleCache
        self._modules = {}
        self.substituted = []

    def rng(self, check_id):
        """The check's own stream, keyed by a stable hash of its id."""
        key = hashlib.sha256(check_id.encode()).digest()[:8]
        return np.random.default_rng([self.seed, int.from_bytes(key, "big")])

    def build(self, spec):
        key = spec.key()
        if key not in self._modules:
            mod = self.cache.load(spec) if self.cache is not None else None
            if mod is None:
                mod = build_module(spec)
                if self.cache is not None:
                    self.cache.store(spec, mod)
            self._modules[key] = mod
        return self._modules[key]

    def _default(self, spec):
        if spec.descriptor() not in self.substituted:
            self.substituted.append(spec.descriptor())
        return spec

    def virasoro(self):
        """The descriptor's Virasoro module (or the default one)."""
        spec = self.module_spec
        if getattr(spec, "kind", None) != "virasoro":
            spec = self._default(virasoro_spec(**DEFAULT_VIRASORO))
        return self.build(spec)

    def affine(self):
        spec = self.module_spec
        if getattr(spec, "kind", None) != "affine_sl2":
            spec = self._default(affine_spec(1, 0, 4))
        return self.build(spec)

    def su2(self):
        """The descriptor's su(2) representation (or spins 1/2 + 3/2)."""
        if isinstance(self.module_spec, nelson.FinDimRep):
            return self.module_spec
        return self._default(nelson.FinDimRep((Fraction(1, 2),
                                               Fraction(3, 2))))

    def bound(self, check_id, default):
        return float(self.tolerances.get(check_id, default))


def _oscillator(scale=0.25, interval=(0.0, 1.0)):
    def f(t):
        a = scale * np.exp(1j * t)
        return CentralElement(FourierVectorField({1: a, -1: a.conjugate()}))
    return GeneratorPath(f, interval)


def _omega(mod):
    xi = np.zeros(mod.dim, dtype=complex)
    xi[0] = 1.0
    return xi


# ---------------------------------------------------------------------------
# algebra / module checks


def chk_vir_commutation(ctx):
    """Safe-window residual of the Virasoro commutation relation."""
    mod = ctx.virasoro()
    win = 2
    worst = 0.0
    mats = {m: mod.pi(FourierVectorField({m: 1.0})) for m in range(-win, win + 1)}
    for m in range(-win, win + 1):
        for n in range(-win, win + 1):
            em = FourierVectorField({m: 1.0})
            en = FourierVectorField({n: 1.0})
            M = (mats[m] @ mats[n] - mats[n] @ mats[m]
                 - mod.pi(bracket_vect(em, en))
                 - 1j * complex(mod.projective_cocycle(em, en))
                 * np.eye(mod.dim))
            d = mod.safe_dim(abs(m) + abs(n))
            worst = max(worst, float(np.abs(M[:d, :d]).max()))
    return worst, {"window": win, "N": mod.N}, 0.0


def chk_projective_defect(ctx):
    """[pi(X), pi(Y)] - pi([X, Y]) = i B(X, Y) Id for e_{+-2} flows."""
    mod = ctx.virasoro()
    X = FourierVectorField({2: 1.0, -2: 1.0})
    Y = FourierVectorField({2: 1j, -2: -1j})
    M = (mod.pi(X) @ mod.pi(Y) - mod.pi(Y) @ mod.pi(X)
         - mod.pi(bracket_vect(X, Y)))
    d = mod.safe_dim(4)
    B = complex(mod.projective_cocycle(X, Y))
    return (float(np.abs(M[:d, :d] - 1j * B * np.eye(d)).max()),
            {"B": B.real}, 0.0)


def chk_vir_gram_exact(ctx):
    """Exact low-level Shapovalov values in rational arithmetic."""
    c, h = Fraction(1, 2), Fraction(1, 16)
    verma = build_verma(virasoro_spec(c, h, 4))
    g1 = verma.gram(1)
    g2 = verma.gram(2)
    ok = (g1[0][0] == 2 * h
          and g2[0][0] == 4 * h + c / 2          # (L_{-2}, L_{-2})
          and g2[1][1] == 8 * h * h + 4 * h)     # (L_{-1}^2, L_{-1}^2)
    return (0.0 if ok else 1.0), {"c": str(c), "h": str(h)}, 0.0


def chk_vir_unitarity_region(ctx):
    """PSD Gram through level 8 on unitary points; rejection off them."""
    points = [(discrete_series_c(1), discrete_series_h(1, 2, 2)),
              (discrete_series_c(1), discrete_series_h(1, 2, 1)),
              (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    bad = 0
    for c, h in points:
        try:
            ctx.build(virasoro_spec(c, h, 8))
        except NotUnitarizable:
            bad += 1
    try:
        build_module(virasoro_spec(Fraction(1, 2), Fraction(3, 10), 4))
        bad += 1
    except NotUnitarizable:
        pass
    return float(bad), {"points": len(points) + 1}, 0.0


def chk_rotation_phase(ctx):
    """Full-turn propagator is e^{2 pi i h} Id on the truncation."""
    mod = ctx.virasoro()
    P = grouprep.exponentiate_path(mod, grouprep.CirclePath.rotation(2 * np.pi),
                                   tol=1e-10)
    want = np.exp(2j * np.pi * float(mod.h0))
    measured = float(np.abs(P.matrix - want * np.eye(mod.dim)).max())
    return measured, {"h": str(mod.h0)}, _top_fraction(mod, P.matrix @ _omega(mod))


def chk_holonomy_phase(ctx):
    """Measured vs predicted holonomy phase of the e_{+-2} loop."""
    mod = ctx.virasoro()
    rep = grouprep.holonomy_phase(mod, grouprep.shrinking_loop_homotopy(k=2))
    return rep.mismatch, {"N": mod.N, "predicted_arg": float(np.angle(rep.predicted)),
                          "deviation": rep.deviation}, 0.0


def chk_holonomy_mobius(ctx):
    """Moebius-span homotopy: holonomy phase 1."""
    mod = ctx.virasoro()
    rep = grouprep.holonomy_phase(mod, grouprep.shrinking_loop_homotopy(k=1))
    return abs(rep.measured - 1.0), {"N": mod.N}, 0.0


def chk_up_properties(ctx):
    """Propagator properties: constant/reparam/concatenation/adjoint."""
    mod = ctx.virasoro()
    res = grouprep.verify_up_properties(mod, _oscillator(0.2), tol=1e-8)
    bounds = {"constant-exponential": 1e-9, "reparametrization": 1e-5,
              "concatenation": 1e-6, "adjoint": 1e-6}
    measured = max(res[k] / bounds[k] for k in bounds)
    return measured, {k: res[k] for k in sorted(res)}, 0.0


# ---------------------------------------------------------------------------
# product-integral engine checks


def chk_prodint_convergence_order(ctx):
    """log-log slope of error vs step count for the left-rule scheme,
    against a fourth-order Magnus reference."""
    mod = ctx.virasoro()
    path = _oscillator(0.5)
    ref = product_integral(mod, path, tol=1e-8).matrix
    ns = np.array([8, 16, 32, 64, 128])
    errs = [np.linalg.norm(step_product(mod, path, int(n), "left").matrix
                           - ref, 2) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    return abs(slope + 1.0), {"slope": slope, "steps": ns.tolist()}, 0.0


def chk_refinement_bound(ctx):
    """Empirical refinement differences stay below the difference bound."""
    mod = ctx.virasoro()
    P = product_integral(mod, _oscillator(1.0), tol=5e-3, r=1, rule="left")
    ratios = [emp / bnd for _, emp, bnd in P.refinement_error]
    return max(ratios), {"levels": len(ratios)}, 0.0


def chk_dyson_order_scaling(ctx):
    """Dyson partial sums converge at order k + 1 in the scaling."""
    from scipy.integrate import solve_ivp
    mod = ctx.virasoro()
    path = _oscillator(1.0)
    xi0 = _omega(mod)
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    exact = {}
    for h in hs:
        sol = solve_ivp(lambda t, y: h * (mod.pi(path(t)) @ y), (0, 1), xi0,
                        rtol=1e-12, atol=1e-13)
        exact[h] = sol.y[:, -1]
    worst, slopes = 0.0, {}
    for k in (1, 2, 3):
        errs = [np.linalg.norm(dyson_expansion(mod, path, xi0, k, h)
                               - exact[h]) for h in hs]
        s = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        slopes[f"k{k}"] = s
        worst = max(worst, abs(s - (k + 1)))
    return worst, slopes, 0.0


def chk_ode_norm_conservation(ctx):
    mod = ctx.virasoro()
    xi0 = mod.random_vector(ctx.rng("ode-norm-conservation"),
                            max_level=mod.N - 4)
    traj = solve_homogeneous(mod, _oscillator(0.3), xi0,
                             np.linspace(0, 1, 17), tol=1e-9,
                             overflow_threshold=None)
    return (float(np.abs(traj.norms() - 1).max()), {"grid": 17},
            _top_fraction(mod, traj[-1]))


def chk_ode_residual(ctx):
    mod = ctx.virasoro()
    path = _oscillator(0.3)
    grid = np.linspace(0, 1, 129)
    traj = solve_homogeneous(mod, path, _omega(mod), grid, tol=1e-9,
                             overflow_threshold=None)
    h = grid[1] - grid[0]
    worst = max(np.linalg.norm((traj[i + 1] - traj[i - 1]) / (2 * h)
                               - mod.pi(path(grid[i])) @ traj[i])
                for i in range(1, len(grid) - 1, 4))
    return float(worst), {"grid": 129}, _top_fraction(mod, traj[-1])


def chk_inhomogeneous_residual(ctx):
    mod = ctx.virasoro()
    path = _oscillator(0.3)
    w = mod.random_vector(ctx.rng("inhomogeneous-residual"),
                          max_level=mod.N - 3)
    grid = np.linspace(0, 1, 129)
    traj = solve_inhomogeneous(mod, path, lambda t: np.cos(2 * t) * w,
                               grid, tol=1e-9)
    h = grid[1] - grid[0]
    # fourth-order central difference: at h = 1/128 the second-order
    # stencil's own error is about the size of the bound
    J = traj.vectors
    worst = max(np.linalg.norm((-J[i + 2] + 8 * J[i + 1] - 8 * J[i - 1]
                                + J[i - 2]) / (12 * h)
                               - mod.pi(path(grid[i])) @ J[i]
                               - np.cos(2 * grid[i]) * w)
                for i in range(2, len(grid) - 2))
    return float(worst), {"grid": 129}, _top_fraction(mod, traj[-1])


def chk_gateaux_central_difference(ctx):
    mod = ctx.virasoro()
    path = _oscillator(0.3)
    delta = GeneratorPath(lambda t: CentralElement(FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)})), (0, 1))
    grid = np.linspace(0, 1, 65)
    xi0 = _omega(mod)
    traj = gateaux_derivative(mod, path, xi0, delta, grid, tol=1e-9)
    eps = 1e-4
    kw = dict(tol=1e-10, overflow_threshold=None)

    def shifted(s):
        return GeneratorPath(lambda t: path(t) + s * delta(t), (0, 1))

    plus = solve_homogeneous(mod, shifted(eps), xi0, grid, **kw)
    minus = solve_homogeneous(mod, shifted(-eps), xi0, grid, **kw)
    fd = (plus[-1] - minus[-1]) / (2 * eps)
    rel = float(np.linalg.norm(traj[-1] - fd) / np.linalg.norm(fd))
    return rel, {"eps": eps}, 0.0


# ---------------------------------------------------------------------------
# estimate checks


def _real_field(rng, modes, scale_amp=1.0):
    coeffs = {}
    for n in modes:
        a = scale_amp * complex(*rng.normal(size=2))
        coeffs[n], coeffs[-n] = a, a.conjugate()
    return FourierVectorField(coeffs)


# random samples of each Goodman-Wallach estimate check
GW_SAMPLES = 200


def chk_gw_virasoro_estimate(ctx):
    """Randomized safe-window samples of the Virasoro scale inequality."""
    mod = ctx.virasoro()
    rng = ctx.rng("gw-virasoro-estimate")
    violations = 0
    for _ in range(GW_SAMPLES):
        X = _real_field(rng, (1, 2, 3))
        xi = mod.random_vector(rng, max_level=mod.N - 3)
        t = float(rng.choice([0, 0.5, 1, 1.5, -1]))
        if not scale.check_gw_virasoro(mod, X, xi, t).holds:
            violations += 1
    return float(violations), {"samples": GW_SAMPLES}, 0.0


def chk_gw_loop_estimate(ctx):
    """Randomized samples of both loop-algebra scale inequalities."""
    from .liealg import LoopAlgebraElement, sl2_chevalley
    mod = ctx.affine()
    sug = SugawaraAction(mod)
    alg = sl2_chevalley()
    rng = ctx.rng("gw-loop-estimate")
    violations = 0
    # each sample checks both inequalities
    for _ in range(GW_SAMPLES // 2):
        a = complex(*rng.normal(size=2))
        b = float(rng.normal())
        X = LoopAlgebraElement(alg, {1: (a, b, 0.5 * a),
                                     -1: (-0.5 * a.conjugate(), -b,
                                          -a.conjugate())})
        f = _real_field(rng, (1,), 0.5)
        xi = mod.random_vector(rng, max_level=mod.N - 2)
        t = float(rng.choice([0, 0.5, 1]))
        for r in scale.check_gw_loop(mod, sug, X, f, xi, t):
            if not r.holds:
                violations += 1
    return float(violations), {"samples": GW_SAMPLES}, 0.0


def chk_exp_estimate(ctx):
    mod = ctx.virasoro()
    violations = 0
    X = FourierVectorField({2: 0.1, -2: 0.1})
    for n in (0, 1, 2):
        if not scale.check_exp_estimate(mod, X, n).holds:
            violations += 1
    return float(violations), {"orders": [0, 1, 2]}, 0.0


def chk_exp_difference_estimate(ctx):
    mod = ctx.virasoro()
    rng = ctx.rng("exp-difference-estimate")
    X = FourierVectorField({2: 0.3, -2: 0.3})
    xi = mod.random_vector(rng, max_level=mod.N - 2)
    violations = 0
    for delta in (1e-1, 1e-2, 1e-3):
        Y = X + FourierVectorField({1: delta, -1: delta})
        for n in (0, 1):
            if not scale.check_exp_difference(mod, X, Y, xi, n).holds:
                violations += 1
    return float(violations), {"deltas": [1e-1, 1e-2, 1e-3]}, 0.0


def chk_basic_estimates(ctx):
    """Randomized safe-window samples of ||pi(X)xi||_n <= |X|_{n+1}
    ||xi||_{n+1} and its commutator form on the three instances:
    Virasoro, Sugawara on affine sl2, and su(2)."""
    vir, aff, su2 = ctx.virasoro(), ctx.affine(), ctx.su2()
    rng = ctx.rng("basic-estimates")
    samples = 50

    def su2_vector():
        v = rng.normal(size=su2.dim) + 1j * rng.normal(size=su2.dim)
        return v / np.linalg.norm(v)

    instances = (
        (vir, lambda: _real_field(rng, (1, 2, 3)),
         lambda: vir.random_vector(rng, max_level=vir.N - 3)),
        (SugawaraAction(aff), lambda: _real_field(rng, (1, 2), 0.5),
         lambda: aff.random_vector(rng, max_level=aff.N - 2)),
        (su2, lambda: rng.normal(size=3), su2_vector),
    )
    violations = 0
    for rep, element, vector in instances:
        for _ in range(samples):
            X, xi = element(), vector()
            for n in (0, 1, 2):
                violations += sum(not r.holds for r in
                                  scale.check_basic_estimates(rep, X, xi, n))
    return float(violations), {
        "virasoro": {"c": str(vir.spec.c), "h": str(vir.spec.h), "N": vir.N},
        "sugawara": {"ell": aff.spec.ell, "lam": aff.spec.lam, "N": aff.N},
        "su2": [str(s) for s in su2.spins],
        "samples": samples, "orders": [0, 1, 2]}, 0.0


# ---------------------------------------------------------------------------
# Sugawara checks


def chk_sugawara_central_charge(ctx):
    """c = 2(<v, [L_2, L_{-2}] v> - 4 h0) on each lowest-level vector v."""
    mod = ctx.affine()
    sug = SugawaraAction(mod)
    ell = mod.spec.ell
    want = 3 * ell / (ell + 2)
    L2, Lm2 = sug.matrix(2), sug.matrix(-2)
    comm = np.diag(L2 @ Lm2 - Lm2 @ L2)[mod.level_of() == 0]
    c = 2 * (comm - 4 * sug.h0_shift)
    return float(np.abs(c - want).max()), {"ell": ell, "expected": want}, 0.0


def chk_sugawara_intertwining(ctx):
    """[L_m, x(n)] = -n x(m + n) on the safe window."""
    mod = ctx.affine()
    sug = SugawaraAction(mod)
    worst = 0.0
    for m in (-2, -1, 0, 1, 2):
        L = sug.matrix(m)
        for j in range(3):
            for n in (-1, 0, 1):
                Xn = mod.generator_matrix(("x", j, n))
                M = L @ Xn - Xn @ L + n * mod.generator_matrix(("x", j, m + n))
                d = mod.safe_dim(abs(m) + abs(n))
                worst = max(worst, float(np.abs(M[:d, :d]).max()))
    return worst, {"N": mod.N}, 0.0


def chk_sugawara_lowest_weight(ctx):
    mod = ctx.affine()
    sug = SugawaraAction(mod)
    L0 = sug.matrix(0)
    eigs = np.linalg.eigvalsh((L0 + L0.conj().T) / 2)
    want = float(sug.h0_shift)
    return abs(float(eigs.min()) - want), {"h0": want}, 0.0


# ---------------------------------------------------------------------------
# Nelson testbed checks


def chk_nelson_axis_angle(ctx):
    rep = ctx.su2()
    path = GeneratorPath(lambda t: np.array([0.4, -0.2, 0.9]))
    out = nelson.exponentiate_vs_oracle(rep, path, tol=1e-10)
    return out["axis-angle"], {"spins": [str(s) for s in rep.spins],
                               "unitarity": out["unitarity"]}, 0.0


def chk_nelson_full_turn(ctx):
    """The 2 pi rotation is (-1)^{2j} on each spin-j block."""
    rep = ctx.su2()
    axis = 2 * np.pi * np.array([0.0, 0.0, 1.0])
    P = product_integral(rep, GeneratorPath(lambda t: axis), tol=1e-10)
    want = np.empty(rep.dim)
    for sl, s in zip(rep.block_slices(), rep.spins):
        want[sl] = (-1) ** int(2 * s)
    return (float(np.abs(P.matrix - np.diag(want)).max()),
            {"spins": [str(s) for s in rep.spins]}, 0.0)


def chk_nelson_assumptions(ctx):
    """Finite constants on the sum; vanishing commutators on each block."""
    rep = ctx.su2()
    finite = all(r["finite"] for r in nelson.verify_assumptions(rep))
    comm = max(r["commutator_constant"] for s in rep.spins
               for r in nelson.verify_assumptions(nelson.FinDimRep((s,))))
    return ((comm if finite else float("inf")),
            {"spins": [str(s) for s in rep.spins]}, 0.0)


# ---------------------------------------------------------------------------
# extension cocycle checks


def chk_extension_cocycle(ctx):
    mod = ctx.virasoro()
    chart = grouprep.PhaseChart(_omega(mod))
    X = FourierVectorField({2: 1.0, -2: 1.0})
    Y = FourierVectorField({2: 1j, -2: -1j})
    rep = grouprep.extension_cocycle_check(mod, chart, Y, X, step=1e-3)
    return rep["difference"], {"expected": rep["expected"],
                               "step": rep["step"]}, 0.0


def chk_local_cocycle_invariance(ctx):
    mod = ctx.virasoro()
    chart = grouprep.PhaseChart(_omega(mod))
    Ug = expm(mod.pi(FourierVectorField({2: 0.3, -2: 0.3})))
    Uh = expm(mod.pi(FourierVectorField({2: 0.2j, -2: -0.2j})))
    c0 = grouprep.local_cocycle(chart, Ug, Uh)
    rng = ctx.rng("local-cocycle-invariance")
    worst = 0.0
    for _ in range(8):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        c = grouprep.local_cocycle(chart, np.exp(1j * a) * Ug,
                                   np.exp(1j * b) * Uh)
        worst = max(worst, abs(c - c0))
    return worst, {"value_arg": float(np.angle(c0))}, 0.0


# ---------------------------------------------------------------------------
# the catalog


CATALOG = {
    "vir-commutation": (
        chk_vir_commutation, 1e-9,
        "Virasoro relation [L_m, L_n] = (m-n)L_{m+n} + "
        "delta_{m+n,0} c (m^3-m)/12 on the safe window"),
    "projective-defect": (
        chk_projective_defect, 1e-9,
        "[pi(X), pi(Y)] - pi([X, Y]) = i B(X, Y) Id with the "
        "Gelfand-Fuks cocycle B"),
    "vir-gram-exact": (
        chk_vir_gram_exact, 0.0,
        "Shapovalov values: level-1 Gram [2h]; level-2 diagonal "
        "4h + c/2 and 8h^2 + 4h, exactly in rational arithmetic"),
    "vir-unitarity-region": (
        chk_vir_unitarity_region, 0.0,
        "PSD Gram through level 8 on discrete-series and c = 1 points; "
        "NotUnitarizable off the unitary set"),
    "rotation-phase": (
        chk_rotation_phase, 1e-8,
        "full 2 pi rotation acts as e^{2 pi i h} Id (diagonal L0 spectrum)"),
    "holonomy-phase": (
        chk_holonomy_phase, 5e-2,
        "scalar part of the contractible-loop propagator equals "
        "e^{i * double integral of B(X1, X2)}"),
    "holonomy-mobius": (
        chk_holonomy_mobius, 1e-6,
        "Moebius-span homotopies have trivial holonomy phase"),
    "up-properties": (
        chk_up_properties, 1.0,
        "U_p properties: exponential of constant generators, "
        "reparametrization invariance, concatenation, adjoints"),
    "prodint-convergence-order": (
        chk_prodint_convergence_order, 0.1,
        "left-rule product integral converges at first order (slope -1)"),
    "refinement-bound": (
        chk_refinement_bound, 1.0,
        "empirical dyadic refinement differences below the "
        "step-function difference estimate"),
    "dyson-order-scaling": (
        chk_dyson_order_scaling, 0.15,
        "order-k Dyson partial sum error scales as lambda^{k+1}"),
    "ode-norm-conservation": (
        chk_ode_norm_conservation, 1e-9,
        "homogeneous trajectories of real fields conserve the norm"),
    "ode-residual": (
        chk_ode_residual, 1e-4,
        "homogeneous trajectories satisfy xi' = pi(X(t)) xi"),
    "inhomogeneous-residual": (
        chk_inhomogeneous_residual, 1e-4,
        "Duhamel solution satisfies xi' = pi(X(t)) xi + eta"),
    "gateaux-central-difference": (
        chk_gateaux_central_difference, 1e-5,
        "Gateaux derivative of the solution map matches central "
        "finite differences"),
    "gw-virasoro-estimate": (
        chk_gw_virasoro_estimate, 0.0,
        "the Virasoro scale estimate with M = sqrt(c/12) on randomized "
        "safe-window samples"),
    "gw-loop-estimate": (
        chk_gw_loop_estimate, 0.0,
        "both loop-algebra scale estimates (the (ell+1)-weighted field "
        "bound) on randomized samples"),
    "exp-estimate": (
        chk_exp_estimate, 0.0,
        "||e^{pi(X)}||_{n->n} <= exp(2n |X|_{A,n})"),
    "exp-difference-estimate": (
        chk_exp_difference_estimate, 0.0,
        "difference of exponentials bounded by the seminorm of X - Y"),
    "sugawara-central-charge": (
        chk_sugawara_central_charge, 1e-8,
        "Sugawara central charge read off [L_2, L_{-2}] on the lowest "
        "level equals dim(g) ell/(ell + h_vee)"),
    "sugawara-intertwining": (
        chk_sugawara_intertwining, 1e-8,
        "[L_m, x(n)] = -n x(m+n) on the safe window"),
    "sugawara-lowest-weight": (
        chk_sugawara_lowest_weight, 1e-10,
        "lowest Sugawara L0 eigenvalue equals the Casimir shift "
        "(0 for the vacuum module)"),
    "nelson-axis-angle": (
        chk_nelson_axis_angle, 1e-12,
        "su(2) product integral matches the closed-form axis-angle "
        "exponential"),
    "nelson-full-turn": (
        chk_nelson_full_turn, 1e-9,
        "2 pi rotation acts as (-1)^{2j} on each spin-j block "
        "(double cover)"),
    "nelson-assumptions": (
        chk_nelson_assumptions, 1e-12,
        "scale-estimate constants finite; commutator constants vanish "
        "on each irreducible block"),
    "extension-cocycle": (
        chk_extension_cocycle, 1e-3,
        "finite-difference Lie-algebra cocycle of the local multiplier "
        "equals B(Y,X) - i(pi([Y,X]) xi, xi)"),
    "local-cocycle-invariance": (
        chk_local_cocycle_invariance, 1e-12,
        "local multiplier cocycle invariant under unit rescaling of "
        "the lifts"),
    "basic-estimates": (
        chk_basic_estimates, 0.0,
        "||pi(X)xi||_n <= |X|_{n+1} ||xi||_{n+1} and ||[A, pi(X)]xi||_n <= "
        "|X|_{A,n+1} ||xi||_{n+1} on Virasoro, Sugawara and su(2)"),
}


def run_check(check_id, ctx):
    """Execute one catalog check and return its report row."""
    func, default_bound, _ = CATALOG[check_id]
    bound = ctx.bound(check_id, default_bound)
    ctx.substituted = []
    t0 = time.perf_counter()
    try:
        measured, params, leakage = func(ctx)
        verdict = "pass" if measured <= bound else "fail"
    except Exception as exc:                      # failed row, not a crash
        measured, params, leakage = None, {"error": f"{type(exc).__name__}: {exc}"}, 0.0
        verdict = "error"
    wall = time.perf_counter() - t0
    if ctx.substituted:
        subs = ctx.substituted
        params = dict(params, module=subs[0] if len(subs) == 1 else subs)
    return {"check": check_id, "params": params, "measured": measured,
            "bound": bound, "verdict": verdict, "leakage": leakage,
            "wall_time": wall}
