"""Named verification checks for the experiment runner.

Each check is a pure function of a CheckContext returning a report row
{check, params, measured, bound, verdict, leakage, wall_time}.  The
measured value is a residual or violation count; the verdict is "pass"
iff measured <= bound.  All randomness derives from the descriptor seed
(one independent stream per check, keyed by its id), so a rerun with
the same descriptor reproduces the rows bit for bit apart from wall
times.  A row that ran on a default module, because the descriptor
names none of the kind the check needs, names that module in
`params["module"]` (descriptor JSON; a list when there are several).

Rows are the one place truncation is measured: `leakage` is the
`_top_fraction` of the final vector a check propagates, or None.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .liealg import FourierVectorField, LoopAlgebraElement, bracket
from .hwmod import (NotUnitarizable, affine_spec, build_module, build_verma,
                    discrete_series_c, discrete_series_h, virasoro_spec)
from .prodint import (GeneratorPath, dyson_expansion, exponential,
                      gateaux_derivative, product_integral, solve_homogeneous,
                      solve_inhomogeneous, step_product)
from . import grouprep, nelson, scale


# the module a check runs on when the descriptor names none of its kind,
# keyed by descriptor kind
DEFAULTS = {
    "virasoro": virasoro_spec(Fraction(1, 2), Fraction(1, 16), 8),
    "affine_sl2": affine_spec(1, 0, 4),
    "su2": nelson.FinDimRep((Fraction(1, 2), Fraction(3, 2))),
}


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
            self._modules[key] = (build_module(spec) if self.cache is None
                                  else self.cache.load_or_build(spec)[0])
        return self._modules[key]

    def rep(self, kind):
        """The descriptor's representation of `kind` ("virasoro",
        "affine_sl2" or "su2"), or the DEFAULTS one, recorded in
        `substituted`.  Module specs are built, su(2) sums are their own
        representation."""
        spec = self.module_spec
        if spec is None or spec.descriptor()["kind"] != kind:
            spec = DEFAULTS[kind]
            if spec.descriptor() not in self.substituted:
                self.substituted.append(spec.descriptor())
        return spec if kind == "su2" else self.build(spec)

    def bound(self, check_id, default):
        return float(self.tolerances.get(check_id, default))


def _oscillator(scale):
    def f(t):
        a = scale * np.exp(1j * t)
        return FourierVectorField({1: a, -1: a.conjugate()})
    return GeneratorPath(f)


def _top_fraction(rep, v):
    """Leakage: the fraction of ||v|| in the top two retained levels."""
    lv = rep.level_of()
    top = lv.max()
    total = np.linalg.norm(v)
    if total == 0:
        return 0.0
    return float(np.linalg.norm(v[lv >= top - 1]) / total)


def _omega(mod):
    xi = np.zeros(mod.dim, dtype=complex)
    xi[0] = 1.0
    return xi


def _probe_block(mod, rng):
    """Four unit columns with independent complex Gaussian entries, drawn
    from the check's own stream.  For such a column v and any operator D,
    E ||D v||^2 = ||D||_F^2 / dim: a probe's norm estimates the Frobenius
    norm over sqrt(dim), not the largest entry, and it sees any nonzero D
    with probability 1 (Freivalds 1977)."""
    V = rng.normal(size=(mod.dim, 4)) + 1j * rng.normal(size=(mod.dim, 4))
    return V / np.linalg.norm(V, axis=0)


# ---------------------------------------------------------------------------
# algebra / module checks


def _safe_dim(mod, depth):
    """`mod.safe_dim(depth)`; ValueError naming depth and N when the
    safe window is empty (depth > N)."""
    d = mod.safe_dim(depth)
    if d == 0:
        raise ValueError(f"the safe window of depth {depth} is empty "
                         f"at N={mod.N}")
    return d


def _projective_defect(mod, X, Y, depth):
    """B(X, Y) and the residual of [pi(X), pi(Y)] - pi([X, Y]) =
    i B(X, Y) Id on the safe window of the given depth."""
    d = _safe_dim(mod, depth)
    PX, PY = mod.pi(X), mod.pi(Y)
    M = PX @ PY - PY @ PX - mod.pi(bracket(X, Y))
    B = complex(mod.projective_cocycle(X, Y))
    return B, float(np.abs(M[:d, :d] - 1j * B * np.eye(d)).max())


def chk_vir_commutation(ctx):
    """Safe-window residual of the Virasoro commutation relation."""
    mod = ctx.rep("virasoro")
    win = 2
    worst = 0.0
    for m in range(-win, win + 1):
        for n in range(-win, win + 1):
            _, res = _projective_defect(mod, FourierVectorField({m: 1.0}),
                                        FourierVectorField({n: 1.0}),
                                        abs(m) + abs(n))
            worst = max(worst, res)
    return worst, {"window": win, "N": mod.N}, None


def chk_projective_defect(ctx):
    """[pi(X), pi(Y)] - pi([X, Y]) = i B(X, Y) Id for e_{+-2} flows."""
    mod = ctx.rep("virasoro")
    B, res = _projective_defect(mod, FourierVectorField({2: 1.0, -2: 1.0}),
                                FourierVectorField({2: 1j, -2: -1j}), 4)
    return res, {"B": B.real}, None


def chk_loop_projective_defect(ctx):
    """[pi(u), pi(v)] - pi([u, v]) = i B(u, v) Id for the Heisenberg pair
    u = h(1) - h(-1), v = i(h(1) + h(-1)), whose loop bracket is 0 and
    whose cocycle is 4 ell."""
    mod = ctx.rep("affine_sl2")
    B, res = _projective_defect(
        mod, LoopAlgebraElement({1: (0, 1, 0), -1: (0, -1, 0)}),
        LoopAlgebraElement({1: (0, 1j, 0), -1: (0, 1j, 0)}), 1)
    return res, {"B": B.real}, None


def chk_vir_gram_exact(ctx):
    """Exact low-level Shapovalov values in rational arithmetic."""
    c, h = Fraction(1, 2), Fraction(1, 16)
    verma = build_verma(virasoro_spec(c, h, 4))
    g1 = verma.gram(1)
    g2 = verma.gram(2)
    ok = (g1[0][0] == 2 * h
          and g2[0][0] == 4 * h + c / 2          # (L_{-2}, L_{-2})
          and g2[1][1] == 8 * h * h + 4 * h)     # (L_{-1}^2, L_{-1}^2)
    return (0.0 if ok else 1.0), {"c": str(c), "h": str(h)}, None


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
    return float(bad), {"points": len(points) + 1}, None


def chk_rotation_phase(ctx):
    """Full-turn propagator is e^{2 pi i h} Id on the truncation:
    ||(U - e^{2 pi i h}) V||_2 on V = [Omega | probes].

    The rotation's generator is diagonal with spectrum i(h + k), k the
    level, so every step is exact and the value is rounding; a wrong
    phase on any level moves the probe columns by its size over
    sqrt(dim) (`_probe_block`), far above the bound.  Leakage is that of
    the propagated lowest vector, column 0.
    """
    mod = ctx.rep("virasoro")
    V = np.column_stack([_omega(mod),
                         _probe_block(mod, ctx.rng("rotation-phase"))])
    W = grouprep.exponentiate_path(
        mod, grouprep.CirclePath.rotation(2 * np.pi), V, tol=1e-10).matrix
    want = np.exp(2j * np.pi * float(mod.h0))
    measured = float(np.linalg.norm(W - want * V, 2))
    return measured, {"h": str(mod.h0)}, _top_fraction(mod, W[:, 0])


def chk_holonomy_phase(ctx):
    """Measured vs predicted holonomy phase of the e_{+-2} loop."""
    mod = ctx.rep("virasoro")
    rep = grouprep.holonomy_phase(mod, grouprep.shrinking_loop_homotopy(k=2))
    return rep.mismatch, {"N": mod.N, "predicted_arg": float(np.angle(rep.predicted)),
                          "deviation": rep.deviation}, None


def chk_holonomy_mobius(ctx):
    """Moebius-span homotopy: holonomy phase 1."""
    mod = ctx.rep("virasoro")
    rep = grouprep.holonomy_phase(mod, grouprep.shrinking_loop_homotopy(k=1))
    return abs(rep.measured - 1.0), {"N": mod.N}, None


def chk_up_properties(ctx):
    """Propagator properties: constant/reparam/concatenation/adjoint,
    each the spectral norm of a difference block on four probe columns
    (`grouprep.verify_up_properties`), over its own bound.

    Each identity holds exactly for the propagator, and every product
    integral is refined to 1e-8 on the columns it propagates, so the
    entries read rounding or integration error (at N=8 reparametrization
    8.9e-10 and concatenation 2.8e-9, the others below 1e-14), under
    bounds of 1e-9 to 1e-5.  A failed identity D moves the probe columns
    by about ||D||_F / sqrt(dim) (`_probe_block`): never by 0, and by
    the defect's size where it is spread over the module.
    """
    mod = ctx.rep("virasoro")
    V = _probe_block(mod, ctx.rng("up-properties"))
    res = grouprep.verify_up_properties(mod, _oscillator(0.2), V, tol=1e-8)
    bounds = {"constant-exponential": 1e-9, "reparametrization": 1e-5,
              "concatenation": 1e-6, "adjoint": 1e-6}
    measured = max(res[k] / bounds[k] for k in bounds)
    return measured, {k: res[k] for k in sorted(res)}, None


# ---------------------------------------------------------------------------
# product-integral engine checks


def _order_slope(mod, path, rule, steps, V, ref):
    """The log-log slope of ||step_product(n) V - ref||_2 against the
    step counts n."""
    errs = [np.linalg.norm(step_product(mod, path, n, V, rule) - ref, 2)
            for n in steps]
    return float(np.polyfit(np.log(steps), np.log(errs), 1)[0])


def chk_prodint_convergence_order(ctx):
    """log-log slope of error vs step count for the left-rule scheme,
    against a fourth-order Magnus reference, on four probe columns.

    The left rule's error is first order in the step, and on a probe
    block it is that error's Frobenius norm over sqrt(dim)
    (`_probe_block`): the constant changes, not the power, so the slope
    is -1 and the bound 0.1 leaves no room for another order.
    """
    mod = ctx.rep("virasoro")
    path = _oscillator(0.5)
    V = _probe_block(mod, ctx.rng("prodint-convergence-order"))
    ref = product_integral(mod, path, V, tol=1e-8).matrix
    steps = [8, 16, 32, 64, 128]
    slope = _order_slope(mod, path, "left", steps, V, ref)
    return abs(slope + 1.0), {"slope": slope, "steps": steps}, None


def chk_magnus4_order(ctx):
    """log-log slope of the magnus4 step product's error at n = 4, 8,
    16, 32 steps, against its own 512-step product, on four probe
    columns.

    The rule is fourth order, so the slope is -4; a wrong commutator
    (flipped sign or dropped) or Gauss nodes moved to the step midpoint
    leave a second-order rule, slope -2.  The bound 1 on |slope + 4| is
    half that gap: a second-order rule misses it by 2, twice the bound,
    and the fourth-order rule's drift before its asymptotic range uses
    under half of it (slopes -4.02, -4.09 and -4.44 at N = 8, 12 and 16,
    against -2.00 to -2.01 under each of the three defects).  The probe
    block measures the error's Frobenius norm over sqrt(dim)
    (`_probe_block`), which scales with the step as the error does.
    """
    mod = ctx.rep("virasoro")
    path = _oscillator(0.5)
    V = _probe_block(mod, ctx.rng("magnus4-order"))
    ref = step_product(mod, path, 512, V)
    steps = [4, 8, 16, 32]
    slope = _order_slope(mod, path, "magnus4", steps, V, ref)
    return abs(slope + 4.0), {"slope": slope, "steps": steps}, None


def chk_refinement_bound(ctx):
    """Empirical refinement differences stay below the difference bound.

    On this path, with r = 0, the estimate's factor
    exp(2 (r+1) sup|X|_{A,r+1}) is about 1.6, so the ratio is about 0.08
    at every N and a 12x larger difference fails.  The differences are
    the supremum over the coordinate basis, V = I, which is what the
    estimate bounds; four random probes average over the basis and read
    less of it (0.057 against 0.075 at N=8).
    """
    mod = ctx.rep("virasoro")
    P = product_integral(mod, _oscillator(0.05), np.eye(mod.dim), tol=1e-3,
                         r=0, rule="left")
    ratios = [emp / bnd for _, emp, bnd in P.refinement_error]
    return max(ratios), {"levels": len(ratios)}, None


def chk_dyson_order_scaling(ctx):
    """Dyson partial sums converge at order k + 1 in the scaling.

    The reference is exact: P = pi(e_0) = i L_0 is diagonal and pi(e_n)
    lowers the level by n, so pi(X(t)) = e^{-tP} pi(X(0)) e^{tP} on the
    truncation for the oscillator X(t) = a e^{it} e_1 + conj(a) e^{-it}
    e_{-1}.  Then eta = e^{tP} xi solves eta' = (P + h pi(X(0))) eta when
    xi' = h pi(X(t)) xi, so xi(1) = e^{-P} e^{pi(e_0 + h X(0))} xi0.
    """
    mod = ctx.rep("virasoro")
    path = _oscillator(1.0)
    xi0 = _omega(mod)
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    e0 = FourierVectorField({0: 1.0})
    back = exponential(mod, -e0)
    psi = dyson_expansion(mod, path, xi0, 3)
    errs = []
    for h in hs:
        exact = back @ (exponential(mod, e0 + h * path(0.0)) @ xi0)
        sums = list(accumulate(h ** k * psi[k] for k in range(4)))
        errs.append([np.linalg.norm(s - exact) for s in sums[1:]])
    slopes = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return (float(np.abs(slopes - [2, 3, 4]).max()),
            {f"k{k}": float(s) for k, s in enumerate(slopes, 1)}, None)


def chk_ode_norm_conservation(ctx):
    mod = ctx.rep("virasoro")
    xi0 = mod.random_vector(ctx.rng("ode-norm-conservation"),
                            max_level=mod.N - 4)
    traj = solve_homogeneous(mod, _oscillator(0.3), xi0,
                             np.linspace(0, 1, 17), tol=1e-9)
    return (float(np.abs(np.linalg.norm(traj, axis=1) - 1).max()),
            {"grid": 17}, _top_fraction(mod, traj[-1]))


def _residual(mod, path, grid, traj, eta=lambda t: 0):
    """max ||xi' - pi(X) xi - eta|| on grid nodes 2..len(grid)-3, xi' by
    the fourth-order central difference: at h = 1/128 the second-order
    stencil's own error is about the size of the bound."""
    h = grid[1] - grid[0]
    return float(max(np.linalg.norm(
        (-traj[i + 2] + 8 * traj[i + 1] - 8 * traj[i - 1] + traj[i - 2])
        / (12 * h) - mod.pi(path(grid[i])) @ traj[i] - eta(grid[i]))
        for i in range(2, len(grid) - 2)))


def chk_ode_residual(ctx):
    mod = ctx.rep("virasoro")
    path = _oscillator(0.3)
    xi0 = mod.random_vector(ctx.rng("ode-residual"), max_level=mod.N - 3)
    grid = np.linspace(0, 1, 129)
    traj = solve_homogeneous(mod, path, xi0, grid, tol=1e-9)
    return (_residual(mod, path, grid, traj), {"grid": 129},
            _top_fraction(mod, traj[-1]))


def chk_inhomogeneous_residual(ctx):
    mod = ctx.rep("virasoro")
    path = _oscillator(0.3)
    w = mod.random_vector(ctx.rng("inhomogeneous-residual"),
                          max_level=mod.N - 3)
    grid = np.linspace(0, 1, 129)

    def eta(t):
        return np.cos(2 * t) * w

    J = solve_inhomogeneous(mod, path, eta, grid, tol=1e-9)
    return (_residual(mod, path, grid, J, eta), {"grid": 129},
            _top_fraction(mod, J[-1]))


def chk_gateaux_central_difference(ctx):
    mod = ctx.rep("virasoro")
    path = _oscillator(0.3)
    delta = GeneratorPath(lambda t: FourierVectorField(
        {2: 0.2 * np.sin(t), -2: 0.2 * np.sin(t)}), (0, 1))
    grid = np.linspace(0, 1, 65)
    xi0 = mod.random_vector(ctx.rng("gateaux-central-difference"),
                            max_level=mod.N - 3)
    traj = gateaux_derivative(mod, path, xi0, delta, grid, tol=1e-9)
    eps = 1e-4

    def shifted(s):
        return GeneratorPath(lambda t: path(t) + s * delta(t), (0, 1))

    plus = solve_homogeneous(mod, shifted(eps), xi0, grid, tol=1e-10)
    minus = solve_homogeneous(mod, shifted(-eps), xi0, grid, tol=1e-10)
    fd = (plus[-1] - minus[-1]) / (2 * eps)
    rel = float(np.linalg.norm(traj[-1] - fd) / np.linalg.norm(fd))
    return rel, {"eps": eps}, _top_fraction(mod, traj[-1])


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
    mod = ctx.rep("virasoro")
    rng = ctx.rng("gw-virasoro-estimate")
    violations = 0
    for _ in range(GW_SAMPLES):
        X = _real_field(rng, (1, 2, 3))
        xi = mod.random_vector(rng, max_level=mod.N - 3)
        t = float(rng.choice([0, 0.5, 1, 1.5, -1]))
        if not scale.check_gw_virasoro(mod, X, xi, t).holds:
            violations += 1
    return float(violations), {"samples": GW_SAMPLES}, None


def chk_gw_loop_estimate(ctx):
    """Randomized samples of both loop-algebra scale inequalities."""
    mod = ctx.rep("affine_sl2")
    rng = ctx.rng("gw-loop-estimate")
    violations = 0
    # each sample checks both inequalities
    for _ in range(GW_SAMPLES // 2):
        a = complex(*rng.normal(size=2))
        b = float(rng.normal())
        X = LoopAlgebraElement({1: (a, b, 0.5 * a),
                                -1: (-0.5 * a.conjugate(), -b,
                                     -a.conjugate())})
        f = _real_field(rng, (1,), 0.5)
        xi = mod.random_vector(rng, max_level=mod.N - 2)
        t = float(rng.choice([0, 0.5, 1]))
        for r in scale.check_gw_loop(mod, X, f, xi, t):
            if not r.holds:
                violations += 1
    return float(violations), {"samples": GW_SAMPLES}, None


def chk_exp_estimate(ctx):
    mod = ctx.rep("virasoro")
    violations = 0
    X = FourierVectorField({2: 0.1, -2: 0.1})
    for n in (0, 1, 2):
        if not scale.check_exp_estimate(mod, X, n).holds:
            violations += 1
    return float(violations), {"orders": [0, 1, 2]}, None


def chk_exp_difference_estimate(ctx):
    mod = ctx.rep("virasoro")
    rng = ctx.rng("exp-difference-estimate")
    X = FourierVectorField({2: 0.3, -2: 0.3})
    xi = mod.random_vector(rng, max_level=mod.N - 2)
    violations = 0
    for delta in (1e-1, 1e-2, 1e-3):
        Y = X + FourierVectorField({1: delta, -1: delta})
        for n in (0, 1):
            if not scale.check_exp_difference(mod, X, Y, xi, n).holds:
                violations += 1
    return float(violations), {"deltas": [1e-1, 1e-2, 1e-3]}, None


def chk_basic_estimates(ctx):
    """Randomized safe-window samples of ||pi(X)xi||_n <= |X|_{n+1}
    ||xi||_{n+1} and its commutator form on the three instances:
    Virasoro, Sugawara on affine sl2, and su(2)."""
    vir, aff = ctx.rep("virasoro"), ctx.rep("affine_sl2")
    su2 = ctx.rep("su2")
    rng = ctx.rng("basic-estimates")
    samples = 50

    def su2_vector():
        v = rng.normal(size=su2.dim) + 1j * rng.normal(size=su2.dim)
        return v / np.linalg.norm(v)

    instances = (
        (vir, lambda: _real_field(rng, (1, 2, 3)),
         lambda: vir.random_vector(rng, max_level=vir.N - 3)),
        (aff, lambda: _real_field(rng, (1, 2), 0.5),
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
        "samples": samples, "orders": [0, 1, 2]}, None


# ---------------------------------------------------------------------------
# Sugawara checks


def chk_sugawara_central_charge(ctx):
    """c = 2(<v, [L_2, L_{-2}] v> - 4 h0) on each lowest-level vector v."""
    mod = ctx.rep("affine_sl2")
    ell = mod.spec.ell
    want = 3 * ell / (ell + 2)
    L2, Lm2 = mod.generator_matrix(("L", 2)), mod.generator_matrix(("L", -2))
    comm = np.diag(L2 @ Lm2 - Lm2 @ L2)[mod.level_of() == 0]
    c = 2 * (comm - 4 * float(mod.h0))
    return float(np.abs(c - want).max()), {"ell": ell, "expected": want}, None


def chk_sugawara_intertwining(ctx):
    """[L_m, x(n)] = -n x(m + n) on the safe window."""
    mod = ctx.rep("affine_sl2")
    worst = 0.0
    for m in (-2, -1, 0, 1, 2):
        L = mod.generator_matrix(("L", m))
        for j in range(3):
            for n in (-1, 0, 1):
                Xn = mod.generator_matrix(("x", j, n))
                M = L @ Xn - Xn @ L + n * mod.generator_matrix(("x", j, m + n))
                d = _safe_dim(mod, abs(m) + abs(n))
                worst = max(worst, float(np.abs(M[:d, :d]).max()))
    return worst, {"N": mod.N}, None


def chk_sugawara_lowest_weight(ctx):
    mod = ctx.rep("affine_sl2")
    L0 = mod.generator_matrix(("L", 0))
    eigs = np.linalg.eigvalsh((L0 + L0.conj().T) / 2)
    want = float(mod.h0)
    return abs(float(eigs.min()) - want), {"h0": want}, None


# ---------------------------------------------------------------------------
# Nelson testbed checks


def chk_nelson_axis_angle(ctx):
    """The su(2) propagator against the axis-angle closed form, on
    V = I: the sum of spins is small (dim 6 by default), so the whole
    propagator, and its unitarity, are read."""
    rep = ctx.rep("su2")
    x = np.array([0.4, -0.2, 0.9])
    U = product_integral(rep, GeneratorPath(lambda t: x), np.eye(rep.dim),
                         tol=1e-10).matrix
    err = float(np.abs(U - nelson.axis_angle_oracle(rep, x)).max())
    unitarity = float(np.abs(U.conj().T @ U - np.eye(rep.dim)).max())
    return err, {"spins": [str(s) for s in rep.spins],
                 "unitarity": unitarity}, None


def chk_nelson_full_turn(ctx):
    """The 2 pi rotation is (-1)^{2j} on each spin-j block, read on
    V = I (dim 6 by default)."""
    rep = ctx.rep("su2")
    axis = 2 * np.pi * np.array([0.0, 0.0, 1.0])
    P = product_integral(rep, GeneratorPath(lambda t: axis), np.eye(rep.dim),
                         tol=1e-10)
    want = np.empty(rep.dim)
    for sl, s in zip(rep.block_slices(), rep.spins):
        want[sl] = (-1) ** int(2 * s)
    return (float(np.abs(P.matrix - np.diag(want)).max()),
            {"spins": [str(s) for s in rep.spins]}, None)


def chk_nelson_assumptions(ctx):
    """Finite constants on the sum; vanishing commutators on each block."""
    rep = ctx.rep("su2")
    finite = all(r["finite"] for r in nelson.verify_assumptions(rep))
    comm = max(r["commutator_constant"] for s in rep.spins
               for r in nelson.verify_assumptions(nelson.FinDimRep((s,))))
    return ((comm if finite else float("inf")),
            {"spins": [str(s) for s in rep.spins]}, None)


# ---------------------------------------------------------------------------
# extension cocycle checks


def chk_extension_cocycle(ctx):
    mod = ctx.rep("virasoro")
    chart = grouprep.PhaseChart(_omega(mod))
    X = FourierVectorField({2: 1.0, -2: 1.0})
    Y = FourierVectorField({2: 1j, -2: -1j})
    rep = grouprep.extension_cocycle_check(mod, chart, Y, X)
    return rep["difference"], {"expected": rep["expected"],
                               "step": grouprep.COCYCLE_STEP}, None


def chk_local_cocycle_invariance(ctx):
    mod = ctx.rep("virasoro")
    chart = grouprep.PhaseChart(_omega(mod))
    Ug = exponential(mod, FourierVectorField({2: 0.3, -2: 0.3}))
    Uh = exponential(mod, FourierVectorField({2: 0.2j, -2: -0.2j}))
    c0 = grouprep.local_cocycle(chart, Ug, Uh)
    rng = ctx.rng("local-cocycle-invariance")
    worst = 0.0
    for _ in range(8):
        a, b = rng.uniform(0, 2 * np.pi, size=2)
        c = grouprep.local_cocycle(chart, np.exp(1j * a) * Ug,
                                   np.exp(1j * b) * Uh)
        worst = max(worst, abs(c - c0))
    return worst, {"value_arg": float(np.angle(c0))}, None


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
        "empirical dyadic refinement differences of the left rule below "
        "the step-function difference estimate, on a path whose "
        "exponential factor is of order 1 (ratio about 0.08)"),
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
    "loop-projective-defect": (
        chk_loop_projective_defect, 1e-9,
        "[pi(u), pi(v)] - pi([u, v]) = i ell omega(u, v) Id on the "
        "safe window for a Heisenberg pair of loops (cocycle 4 ell)"),
    "magnus4-order": (
        chk_magnus4_order, 1.0,
        "magnus4 step product converges at fourth order (slope -4); a "
        "second-order rule misses by 2"),
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
        measured, params, leakage = None, {"error": f"{type(exc).__name__}: {exc}"}, None
        verdict = "error"
    wall = time.perf_counter() - t0
    if ctx.substituted:
        subs = ctx.substituted
        params = dict(params, module=subs[0] if len(subs) == 1 else subs)
    return {"check": check_id, "params": params, "measured": measured,
            "bound": bound, "verdict": verdict, "leakage": leakage,
            "wall_time": wall}
