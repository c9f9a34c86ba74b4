"""Product integrals (time-ordered exponentials) on truncated modules.

The propagator of a generator path X is approximated by ordered products
of matrix exponentials over n uniform steps of its interval,

    Exp(Omega_n) ... Exp(Omega_1),   rightmost factor first,

with dyadic refinement until successive approximants agree on a probe
block in a Sobolev-weighted norm.  The per-step exponent comes from one
of two rules, in two roles:

* ``"magnus4"``, the default, is the fourth-order Magnus rule (Iserles &
  Norsett 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009): with
  X_1, X_2 the path at the Gauss-Legendre nodes
  t_0 + (1/2 -+ sqrt(3)/6) D and A_i = pi(X_i),
  Omega = D/2 (A_1 + A_2) + (sqrt(3)/12) D^2 [A_2, A_1].  Omega is
  skew-Hermitian for real paths, so every factor is exactly unitary.
  It is the propagator: the ODE solvers, Gateaux derivatives, grouprep's
  U_p and holonomy, and the su(2) cross-checks use it.
* ``"left"`` is the paper's step scheme: Omega_k = D_k X(t_k) with t_k
  the left end of the step, of first order.  The step-function
  difference estimate samples these step functions, so it is recorded
  along the refinement: the ``refinement-bound`` check reads it and
  ``prodint-convergence-order`` fits the scheme's order.

Each step's exponent Omega is formed once, by the representation:
``"left"`` takes D pi(X), and ``"magnus4"`` calls
``rep.magnus_exponent(X_1, X_2, D/2, (sqrt(3)/12) D^2)``, which forms it
with no dim x dim product where the algebra allows.  Since pi is linear,
[pi(X_2), pi(X_1)] is a bilinear form in the elements' coefficients: a
graded module sums cached generator commutators [G_k, G_l] with their
coefficients, in one accumulator with the G_k terms; on su(2)
[pi(x), pi(y)] = pi(x cross y), so Omega is one pi; and the stacked
generators of the Duhamel and Gateaux solvers assemble it from blocks
that are exponents of the representation, the Gateaux coupling block as
the polarization (Omega(X_i + D_i) - Omega(X_i - D_i)) / 2 along D.

A product is always taken on a probe block V (dim x k): only U V is
propagated.  Each step applies exp(Omega) to the block by a truncated
Taylor series whose degree and substep count are fixed in advance from
the exact 1-norm of Omega (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
2011), one Omega-times-block product per term, and refinement compares
the propagated columns.  A claim about the propagator itself is tested
on a few seeded probe columns (a Gaussian probe sees any nonzero defect
with probability 1), or on V = I where the dimension is small or the
coordinate basis is the claim; the holonomy window and the one ODE
solver, `solve_homogeneous`, propagate the vectors they read.  The
Duhamel and Gateaux solvers are single `solve_homogeneous` calls on a
block-triangular generator.  The solver refines each grid segment in
turn, starting each after the first at the level the previous one
converged at, and one level lower when magnus4's fourth order predicts
that the halved pair passes as well.

The package's one dense exponential, `exponential`, is that of a
constant element: the oracle of the constant-path claim, the exponential
estimates and the cocycle checks, by `numpy.linalg.eigh` of the
Hermitian i pi(X) (`expm`).  Also: the terms of Dyson expansions.
"""

from __future__ import annotations

import bisect
import math
from types import SimpleNamespace

import numpy as np


class MaxRefinementExceeded(Exception):
    pass


class GeneratorPath:
    """Map t -> Lie-algebra element on [a, b]; `func` must be pure."""

    def __init__(self, func, interval=(0.0, 1.0)):
        self.func = func
        self.interval = (float(interval[0]), float(interval[1]))

    @classmethod
    def constant(cls, X, interval=(0.0, 1.0)):
        return cls(lambda t: X, interval)

    def __call__(self, t):
        return self.func(t)

    def reversed(self):
        """t -> -X(a + b - t), the generator of the inverse propagator."""
        a, b = self.interval
        return GeneratorPath(lambda t: -1 * self.func(a + b - t),
                             self.interval)


RULES = ("magnus4", "left")

# uniform nodes of dyson_expansion's cumulative Simpson quadrature
DYSON_NODES = 129

# product_integral raises MaxRefinementExceeded past this many steps
MAX_STEPS = 2 ** 20

# Gauss-Legendre nodes 1/2 -+ sqrt(3)/6 and the Magnus commutator weight
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
_MAGNUS_COMMUTATOR = np.sqrt(3.0) / 12.0


class Propagator:
    """A refined product integral: the propagated probe block U V, its
    step count and its refinement record."""

    def __init__(self, matrix, steps, refinement_error):
        self.matrix = matrix
        self.steps = steps
        # list of (steps, empirical difference, theoretical bound) triples
        self.refinement_error = refinement_error


def expm(A):
    """e^A of a skew-Hermitian A: V diag(e^{-i w}) V^H, where
    i A = V diag(w) V^H.  ValueError when A + A^H exceeds 1e-12 of A's
    largest entry, since eigh reads one triangle only."""
    if np.abs(A + A.conj().T).max() > 1e-12 * np.abs(A).max():
        raise ValueError("expm takes a skew-Hermitian matrix")
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * w)) @ V.conj().T


def exponential(rep, X):
    """The dense exponential e^{pi(X)} of a constant element X."""
    return expm(rep.pi(X))


# The Taylor action: unit roundoff of double precision, and the largest
# degree it uses (the rounding of the partial sums grows like e^theta_m)
_UNIT_ROUNDOFF = 2.0 ** -53
_TAYLOR_MAX_DEGREE = 24


def _taylor_thetas():
    """theta_m for m = 1.._TAYLOR_MAX_DEGREE: the largest x with

        x^{m+1}/(m+1)! / (1 - x/(m+2)) <= u x,

    a bound on the remainder of the degree-m Taylor polynomial of exp at
    norm x, relative to x.  The fixed-point iterates alternate around
    the root, so the smaller of the last two lies below it.
    """
    out = []
    for m in range(1, _TAYLOR_MAX_DEGREE + 1):
        c = math.log(_UNIT_ROUNDOFF) + math.lgamma(m + 2)
        x = prev = 0.0
        for _ in range(40):
            prev, x = x, math.exp((c + math.log1p(-x / (m + 2))) / m)
        out.append(min(x, prev))
    return out


_THETAS = _taylor_thetas()


def _taylor_plan(norm):
    """(degree m, substeps s) for ||Omega||_1 <= norm: each substep's
    remainder is below u ||Omega/s||_1, so the s of them stay below
    u ||Omega||_1, a backward error of unit roundoff."""
    if norm == 0:
        return 0, 1
    s = max(1, math.ceil(norm / _THETAS[-1]))
    m = min(bisect.bisect_left(_THETAS, norm / s) + 1, _TAYLOR_MAX_DEGREE)
    return m, s


def _expm_action(apply, norm, V):
    """exp(Omega) V by s substeps of the degree-m Taylor polynomial of
    exp(Omega/s), with (m, s) from `_taylor_plan(norm)`; apply(W) is
    Omega W and norm bounds ||Omega||_1.  No term is tested for size."""
    m, s = _taylor_plan(norm)
    for _ in range(s):
        W = V
        for j in range(1, m + 1):
            W = apply(W)
            W *= 1.0 / (s * j)
            V = V + W
    return V


def _norm1(A):
    return float(np.abs(A).sum(axis=0).max())


def step_product(rep, path, n, V, rule="magnus4"):
    """The propagated block U V: the ordered product of exponentials over
    n uniform steps of path.interval, each step's exponent by `rule` (one
    of RULES), applied to the probe block V (dim x k)."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    bp = np.linspace(path.interval[0], path.interval[1], n + 1)
    U = np.asarray(V, dtype=complex)
    for i, (t0, dt) in enumerate(zip(bp, np.diff(bp))):
        if rule == "magnus4":
            mid, offset = t0 + dt / 2, _GAUSS_OFFSET * dt
            omega = rep.magnus_exponent(path(mid - offset), path(mid + offset),
                                        dt / 2, _MAGNUS_COMMUTATOR * dt * dt)
        else:
            omega = dt * rep.pi(path(t0))
        norm = _norm1(omega)
        if not norm <= _THETAS[-1] * MAX_STEPS:  # nan, or > MAX_STEPS substeps
            raise ValueError(f"{rule} step {i} of {n} at t={t0:.6g}: the "
                             f"exponent's 1-norm is {norm}")
        U = _expm_action(omega.__matmul__, norm, U)
    return U


def _probe_difference(rep, U1, U2, r, V):
    """max_j ||(U1 - U2) v_j||_r / ||v_j||_{r+1} over the probe columns
    v_j of V, where U1, U2 are the propagated blocks U V.  An exactly
    zero column counts as converged."""
    a = np.asarray(rep.a_diag(), dtype=float)
    num = np.linalg.norm((a ** r)[:, None] * (U1 - U2), axis=0)
    den = np.linalg.norm((a ** (r + 1))[:, None] * V, axis=0)
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return float(ratio.max(initial=0.0))


def _difference_bound(rep, path, n_coarse, r):
    """The step-function difference estimate between the n and 2n schemes:
    (b-a) sup|X_n - X_2n|_{r+1} exp(2(r+1)(b-a) sup|X|_{A,r+1})."""
    a, b = path.interval
    fine = np.linspace(a, b, 2 * n_coarse + 1)[:-1]
    sup_diff = 0.0
    sup_a = 0.0
    for i, t in enumerate(fine):
        Xf = path(t)
        t_coarse = fine[i - (i % 2)]
        sup_a = max(sup_a, rep.a_seminorm(Xf, r + 1))
        if i % 2:
            d = Xf - path(t_coarse)
            sup_diff = max(sup_diff, rep.seminorm(d, r + 1))
    return (b - a) * sup_diff * np.exp(2 * (r + 1) * (b - a) * sup_a)


def product_integral(rep, path, V, tol=1e-8, r=0, n0=8, rule="magnus4"):
    """Dyadically refined product integral of a generator path, applied
    to the probe block V (dim x k).

    Successive refinements are compared on the columns of V in the
    ||A^r . A^{-r-1}|| weighted sense, and U V is returned as the
    Propagator's matrix.  For the "left" step scheme the
    difference-estimate bound, which samples its step functions, is
    recorded alongside each empirical difference; for "magnus4" the
    recorded bound is nan.
    """
    n = n0
    U_prev = step_product(rep, path, n, V, rule)
    record = []
    while True:
        n2 = 2 * n
        if n2 > MAX_STEPS:
            raise MaxRefinementExceeded(
                f"no convergence to {tol} within {MAX_STEPS} steps")
        U = step_product(rep, path, n2, V, rule)
        diff = _probe_difference(rep, U_prev, U, r, V)
        bound = (_difference_bound(rep, path, n, r) if rule == "left"
                 else float("nan"))
        record.append((n2, diff, bound))
        if diff < tol:
            return Propagator(U, n2, record)
        U_prev, n = U, n2


def solve_homogeneous(rep, path, xi0, grid, tol=1e-8):
    """xi(t) = product integral over [t_0, t] applied to xi0, each grid
    segment's refinement tested on the vector it propagates.  Returns the (len(grid), dim) array of the
    xi(t_i).

    The first segment's refinement starts at 4 steps; each later one
    starts at the coarse level n of the previous segment's accepted
    n-vs-2n comparison, halved (down to 1) when that comparison passed
    with 16 times to spare.  Every segment still passes only on its own
    comparison below `tol`.

    Truncation is not monitored here: a report row measures the leakage
    of the vectors it reads.
    """
    grid = np.asarray(grid, dtype=float)
    vecs = [np.asarray(xi0, dtype=complex)]
    n0 = 4
    for t0, t1 in zip(grid[:-1], grid[1:]):
        seg = GeneratorPath(path.func, (t0, t1))
        P = product_integral(rep, seg, vecs[-1][:, None], tol=tol, n0=n0)
        # magnus4's n-vs-2n difference scales like n^-4 = 2^-4 per
        # halving, so with 16 diff < tol the halved pair is predicted
        # to pass as well
        n0 = P.steps // 2
        if 16 * P.refinement_error[-1][1] < tol:
            n0 = max(1, n0 // 2)
        vecs.append(P.matrix[:, 0])
    return np.array(vecs)


def cumulative_simpson(values, h):
    """Cumulative integral of at least three uniformly sampled values
    (axis 0), fourth order.

    Even nodes accumulate composite Simpson pairs; odd nodes add to the
    even node before them the quadratic through the three nearest
    samples (node 1: through nodes 0, 1, 2).
    """
    v = np.asarray(values)
    out = np.zeros_like(v, dtype=complex if np.iscomplexobj(v) else float)
    out[2::2] = np.cumsum(h / 3.0 * (v[:-2:2] + 4 * v[1:-1:2] + v[2::2]),
                          axis=0)
    out[1] = h / 12.0 * (5 * v[0] + 8 * v[1] - v[2])
    out[3::2] = out[2:-1:2] + h / 12.0 * (5 * v[3::2] + 8 * v[2:-1:2]
                                          - v[1:-2:2])
    return out


# tau has no level: weight 1 is that of A = 1 + L0 at L0 = 0
_TAU_WEIGHT = 1.0


def _stacked_tail(rep, blocks, head0, head_weights, grid, tol):
    """Tail of the solution from (head0, 0) of the path t -> t under
    S(t) = [[T(t), 0], [C(t), P(t)]], P = pi(X(t)): the Duhamel integral
    int U(t, s) C(s) head(s) ds (Al-Mohy & Higham 2011, section 2).

    blocks(t1, t2, h, w) gives the diagonal and coupling blocks of the
    magnus4 exponent h (S(t1) + S(t2)) + w [S(t2), S(t1)].  Its diagonal
    blocks are the exponents of T and P, and its coupling block is
    h (C_1 + C_2) + w (C_2 T_1 - C_1 T_2 + P_2 C_1 - P_1 C_2), so no
    product of stacked matrices is formed.  When T = P the coupling
    block is P's exponent polarized along C (`gateaux_derivative`)."""
    k = len(head0)
    weights = np.concatenate([head_weights, rep.a_diag()])

    def magnus_exponent(t1, t2, h, w):
        M = np.zeros((len(weights),) * 2, dtype=complex)
        M[:k, :k], M[k:, :k], M[k:, k:] = blocks(t1, t2, h, w)
        return M

    stacked = SimpleNamespace(dim=len(weights), a_diag=lambda: weights,
                              magnus_exponent=magnus_exponent)
    v0 = np.concatenate([head0, np.zeros(rep.dim)])
    return solve_homogeneous(stacked, GeneratorPath(lambda t: t), v0, grid,
                             tol=tol)[:, k:]


def solve_inhomogeneous(rep, path, eta, grid, tol=1e-8):
    """J(t) = int_{t_0}^t Prod_{t>=tau>=s} Exp(X dtau) eta(s) ds: the tail
    of (tau, J) from (1, 0) under [[0, 0], [eta(t), pi(X(t))]].  With
    T = 0 the exponent's coupling block is h (eta_1 + eta_2)
    + w (P_2 eta_1 - P_1 eta_2), and its bottom block X's own."""
    def blocks(t1, t2, h, w):
        X1, X2 = path(t1), path(t2)
        P1, P2 = rep.pi(X1), rep.pi(X2)
        e1, e2 = np.asarray(eta(t1)), np.asarray(eta(t2))
        return (0, (h * (e1 + e2) + w * (P2 @ e1 - P1 @ e2))[:, None],
                rep.magnus_exponent(X1, X2, h, w))

    return _stacked_tail(rep, blocks, [1.0], [_TAU_WEIGHT], grid, tol)


def gateaux_derivative(rep, path, xi0, direction, grid, tol=1e-8):
    """Derivative J of the solution map in the generator along
    `direction`, J' = pi(X) J + pi(direction) xi: the tail of the
    variational system (xi, J) from (xi0, 0) under
    [[pi(X), 0], [pi(direction(t)), pi(X(t))]].  With T = P both
    diagonal blocks are X's exponent M(X_1, X_2), and the coupling block,
    M's derivative along D, is exactly the polarization
    (M(X_1 + D_1, X_2 + D_2) - M(X_1 - D_1, X_2 - D_2)) / 2: M is quadratic."""
    def blocks(t1, t2, h, w):
        X1, X2, D1, D2 = path(t1), path(t2), direction(t1), direction(t2)
        P = rep.magnus_exponent(X1, X2, h, w)
        return P, (rep.magnus_exponent(X1 + D1, X2 + D2, h, w)
                   - rep.magnus_exponent(X1 - D1, X2 - D2, h, w)) / 2, P

    return _stacked_tail(rep, blocks, xi0, rep.a_diag(), grid, tol)


def dyson_expansion(rep, path, xi0, order):
    """The terms psi_0 .. psi_order of the Dyson series at t = b, as rows.

    psi_0 = xi0; psi_j(t) = int_a^t pi(X(s)) psi_{j-1}(s) ds on
    DYSON_NODES nodes.  The partial sum for the path h X is
    sum_{j<=k} h^j psi_j.
    """
    a, b = path.interval
    grid = np.linspace(a, b, DYSON_NODES)
    h = grid[1] - grid[0]
    mats = [rep.pi(path(t)) for t in grid]
    psi = np.tile(np.asarray(xi0, dtype=complex), (DYSON_NODES, 1))
    terms = [psi[-1]]
    for _ in range(order):
        integrand = np.array([M @ v for M, v in zip(mats, psi)])
        psi = cumulative_simpson(integrand, h)
        terms.append(psi[-1])
    return np.array(terms)
