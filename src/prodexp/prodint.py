"""Product integrals (time-ordered exponentials) on truncated modules.

The propagator of a generator path X is approximated by ordered products
of matrix exponentials over n uniform steps of its interval,

    Exp(Omega_n) ... Exp(Omega_1),   rightmost factor first,

with dyadic refinement until successive approximants agree on a probe
basis in a Sobolev-weighted norm.  The per-step exponent comes from one
of three rules, in two roles:

* ``"magnus4"``, the default, is the fourth-order Magnus rule (Iserles &
  Norsett 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009): with
  A_1, A_2 the path at the Gauss-Legendre nodes t_0 + (1/2 -+ sqrt(3)/6) D,
  Omega = D/2 (A_1 + A_2) + (sqrt(3)/12) D^2 [A_2, A_1].  Omega is
  skew-Hermitian for real paths, so every factor is exactly unitary.
  Every propagator consumer uses it: the ODE solvers, Gateaux
  derivatives, grouprep's U_p, flat sections and holonomy, and the su(2)
  cross-checks.
* the step scheme, ``"left"`` and ``"midpoint"``: Omega_k = D_k X(s_k)
  with s_k the left end or the midpoint of the step.  This is the
  paper's reference object, of first and second order.  The step-function
  difference estimate samples the left step functions, so it is recorded
  along the refinement exactly for ``"left"``: the ``refinement-bound``
  check reads it and ``prodint-convergence-order`` fits the left
  scheme's order.  ``"midpoint"`` is the second-order reference that
  tests compare ``"magnus4"`` against.

Each step's exponent Omega is formed once, the same matrix in both modes
of forming a product:

* dense: the dim x dim propagator, each step multiplied on as
  ``expm(Omega) @ U``.  The claims about the propagator itself use it:
  grouprep's U_p and its properties, the step-scheme checks and the
  su(2) cross-checks.
* vector: given a probe block V (dim x k), only U V is propagated.  Each
  step applies exp(Omega) to the block by a truncated Taylor series whose
  degree and substep count are fixed in advance from the exact 1-norm
  of Omega (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), one
  Omega-times-block product per term.  Refinement compares the
  propagated columns.  The consumers that read a propagator only through
  a few vectors use it: flat sections, the holonomy window and the one
  ODE solver, `solve_homogeneous`, of which the Duhamel and Gateaux
  solvers are single calls on a block-triangular generator.

Also: Dyson expansions.
"""

from __future__ import annotations

import bisect
import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm


class MaxRefinementExceeded(Exception):
    pass


class TruncationOverflow(Exception):
    """Raised when too much trajectory mass reaches the top buffer levels."""

    def __init__(self, fraction, t=None):
        self.fraction = fraction
        self.t = t
        super().__init__(f"top-level mass fraction {fraction:.2e}"
                         + (f" at t={t:.4f}" if t is not None else ""))


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


RULES = ("magnus4", "left", "midpoint")

# Gauss-Legendre nodes 1/2 -+ sqrt(3)/6 and the Magnus commutator weight
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
_MAGNUS_COMMUTATOR = np.sqrt(3.0) / 12.0


class Propagator:
    """A product with its construction record: the dense propagator,
    unitary for real paths, or in vector mode the propagated probe block."""

    def __init__(self, matrix, steps, refinement_error=None):
        self.matrix = matrix
        self.steps = steps
        # list of (steps, empirical difference, theoretical bound) triples
        self.refinement_error = refinement_error or []

    def __matmul__(self, other):
        if isinstance(other, Propagator):
            return self.matrix @ other.matrix
        return self.matrix @ other

    def unitarity_defect(self):
        U = self.matrix
        return float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())


class Trajectory:
    """Vectors xi(t_i) along a time grid."""

    def __init__(self, times, vectors):
        self.times = np.asarray(times, dtype=float)
        self.vectors = np.asarray(vectors)

    def norms(self):
        return np.linalg.norm(self.vectors, axis=1)

    def __getitem__(self, i):
        return self.vectors[i]


def _top_fraction(rep, v):
    """Leakage: the fraction of ||v|| in the top two retained levels."""
    lv = rep.level_of()
    top = lv.max()
    total = np.linalg.norm(v)
    if total == 0:
        return 0.0
    return float(np.linalg.norm(v[lv >= top - 1]) / total)


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


def step_product(rep, path, n, rule="magnus4", V=None):
    """Ordered product of exponentials over n uniform steps of
    path.interval, each step's exponent by `rule` (one of RULES); with a
    probe block V (dim x k), that product applied to V (vector mode)."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    bp = np.linspace(path.interval[0], path.interval[1], n + 1)
    widths = np.diff(bp)
    mid = bp[:-1] + widths / 2
    if rule == "magnus4":
        offset = _GAUSS_OFFSET * widths
        nodes = zip(mid - offset, mid + offset)
    else:
        nodes = zip(bp[:-1] if rule == "left" else mid)
    U = (np.eye(rep.dim, dtype=complex) if V is None
         else np.asarray(V, dtype=complex))
    for dt, ts in zip(widths, nodes):
        A = [rep.pi(path(t)) for t in ts]
        if rule == "magnus4":
            omega = (dt / 2) * (A[0] + A[1]) + (
                _MAGNUS_COMMUTATOR * dt * dt) * (A[1] @ A[0] - A[0] @ A[1])
        else:
            omega = dt * A[0]
        U = (expm(omega) @ U if V is None
             else _expm_action(omega.__matmul__, _norm1(omega), U))
    return Propagator(U, n)


def _probe_difference(rep, U1, U2, r, V=None):
    """max_j ||(U1 - U2) v_j||_r / ||v_j||_{r+1} over the probe columns:
    the coordinate basis e_j (dense mode) or the columns of V, where U1,
    U2 are the propagated blocks.  An exactly zero column counts as
    converged."""
    a = np.asarray(rep.a_diag(), dtype=float)
    if V is None:
        W = (a ** r)[:, None] * (U1 - U2) * (a ** (-(r + 1)))[None, :]
        return float(np.max(np.linalg.norm(W, axis=0)))
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


def product_integral(rep, path, tol=1e-8, r=0, n0=8, rule="magnus4",
                     max_steps=2 ** 20, V=None):
    """Dyadically refined product integral of a generator path.

    Successive refinements are compared on the probe columns in the
    ||A^r . A^{-r-1}|| weighted sense: the coordinate basis, or with a
    probe block V (dim x k) the columns of V, in which case only U V is
    propagated and returned as the Propagator's matrix.  For the "left"
    step scheme the difference-estimate bound, which samples its step
    functions, is recorded alongside each empirical difference; for the
    other rules the recorded bound is nan.
    """
    if V is not None:
        V = np.asarray(V, dtype=complex)
    n = n0
    U_prev = step_product(rep, path, n, rule, V).matrix
    record = []
    while True:
        n2 = 2 * n
        if n2 > max_steps:
            raise MaxRefinementExceeded(
                f"no convergence to {tol} within {max_steps} steps")
        U = step_product(rep, path, n2, rule, V).matrix
        diff = _probe_difference(rep, U_prev, U, r, V)
        bound = (_difference_bound(rep, path, n, r) if rule == "left"
                 else float("nan"))
        record.append((n2, diff, bound))
        if diff < tol:
            return Propagator(U, n2, record)
        U_prev, n = U, n2


def solve_homogeneous(rep, path, xi0, grid, tol=1e-8,
                      overflow_threshold=1e-6):
    """xi(t) = product integral over [t_0, t] applied to xi0, each grid
    segment in vector mode: the segment's refinement is tested on the
    vector it propagates.

    Monitors the trajectory-mass fraction in the top two levels and raises
    TruncationOverflow beyond `overflow_threshold` (set None to disable).
    """
    grid = np.asarray(grid, dtype=float)
    vecs = [np.asarray(xi0, dtype=complex)]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        seg = GeneratorPath(path.func, (t0, t1))
        v = product_integral(rep, seg, tol=tol, n0=4,
                             V=vecs[-1][:, None]).matrix[:, 0]
        if overflow_threshold is not None:
            frac = _top_fraction(rep, v)
            if frac > overflow_threshold:
                raise TruncationOverflow(frac, t=float(t1))
        vecs.append(v)
    return Trajectory(grid, vecs)


def cumulative_simpson(values, h):
    """Cumulative integral of uniformly sampled values (axis 0), fourth order.

    Even nodes accumulate composite Simpson pairs; odd nodes use the
    quadratic through the three nearest samples.
    """
    values = np.asarray(values)
    out = np.zeros_like(values, dtype=complex if np.iscomplexobj(values)
                        else float)
    n = len(values)
    for i in range(1, n):
        if i == 1:
            # quadratic through nodes 0,1,2 integrated over [0, h]
            if n >= 3:
                out[1] = h / 12.0 * (5 * values[0] + 8 * values[1] - values[2])
            else:
                out[1] = h / 2.0 * (values[0] + values[1])
        elif i % 2 == 0:
            out[i] = out[i - 2] + h / 3.0 * (values[i - 2] + 4 * values[i - 1]
                                             + values[i])
        else:
            out[i] = out[i - 1] + h / 12.0 * (5 * values[i] + 8 * values[i - 1]
                                              - values[i - 2])
    return out


# tau has no level: weight 1 is that of A = 1 + L0 at L0 = 0
_TAU_WEIGHT = 1.0


def _stacked_tail(rep, path, top, coupling, head0, head_weights, grid, tol):
    """Tail of the solution from (head0, 0) of the path t -> t under
    [[top(P), 0], [coupling(t), P]], P = pi(X(t)): the Duhamel integral
    int U(t, s) coupling(s) head(s) ds (Al-Mohy & Higham 2011, section 2)."""
    k = len(head0)
    weights = np.concatenate([head_weights, rep.a_diag()])

    def pi(t):
        P = rep.pi(path(t))
        M = np.zeros((len(weights),) * 2, dtype=complex)
        M[:k, :k], M[k:, :k], M[k:, k:] = top(P), coupling(t), P
        return M

    stacked = SimpleNamespace(dim=len(weights), a_diag=lambda: weights, pi=pi)
    v0 = np.concatenate([head0, np.zeros(rep.dim)])
    traj = solve_homogeneous(stacked, GeneratorPath(lambda t: t), v0, grid,
                             tol=tol, overflow_threshold=None)
    return Trajectory(grid, traj.vectors[:, k:])


def solve_inhomogeneous(rep, path, eta, grid, tol=1e-8):
    """J(t) = int_{t_0}^t Prod_{t>=tau>=s} Exp(X dtau) eta(s) ds: the tail
    of (tau, J) from (1, 0) under [[0, 0], [eta(t), pi(X(t))]]."""
    return _stacked_tail(rep, path, lambda P: 0,
                         lambda t: np.asarray(eta(t))[:, None],
                         [1.0], [_TAU_WEIGHT], grid, tol)


def gateaux_derivative(rep, path, xi0, direction, grid, tol=1e-8):
    """Derivative J of the solution map in the generator along
    `direction`, J' = pi(X) J + pi(direction) xi: the tail of the
    variational system (xi, J) from (xi0, 0) under
    [[pi(X), 0], [pi(direction(t)), pi(X(t))]]."""
    return _stacked_tail(rep, path, lambda P: P,
                         lambda t: rep.pi(direction(t)), xi0,
                         rep.a_diag(), grid, tol)


def dyson_expansion(rep, path, xi0, order, scaling, nodes=129):
    """Partial sum of the Dyson series for the path scaling*X at t = b.

    psi_0 = xi0; psi_j(t) = int_0^t pi(X(s)) psi_{j-1}(s) ds; returns
    sum_{j<=order} scaling^j psi_j(b).
    """
    a, b = path.interval
    grid = np.linspace(a, b, nodes)
    h = grid[1] - grid[0]
    mats = [rep.pi(path(t)) for t in grid]
    psi = np.tile(np.asarray(xi0, dtype=complex), (nodes, 1))
    total = np.asarray(xi0, dtype=complex).copy()
    for j in range(1, order + 1):
        integrand = np.array([M @ v for M, v in zip(mats, psi)])
        psi = cumulative_simpson(integrand, h)
        total = total + scaling ** j * psi[-1]
    return total


def change_of_variable_check(rep, path, phi, phi_prime, source_interval,
                             tol=1e-8):
    """Compare the product integral of X over phi(source_interval) with
    that of phi' . (X o phi) over source_interval; returns the operator-
    norm difference and the two propagators."""
    a, b = source_interval
    c, d = phi(a), phi(b)
    direct = product_integral(rep, GeneratorPath(path.func, (c, d)), tol=tol)
    pulled = product_integral(
        rep, GeneratorPath(lambda s: phi_prime(s) * path.func(phi(s)), (a, b)),
        tol=tol)
    diff = float(np.linalg.norm(direct.matrix - pulled.matrix, 2))
    return diff, direct, pulled
