"""Exponentiation of group paths on truncated highest-weight modules.

A smooth path of circle diffeomorphisms is exponentiated by feeding its
logarithmic derivative (a path of vector fields) to the product-integral
engine.  The module also provides:

* the standard properties of the path propagator U_p (constant paths,
  reparametrization invariance, concatenation, adjoints), tested on a
  probe block,
* flat homotopies over the unit square, of vector fields or of loop
  elements, and the holonomy phase e^{i * double integral of
  B(X_1, X_2)} relating the two boundary propagators, the integral
  taken by a tensor Gauss-Legendre rule (the integrand is analytic, so
  the rule converges exponentially in its nodes per axis),
* phase charts (u -> (u xi, xi)/|(u xi, xi)|), the local multiplier
  cocycle of a projective representation and the finite-difference
  extraction of its Lie-algebra cocycle B(Y, X) - i(pi([Y,X]) xi, xi).

Sign convention: the holonomy prediction is exp(+i * integral) with the
cocycle B defined by [pi(X), pi(Y)] = pi([X, Y]) + i B(X, Y); this sign
was calibrated once against the measured operator ratio on an e_{+-2}
flow loop and is frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liealg import FourierVectorField, bracket, seminorm
from .prodint import GeneratorPath, exponential, product_integral


class NonMonotone(ValueError):
    """theta -> phi(t, theta) is not certified strictly increasing."""


class CurvatureTooLarge(ValueError):
    """A homotopy's zero-curvature residual exceeds the checker tolerance."""


class BoundaryViolation(ValueError):
    """X_2 fails to vanish on the vertical boundary {0, 1} x I."""


class OutsideChart(ValueError):
    """(U xi, xi) too close to zero for the phase chart."""


# the largest last update, and the iteration cap, of the bracketed
# Newton solve for phi_t^{-1} in `circle_inverse`; the homotopy
# checkers' flatness and boundary tolerances, nodes per axis and the
# curvature's Sobolev order; the stopping tolerance, and the cap on the
# nodes per axis, of holonomy_phase's Gauss node doubling; the finest
# grid `log_derivative` doubles to while it settles phi' > 0 and the
# share of the norm it may drop; the smallest |(U xi, xi)| of a phase
# chart; the finite-difference step of `extension_cocycle_check`
ROOT_TOL = 1e-12
ROOT_MAXITER = 100
CURVATURE_TOL = 1e-6
BOUNDARY_TOL = 1e-10
CHECKER_NODES = 9
CURVATURE_ORDER = 1.0
QUAD_TOL = 1e-6
QUAD_MAX_NODES = 160
MAX_GRID = 2 ** 16
SPECTRAL_TAIL = 1e-9
CHART_THRESHOLD = 1e-12
COCYCLE_STEP = 1e-3


# ---------------------------------------------------------------------------
# circle-diffeomorphism paths


def _eval_series(coeffs, theta):
    """sum_n c_n e^{i n theta} on an array of angles."""
    out = np.zeros_like(theta, dtype=complex)
    for n, c in coeffs.items():
        out += c * np.exp(1j * n * theta)
    return out


class CirclePath:
    """A smooth path of orientation-preserving circle diffeomorphisms
    phi(t, theta), t in [0, 1], specified by two callables:

    * ``coeff(t)``  -> Fourier coefficients {n: c_n} of phi(t, .) - theta,
    * ``dcoeff(t)`` -> Fourier coefficients of the time derivative
      d/dt phi(t, .).

    Invariants: theta -> phi(t, theta) strictly increasing,
    phi(t, theta + 2 pi) = phi(t, theta) + 2 pi (automatic from the
    Fourier form) and phi(0, .) = id.  `exponentiate_path` takes a
    circle path; a path given by its generator is a `GeneratorPath`,
    which `verify_up_properties` and the product integrals take.
    """

    # the only form; perfbench's span tracer reads it
    form = "diffeo"

    def __init__(self, coeff, dcoeff):
        if dcoeff is None:
            raise ValueError("a circle path requires the dcoeff contract")
        self.coeff = coeff
        self.dcoeff = dcoeff
        c0 = coeff(0.0)
        if any(abs(complex(v)) > 1e-12 for v in c0.values()):
            raise ValueError("phi(0, .) must be the identity")

    @classmethod
    def rotation(cls, angle):
        """Constant-speed rigid rotation by `angle` over [0, 1]."""
        return cls(coeff=lambda t: {0: angle * t},
                   dcoeff=lambda t: {0: angle})


def circle_inverse(coeffs, theta, t):
    """phi^{-1}(theta) for phi(s) = s + Re sum_n c_n e^{ins}, at every angle.

    One vectorized Newton solve over all nodes: each iteration steps
    s -= (phi(s) - theta) / phi'(s) inside a per-node bracket, which
    starts at theta -+ (sum |c_n| + 0.1) and shrinks with the sign of
    each residual; a step that leaves the bracket bisects it instead.
    Stops once every node's update is at most ROOT_TOL; past
    ROOT_MAXITER iterations it raises ValueError naming t.
    """
    dcoeffs = {n: 1j * n * v for n, v in coeffs.items()}
    L = sum(abs(complex(v)) for v in coeffs.values()) + 0.1
    lo, hi = theta - L, theta + L
    s = theta
    for _ in range(ROOT_MAXITER):
        r = s + _eval_series(coeffs, s).real - theta
        lo = np.where(r < 0, s, lo)
        hi = np.where(r > 0, s, hi)
        new = s - r / (1.0 + _eval_series(dcoeffs, s).real)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - s).max() <= ROOT_TOL
        s = new
        if done:
            return s
    worst = np.abs(s + _eval_series(coeffs, s).real - theta).max()
    raise ValueError(f"phi_t^{{-1}} at t={t} did not converge in "
                     f"{ROOT_MAXITER} iterations (worst residual {worst:.3e})")


def _monotone_margin(coeffs, theta, t):
    """A lower bound on phi' over the whole circle, from the uniform grid
    `theta`; NonMonotone if phi' <= 0 at a node.

    phi' - 1 = Re sum_n i n c_n e^{ins} is a trigonometric polynomial of
    degree K = max |n| and sup norm at most S = sum_n |n c_n|, so by
    Bernstein's inequality its derivative is at most K S, and every
    angle lies within pi/M of a node of the M-point grid:
    min phi' >= min_grid phi' - (pi/M) K S.
    """
    dcoeffs = {n: 1j * n * v for n, v in coeffs.items()}
    K = max((abs(n) for n in coeffs), default=0)
    slack = np.pi * K * sum(abs(complex(v)) for v in dcoeffs.values())
    low = (1.0 + _eval_series(dcoeffs, theta).real).min()
    if low <= 0:
        raise NonMonotone(f"phi'(t={t}) = {low:.3e} <= 0 at some node")
    return low - slack / len(theta)


def log_derivative(path):
    """Logarithmic derivative of a circle path as a GeneratorPath on
    [0, 1].

    X(t)(theta) = d_t phi(t, phi_t^{-1}(theta)) d/dtheta, fitted
    spectrally on a uniform M-point theta grid (phi_t^{-1} at all nodes
    by `circle_inverse`) and kept to modes |n| <= M/4.  For each t, M
    starts at the least power of two, at least 8, above 4K (K the largest
    mode of coeff(t) and dcoeff(t), so no mode aliases into the kept
    band) and doubles until one grid both certifies phi_t' > 0 by
    `_monotone_margin` and drops at most SPECTRAL_TAIL of the samples'
    norm.  Past MAX_GRID nodes: NonMonotone if the certificate failed,
    else ValueError naming t, M and the dropped share.
    """
    def func(t):
        c, dc = path.coeff(t), path.dcoeff(t)
        K = max((abs(n) for n in (*c, *dc)), default=0)
        M = max(8, 1 << (4 * K).bit_length())
        while True:
            theta = 2 * np.pi * np.arange(M) / M
            margin = _monotone_margin(c, theta, t)
            if margin > 0:
                samples = _eval_series(dc, circle_inverse(c, theta, t))
                if (np.abs(samples.imag).max()
                        > 1e-9 * (1 + np.abs(samples).max())):
                    raise ValueError("time derivative is not real-valued")
                fft = np.fft.fft(samples.real) / M
                modes = range(-(M // 4), M // 4 + 1)
                share = (np.linalg.norm(np.delete(fft, [n % M for n in modes]))
                         / (np.linalg.norm(fft) or 1.0))
                if share <= SPECTRAL_TAIL:
                    return FourierVectorField({
                        n: complex(fft[n % M]) for n in modes
                        if abs(fft[n % M]) > 1e-14})
            if M >= MAX_GRID:
                if margin <= 0:
                    raise NonMonotone(f"phi'(t={t}) not certified positive "
                                      f"on {M} nodes: bound {margin:.3e}")
                raise ValueError(f"log_derivative at t={t}: the modes above "
                                 f"M/4 on M={M} carry {share:.3g} of the norm")
            M *= 2

    return GeneratorPath(func, (0.0, 1.0))


def exponentiate_path(rep, path, V, tol=1e-8):
    """U_p V for a CirclePath p and a probe block V: the product integral
    of its log derivative."""
    return product_integral(rep, log_derivative(path), V, tol=tol)


def scalar_part(rep, matrix, window):
    """(Rayleigh scalar, deviation) of a near-scalar operator.

    The scalar is trace/dimension over the coordinates of levels
    0..window; the deviation is the max entrywise distance from
    scalar * Id on that window.
    """
    d = int((rep.level_of() <= window).sum())
    block = matrix[:d, :d]
    s = complex(np.trace(block) / d)
    dev = float(np.abs(block - s * np.eye(d)).max())
    return s, dev


def verify_up_properties(rep, path, V, tol=1e-8):
    """Residuals of a GeneratorPath's propagator properties on the probe
    block V, keyed by name; each is the spectral norm of a dim x k
    difference block, every product integral refined to `tol` on the
    block it propagates.

    * ``constant-exponential``: for the path frozen at its initial value
      X0, U V equals e^{pi(X0)} V.
    * ``reparametrization``: U of phi' . (X o phi) over [0, 1] equals U
      of X, ||(U - U_pulled) V||, for the smoothstep
      phi(s) = a + (b - a)(3 - 2s) s^2 onto the interval [a, b].
    * ``concatenation``: U over [a, b] equals U over [m, b] times U over
      [a, m], U_2 (U_1 V) against U V, at m = a + (b - a)/3: the two
      pieces refine onto grids of their own, which the whole path's does
      not contain.
    * ``adjoint``: U_p^* equals the propagator U_rev of the reversed
      path, U_rev (U V) = V.
    """
    a, b = path.interval
    out = {}

    X0 = path(a)
    Pc = product_integral(rep, GeneratorPath.constant(X0, (0.0, 1.0)), V,
                          tol=tol)
    out["constant-exponential"] = float(
        np.linalg.norm(Pc.matrix - exponential(rep, X0) @ V, 2))

    def pulled_back(s):
        """phi'(s) X(phi(s)) for the smoothstep phi."""
        phi = a + (b - a) * ((3 - 2 * s) * s ** 2)
        return ((b - a) * (6 * s - 6 * s ** 2)) * path.func(phi)

    P = product_integral(rep, path, V, tol=tol)
    pulled = product_integral(rep, GeneratorPath(pulled_back, (0.0, 1.0)),
                              V, tol=tol)
    out["reparametrization"] = float(
        np.linalg.norm(P.matrix - pulled.matrix, 2))

    m = a + (b - a) / 3
    P1 = product_integral(rep, GeneratorPath(path.func, (a, m)), V, tol=tol)
    P2 = product_integral(rep, GeneratorPath(path.func, (m, b)), P1.matrix,
                          tol=tol)
    out["concatenation"] = float(np.linalg.norm(P2.matrix - P.matrix, 2))

    Pinv = product_integral(rep, path.reversed(), P.matrix, tol=tol)
    out["adjoint"] = float(np.linalg.norm(Pinv.matrix - V, 2))
    return out


# ---------------------------------------------------------------------------
# flat homotopies and holonomy


@dataclass
class FlatHomotopy:
    """Analytic zero-curvature data X_1, X_2 on the unit square.

    ``X1``/``X2`` map (x, y) to vector fields, or to loop elements on an
    affine module; ``d2X1``/``d1X2`` are the closed-form partial
    derivatives (the derivative contract), used by the curvature checker
    d_1 X_2 - d_2 X_1 = [X_1, X_2].
    """

    X1: object
    X2: object
    d2X1: object
    d1X2: object

    def curvature_residual(self):
        """Max Goodman-Wallach-weight of the curvature over the
        CHECKER_NODES x CHECKER_NODES grid, nan if any node's is."""
        grid = np.linspace(0.0, 1.0, CHECKER_NODES)
        return float(np.max([
            seminorm(self.d1X2(x, y) - self.d2X1(x, y)
                     - bracket(self.X1(x, y), self.X2(x, y)),
                     CURVATURE_ORDER)
            for x in grid for y in grid]))

    def boundary_residual(self):
        """Max size of X_2 on the vertical boundary {0,1} x I, nan if
        any node's is."""
        return float(np.max([seminorm(self.X2(x, y), 1)
                             for y in np.linspace(0.0, 1.0, CHECKER_NODES)
                             for x in (0.0, 1.0)]))

    def boundary_path(self, y):
        """x -> X_1(x, y) as a GeneratorPath on [0, 1] (a horizontal
        boundary)."""
        return GeneratorPath(lambda x: self.X1(x, y))


def _gauss_2d(f, n):
    """Tensor n-point Gauss-Legendre rule over the unit square."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    vals = np.array([[f(xi, yj) for yj in x] for xi in x])
    out = float(w @ vals @ w)
    if not np.isfinite(out):
        raise ValueError(f"Gauss value {out} over {n} nodes per axis "
                         "is not finite")
    return out


@dataclass
class HolonomyReport:
    predicted: complex          # exp(i * double integral of B(X1, X2))
    measured: complex           # scalar part of U_{p1} U_{p0}^{-1}
    deviation: float            # off-scalar deviation on the safe window
    integral: float             # the 2D Gauss value of B(X1, X2)
    quad_nodes: int             # Gauss nodes per axis
    curvature: float

    @property
    def mismatch(self):
        return abs(self.measured - self.predicted)


def holonomy_phase(rep, homotopy, window=3, tol=1e-7):
    """Predicted vs measured holonomy phase of a flat homotopy.

    The prediction is exp(i * integral of B(X_1, X_2)) over the square,
    by the tensor Gauss-Legendre rule with 5, 10, 20, ... nodes per axis
    until two successive values agree to QUAD_TOL (the last, finer one is
    kept, so for an analytic integrand its error is far below QUAD_TOL);
    a non-finite value, or two values at QUAD_MAX_NODES and half as many
    nodes per axis that still differ, raises ValueError naming the nodes
    per axis.  The measurement is the scalar part of U_{p_1} U_{p_0}^{-1}
    on the fixed comparison window of levels 0..window (fixed so that
    truncation sweeps over N compare like with like), where p_y is the
    horizontal boundary path x -> X_1(x, y), each integrated with the
    fourth-order Magnus rule.  Only the window columns are propagated:
    through the reversed p_0, whose propagator is U_{p_0}^{-1}, and then
    through p_1.
    """
    bnd = homotopy.boundary_residual()
    if not bnd <= BOUNDARY_TOL:                 # nan fails too
        raise BoundaryViolation(
            f"X_2 does not vanish on {{0,1}} x I (residual {bnd:.3e})")
    curv = homotopy.curvature_residual()
    if not curv < CURVATURE_TOL:
        raise CurvatureTooLarge(f"curvature residual {curv:.3e}")

    def integrand(x, y):
        B = rep.projective_cocycle(homotopy.X1(x, y), homotopy.X2(x, y))
        return complex(B).real

    n = 5
    I = _gauss_2d(integrand, n)
    while True:
        n *= 2
        I, prev = _gauss_2d(integrand, n), I
        if abs(I - prev) < QUAD_TOL:
            break
        if n >= QUAD_MAX_NODES:
            raise ValueError(f"Gauss values {prev!r} and {I!r} at {n // 2} "
                             f"and {n} nodes per axis differ by over QUAD_TOL")
    predicted = complex(np.exp(1j * I))

    d = int((rep.level_of() <= window).sum())
    W = np.eye(rep.dim, d, dtype=complex)
    for path in (homotopy.boundary_path(0.0).reversed(),
                 homotopy.boundary_path(1.0)):
        W = product_integral(rep, path, W, tol=tol).matrix
    measured, dev = scalar_part(rep, W, window)
    return HolonomyReport(predicted, measured, dev, I, n, curv)


def shrinking_loop_homotopy(k=2, alpha=0.16, beta=0.16):
    """A closed-form exactly flat homotopy contracting an e_{+-k} loop.

    H(x, y) = exp(y a(x) u) exp(y b(x) v) with u = e_k + e_{-k},
    v = i(e_k - e_{-k}), a(x) = alpha sin^2(pi x) and
    b(x) = beta sin^2(pi x) cos(pi x).  For each y this is a closed loop
    in x (a, b vanish at the endpoints); y = 0 is the constant path, so
    the bottom propagator is the identity and the holonomy phase is the
    scalar value of the full loop's propagator.  The logarithmic
    derivatives X_i = d_i H . H^{-1} are written in closed form in the
    (u, v, e_0) frame, so the curvature vanishes identically and X_2
    vanishes on {0, 1} x I.  For k = 1 the homotopy lives in the Moebius
    span and the phase is trivial; k >= 2 gives a nontrivial phase.
    """
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
        """cu*u + cv*v + c0*e_0 as a Fourier vector field (whose
        constructor drops the zero coefficients)."""
        return FourierVectorField({k: cu + 1j * cv, -k: cu - 1j * cv,
                                   0: complex(c0)})

    # d_x[exp(A u) exp(B v)] . (...)^{-1} = A_x u + B_x Ad_{exp(A u)} v
    # with Ad_{exp(A u)} v = cosh(2kA) v + 2 sinh(2kA) e_0, and the same
    # formula with d_y for X_2.
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


# ---------------------------------------------------------------------------
# phase charts and the local/extension cocycle


@dataclass(frozen=True)
class PhaseChart:
    """A chart basepoint: a unit vector xi in the module."""

    xi: np.ndarray = field()

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex)
        if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
            raise ValueError("chart basepoint must have unit norm")
        object.__setattr__(self, "xi", xi)


def phase_function(chart, U):
    """phase(U) = (U xi, xi)/|(U xi, xi)|; equivariant under U -> e^{i t} U.
    OutsideChart unless |(U xi, xi)| exceeds CHART_THRESHOLD."""
    z = complex(np.vdot(chart.xi, U @ chart.xi))
    if abs(z) <= CHART_THRESHOLD:
        raise OutsideChart(f"|(U xi, xi)| = {abs(z):.3e}")
    return z / abs(z)


def local_cocycle(chart, Ug, Uh):
    """phase(U_g U_h) / (phase(U_g) phase(U_h)).

    Invariant under independent unit rescaling of each lift: replacing
    U_g by e^{i a} U_g multiplies numerator and denominator by the same
    factor.
    """
    num = phase_function(chart, Ug @ Uh)
    return num / (phase_function(chart, Ug) * phase_function(chart, Uh))


def extension_cocycle_check(rep, chart, Y, X):
    """Finite-difference Lie-algebra cocycle of the local multiplication.

    The antisymmetrized second mixed central difference of
    arg local_cocycle(e^{s pi(Y)}, e^{t pi(X)}) at (0, 0) is compared
    against the closed form B(Y, X) - i (pi([Y, X]) xi, xi).  Returns a
    dict with both values and their difference; the accuracy is tied to
    the finite-difference step COCYCLE_STEP.
    """
    def mixed(u, v):
        total = 0.0
        for sy in (1.0, -1.0):
            for sx in (1.0, -1.0):
                c = local_cocycle(chart,
                                  exponential(rep, sy * COCYCLE_STEP * u),
                                  exponential(rep, sx * COCYCLE_STEP * v))
                total += sy * sx * float(np.angle(c))
        return total / (4.0 * COCYCLE_STEP * COCYCLE_STEP)

    measured = mixed(Y, X) - mixed(X, Y)
    B = complex(rep.projective_cocycle(Y, X))
    ip = complex(np.vdot(chart.xi, rep.pi(bracket(Y, X)) @ chart.xi))
    expected = B - 1j * ip
    if abs(expected.imag) > 1e-9 * (1 + abs(expected)):
        raise ValueError("expected cocycle value is not real")
    return {"measured": measured, "expected": expected.real,
            "difference": abs(measured - expected.real)}
