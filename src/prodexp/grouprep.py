"""Exponentiation of group paths on truncated highest-weight modules.

A smooth path of circle diffeomorphisms is exponentiated by feeding its
logarithmic derivative (a path of vector fields) to the product-integral
engine.  The module also provides:

* the standard properties of the path propagator U_p (constant paths,
  reparametrization invariance, concatenation, adjoints),
* flat homotopies over the unit square, their integrable sections and the
  holonomy phase e^{i * double integral of B(X_1, X_2)} relating the two
  boundary propagators,
* phase charts (u -> (u xi, xi)/|(u xi, xi)|), the local multiplier
  cocycle of a projective representation and the finite-difference
  extraction of its Lie-algebra cocycle B(Y, X) - i(pi([Y,X]) xi, xi).

Sign convention: the holonomy prediction is exp(+i * integral) with the
cocycle B defined by [pi(X), pi(Y)] = pi([X, Y]) + i B(X, Y); this sign
was calibrated once against the measured operator ratio on an e_{+-2}
flow loop and is frozen here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from .liealg import CentralElement, FourierVectorField, bracket_vect, seminorm
from .prodint import GeneratorPath, Propagator, product_integral


class NonMonotone(ValueError):
    """theta -> phi(t, theta) fails strict monotonicity at some node."""


class CurvatureTooLarge(ValueError):
    """A homotopy's zero-curvature residual exceeds the checker tolerance."""


class BoundaryViolation(ValueError):
    """X_2 fails to vanish on the vertical boundary {0, 1} x I."""


class OutsideChart(ValueError):
    """(U xi, xi) too close to zero for the phase chart."""


# root-finding tolerance of phi_t^{-1} in log_derivative; the flatness
# and boundary tolerances of the homotopy checkers; the stopping
# tolerance of holonomy_phase's Simpson panel doubling
ROOT_TOL = 1e-12
CURVATURE_TOL = 1e-6
BOUNDARY_TOL = 1e-10
QUAD_TOL = 1e-6


# ---------------------------------------------------------------------------
# circle-diffeomorphism paths


def _eval_series(coeffs, theta):
    """sum_n c_n e^{i n theta} on an array of angles."""
    out = np.zeros_like(theta, dtype=complex)
    for n, c in coeffs.items():
        out += c * np.exp(1j * n * theta)
    return out


class CirclePath:
    """A path of orientation-preserving circle diffeomorphisms.

    Either holds a generator path directly (generator form) or a smooth
    family phi(t, theta) in diffeo form, specified by two callables:

    * ``coeff(t)``  -> Fourier coefficients {n: c_n} of phi(t, .) - theta,
    * ``dcoeff(t)`` -> Fourier coefficients of the time derivative
      d/dt phi(t, .).

    Diffeo-form invariants: theta -> phi(t, theta) strictly increasing,
    phi(t, theta + 2 pi) = phi(t, theta) + 2 pi (automatic from the
    Fourier form) and phi(t0, .) = id.
    """

    def __init__(self, generator=None, coeff=None, dcoeff=None,
                 interval=(0.0, 1.0), grid_size=128):
        if (generator is None) == (coeff is None):
            raise ValueError("exactly one of generator/coeff is required")
        if coeff is not None and dcoeff is None:
            raise ValueError("diffeo form requires the dcoeff contract")
        if grid_size & (grid_size - 1):
            raise ValueError("grid_size must be a power of two")
        self.generator = generator
        self.coeff = coeff
        self.dcoeff = dcoeff
        self.interval = (float(interval[0]), float(interval[1]))
        self.grid_size = int(grid_size)
        if coeff is not None:
            c0 = coeff(self.interval[0])
            if any(abs(complex(v)) > 1e-12 for v in c0.values()):
                raise ValueError("phi(t0, .) must be the identity")

    @property
    def form(self):
        return "generator" if self.generator is not None else "diffeo"

    @classmethod
    def rotation(cls, angle, interval=(0.0, 1.0)):
        """Constant-speed rigid rotation by `angle` over the interval."""
        a, b = interval
        return cls(coeff=lambda t: {0: angle * (t - a) / (b - a)},
                   dcoeff=lambda t: {0: angle / (b - a)},
                   interval=interval, grid_size=8)


def log_derivative(path):
    """Logarithmic derivative of a circle path as a GeneratorPath.

    Diffeo form: X(t)(theta) = d_t phi(t, phi_t^{-1}(theta)) d/dtheta,
    fitted spectrally on a uniform M-point theta grid (M = grid_size, a
    power of two) and kept to modes |n| <= M/4; phi_t^{-1} is evaluated
    by monotone root-finding per node.  Generator form passes through
    unchanged.
    """
    if path.form == "generator":
        return path.generator
    M = path.grid_size
    max_modes = max(M // 4, 1)
    theta = 2 * np.pi * np.arange(M) / M
    cache = {}

    def func(t):
        t = float(t)
        hit = cache.get(t)
        if hit is not None:
            return hit
        c = path.coeff(t)
        dc = path.dcoeff(t)
        # strict monotonicity of phi_t on the grid
        dphi = 1.0 + _eval_series({n: 1j * n * v for n, v in c.items()},
                                  theta).real
        if dphi.min() <= 0:
            raise NonMonotone(
                f"phi'(t={t}) = {dphi.min():.3e} <= 0 at some node")

        def phi(s):
            return s + _eval_series(c, np.asarray(s, dtype=float)).real

        L = sum(abs(complex(v)) for v in c.values()) + 0.1
        inv = np.array([brentq(lambda s, tj=tj: float(phi(s)) - tj,
                               tj - L, tj + L, xtol=ROOT_TOL)
                        for tj in theta])
        samples = _eval_series(dc, inv)
        if np.abs(samples.imag).max() > 1e-9 * (1 + np.abs(samples).max()):
            raise ValueError("time derivative is not real-valued")
        fft = np.fft.fft(samples.real) / M
        coeffs = {}
        for n in range(-max_modes, max_modes + 1):
            a = fft[n % M]
            if abs(a) > 1e-14:
                coeffs[n] = complex(a)
        out = CentralElement(FourierVectorField(coeffs))
        cache[t] = out
        return out

    return GeneratorPath(func, path.interval)


def exponentiate_path(rep, path, tol=1e-8):
    """U_p: the product integral of the path's logarithmic derivative."""
    if isinstance(path, GeneratorPath):
        gen = path
    else:
        gen = log_derivative(path)
    return product_integral(rep, gen, tol=tol)


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


def verify_up_properties(rep, path, reparam=None, split=0.5, tol=1e-8):
    """Residuals of the standard propagator properties, keyed by name.

    * ``constant-exponential``: for the path frozen at its initial value,
      U equals the matrix exponential of the generator.
    * ``reparametrization``: U of phi' . (X o phi) equals U of X for an
      orientation-preserving reparametrization phi of the interval.
    * ``concatenation``: U over [a, b] equals U over [s, b] times U over
      [a, s].
    * ``adjoint``: U_p^* equals the propagator of the reversed path.
    """
    from .prodint import change_of_variable_check
    gen = path if isinstance(path, GeneratorPath) else log_derivative(path)
    a, b = gen.interval
    out = {}

    X0 = gen(a)
    Pc = product_integral(rep, GeneratorPath.constant(X0, (0.0, 1.0)), tol=tol)
    out["constant-exponential"] = float(
        np.abs(Pc.matrix - expm(rep.pi(X0))).max())

    if reparam is None:
        reparam = (lambda s: a + (b - a) * ((3 - 2 * s) * s ** 2) / 1.0,
                   lambda s: (b - a) * (6 * s - 6 * s ** 2))
        src = (0.0, 1.0)
    else:
        src = (a, b)
    d, _, _ = change_of_variable_check(rep, gen, reparam[0], reparam[1],
                                       src, tol=tol)
    out["reparametrization"] = float(d)

    s = a + split * (b - a)
    P = product_integral(rep, gen, tol=tol)
    P1 = product_integral(rep, GeneratorPath(gen.func, (a, s)), tol=tol)
    P2 = product_integral(rep, GeneratorPath(gen.func, (s, b)), tol=tol)
    out["concatenation"] = float(np.abs(P2.matrix @ P1.matrix
                                        - P.matrix).max())

    Pinv = product_integral(rep, gen.reversed(), tol=tol)
    out["adjoint"] = float(np.abs(P.matrix.conj().T - Pinv.matrix).max())
    return out


# ---------------------------------------------------------------------------
# flat homotopies and holonomy


@dataclass
class FlatHomotopy:
    """Analytic zero-curvature data X_1, X_2 on the unit square.

    ``X1``/``X2`` map (x, y) to CentralElements; ``d2X1``/``d1X2`` are
    the closed-form partial derivatives (the derivative contract), used
    by the curvature checker d_1 X_2 - d_2 X_1 = [X_1, X_2].
    """

    X1: object
    X2: object
    d2X1: object
    d1X2: object
    name: str = ""

    def curvature_residual(self, nodes=9, s=1.0):
        """Max Goodman-Wallach-weight of the curvature over a grid."""
        grid = np.linspace(0.0, 1.0, nodes)
        worst = 0.0
        for x in grid:
            for y in grid:
                X1 = self.X1(x, y)
                X2 = self.X2(x, y)
                resid = (self.d1X2(x, y).base - self.d2X1(x, y).base
                         - bracket_vect(X1.base, X2.base))
                worst = max(worst, seminorm(resid, s))
        return worst

    def boundary_residual(self, nodes=9):
        """Max size of X_2 on the vertical boundary {0,1} x I."""
        worst = 0.0
        for y in np.linspace(0.0, 1.0, nodes):
            for x in (0.0, 1.0):
                X2 = self.X2(x, y)
                worst = max(worst, seminorm(X2.base, 1)
                            + abs(complex(X2.central)))
        return worst

    def boundary_path(self, y, interval=(0.0, 1.0)):
        """x -> X_1(x, y) as a GeneratorPath (a horizontal boundary)."""
        return GeneratorPath(lambda x: self.X1(x, y), interval)


@dataclass
class FlatSectionResult:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray          # (nx, ny, dim)
    residual1: float            # d_1 F = pi(X_1) F, interior nodes
    residual2: float            # d_2 F = pi(X_2) F, interior nodes


def flat_section(rep, homotopy, xi0, nx=9, ny=9, tol=1e-8):
    """The section F with dF = pi(X_i) F dx_i and F(0, 0) = xi0.

    Computed as in the integrability construction: a horizontal product
    integral along the bottom edge followed by vertical product
    integrals, F(x, y) = Prod Exp(X_2(x, v) dv) Prod Exp(X_1(u, 0) du) xi0,
    each propagating the section's vector alone (vector mode).  Both
    partial-derivative residuals are measured by central differences on
    interior nodes.
    """
    curv = homotopy.curvature_residual()
    if curv >= CURVATURE_TOL:
        raise CurvatureTooLarge(f"curvature residual {curv:.3e}")
    xs = np.linspace(0.0, 1.0, nx)
    ys = np.linspace(0.0, 1.0, ny)
    kw = dict(tol=tol, n0=4)
    F = np.empty((nx, ny, rep.dim), dtype=complex)
    bottom = np.asarray(xi0, dtype=complex)
    F[0, 0] = bottom
    for i in range(1, nx):
        seg = GeneratorPath(lambda u: homotopy.X1(u, 0.0),
                            (xs[i - 1], xs[i]))
        bottom = product_integral(rep, seg, V=bottom[:, None],
                                  **kw).matrix[:, 0]
        F[i, 0] = bottom
    for i, x in enumerate(xs):
        v = F[i, 0]
        for j in range(1, ny):
            seg = GeneratorPath(lambda w, x=x: homotopy.X2(x, w),
                                (ys[j - 1], ys[j]))
            v = product_integral(rep, seg, V=v[:, None], **kw).matrix[:, 0]
            F[i, j] = v
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    r1 = r2 = 0.0
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            lhs1 = (F[i + 1, j] - F[i - 1, j]) / (2 * hx)
            lhs2 = (F[i, j + 1] - F[i, j - 1]) / (2 * hy)
            r1 = max(r1, float(np.linalg.norm(
                lhs1 - rep.pi(homotopy.X1(xs[i], ys[j])) @ F[i, j])))
            r2 = max(r2, float(np.linalg.norm(
                lhs2 - rep.pi(homotopy.X2(xs[i], ys[j])) @ F[i, j])))
    return FlatSectionResult(xs, ys, F, r1, r2)


def _simpson_2d(f, n):
    """Composite Simpson over the unit square with n (even) panels/axis."""
    x = np.linspace(0.0, 1.0, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * n
    vals = np.array([[f(xi, yj) for yj in x] for xi in x])
    return float(np.einsum("i,j,ij->", w, w, vals))


@dataclass
class HolonomyReport:
    predicted: complex          # exp(i * double integral of B(X1, X2))
    measured: complex           # scalar part of U_{p1} U_{p0}^{-1}
    deviation: float            # off-scalar deviation on the safe window
    integral: float             # the 2D Simpson value of B(X1, X2)
    quad_panels: int
    curvature: float

    @property
    def mismatch(self):
        return abs(self.measured - self.predicted)


def holonomy_phase(rep, homotopy, window=3, tol=1e-7):
    """Predicted vs measured holonomy phase of a flat homotopy.

    The prediction is exp(i * Simpson integral of B(X_1, X_2)) over the
    square (panels doubled until stable to QUAD_TOL); the measurement is
    the scalar part of U_{p_1} U_{p_0}^{-1} on the fixed comparison
    window of levels 0..window (fixed so that truncation sweeps over N
    compare like with like), where p_y is the horizontal boundary path
    x -> X_1(x, y), each integrated with the fourth-order Magnus rule.
    Only the window columns are propagated: through the reversed p_0,
    whose propagator is U_{p_0}^{-1}, and then through p_1.
    """
    bnd = homotopy.boundary_residual()
    if bnd > BOUNDARY_TOL:
        raise BoundaryViolation(
            f"X_2 does not vanish on {{0,1}} x I (residual {bnd:.3e})")
    curv = homotopy.curvature_residual()
    if curv >= CURVATURE_TOL:
        raise CurvatureTooLarge(f"curvature residual {curv:.3e}")

    # the nodes of each panel doubling include the previous grid's
    # bit for bit, so each distinct node is evaluated once
    @functools.cache
    def integrand(x, y):
        B = rep.projective_cocycle(homotopy.X1(x, y), homotopy.X2(x, y))
        return complex(B).real

    n = 8
    I = _simpson_2d(integrand, n)
    while True:
        I2 = _simpson_2d(integrand, 2 * n)
        if abs(I2 - I) < QUAD_TOL:
            I, n = I2, 2 * n
            break
        I, n = I2, 2 * n
    predicted = complex(np.exp(1j * I))

    d = int((rep.level_of() <= window).sum())
    W = np.eye(rep.dim, d, dtype=complex)
    for path in (homotopy.boundary_path(0.0).reversed(),
                 homotopy.boundary_path(1.0)):
        W = product_integral(rep, path, tol=tol, V=W).matrix
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
        """cu*u + cv*v + c0*e_0 as a Fourier vector field."""
        coeffs = {}
        if cu or cv:
            coeffs[k] = cu + 1j * cv
            coeffs[-k] = cu - 1j * cv
        if c0:
            coeffs[0] = complex(c0)
        return CentralElement(FourierVectorField(coeffs))

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

    return FlatHomotopy(X1, X2, d2X1, d1X2,
                        name=f"shrinking-loop-k{k}")


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


def _matrix_of(U):
    return U.matrix if isinstance(U, Propagator) else np.asarray(U)


def phase_function(chart, U, threshold=1e-12):
    """phase(U) = (U xi, xi)/|(U xi, xi)|; equivariant under U -> e^{i t} U."""
    M = _matrix_of(U)
    z = complex(np.vdot(chart.xi, M @ chart.xi))
    if abs(z) <= threshold:
        raise OutsideChart(f"|(U xi, xi)| = {abs(z):.3e}")
    return z / abs(z)


def local_cocycle(chart, Ug, Uh):
    """phase(U_g U_h) / (phase(U_g) phase(U_h)).

    Invariant under independent unit rescaling of each lift: replacing
    U_g by e^{i a} U_g multiplies numerator and denominator by the same
    factor.
    """
    G, H = _matrix_of(Ug), _matrix_of(Uh)
    num = phase_function(chart, G @ H)
    return num / (phase_function(chart, G) * phase_function(chart, H))


def extension_cocycle_check(rep, chart, Y, X, step=1e-3):
    """Finite-difference Lie-algebra cocycle of the local multiplication.

    The antisymmetrized second mixed central difference of
    arg local_cocycle(e^{s pi(Y)}, e^{t pi(X)}) at (0, 0) is compared
    against the closed form B(Y, X) - i (pi([Y, X]) xi, xi).  Returns a
    dict with both values and their difference; the accuracy is tied to
    the finite-difference step.
    """
    if not isinstance(X, CentralElement):
        X = CentralElement(X)
    if not isinstance(Y, CentralElement):
        Y = CentralElement(Y)
    PY, PX = rep.pi(Y), rep.pi(X)

    def mixed(P, Q):
        total = 0.0
        for sy in (1.0, -1.0):
            for sx in (1.0, -1.0):
                c = local_cocycle(chart, expm(sy * step * P),
                                  expm(sx * step * Q))
                total += sy * sx * float(np.angle(c))
        return total / (4.0 * step * step)

    measured = mixed(PY, PX) - mixed(PX, PY)
    B = complex(rep.projective_cocycle(Y, X))
    br = bracket_vect(Y.base, X.base)
    ip = complex(np.vdot(chart.xi, rep.pi(br) @ chart.xi))
    expected = B - 1j * ip
    if abs(expected.imag) > 1e-9 * (1 + abs(expected)):
        raise ValueError("expected cocycle value is not real")
    return {"measured": measured, "expected": expected.real,
            "difference": abs(measured - expected.real), "step": step}
