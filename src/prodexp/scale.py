"""Sobolev scale of A = 1 + L0 and numerical verification of the
operator estimates.

`rep` arguments below are representations: a GradedModule (Virasoro, or
affine with the Sugawara L_n) or the su(2) testbed's FinDimRep.  Each
provides

* `dim`, `pi(element) -> dim x dim matrix` of an algebra element, and
  `magnus_exponent(X1, X2, h, w)`, a magnus4 step's exponent;
* `a_diag()`, the diagonal of A in the working basis (A is diagonal
  throughout), and `level_of()`, the grading level of each coordinate;
* `seminorm(X, t)` and `a_seminorm(X, t)`, the representation's own
  constants |X|_t and |X|_{A,t} in its commutator estimates; on a module
  |X|_{A,t} is |[L_0, X]|_t, the seminorm of the mode derivative.

A module's |X|_t is Goodman and Wallach's: `gw_virasoro_seminorm` on a
Virasoro module, and on an affine sl2 module `gw_loop_seminorm` of a loop
element or `gw_field_seminorm` of a vector field.

Module representations add `N`, `safe_dim(depth)`, `central_charge`
(`check_gw_virasoro` reads it) and `projective_cocycle` (holonomy reads it).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .liealg import DIM_G, seminorm
from .prodint import exponential


class SobolevScale:
    """Powers of the diagonal operator A >= 1 and the norms they induce."""

    def __init__(self, rep):
        self.diag = np.asarray(rep.a_diag(), dtype=float)
        if self.diag.min() < 1 - 1e-12:
            raise ValueError("scale operator must satisfy A >= 1")

    def power(self, t):
        return self.diag ** t

    def norm(self, v, t=0.0):
        """The Sobolev norm ||v||_t = ||A^t v||."""
        return float(np.linalg.norm(self.power(t) * np.asarray(v)))

    def operator_norm(self, M, s, t):
        """||A^s M A^{-t}||, the norm of M as a map H^t -> H^s."""
        W = self.power(s)[:, None] * M * self.power(-t)[None, :]
        return float(np.linalg.norm(W, 2))


# ---------------------------------------------------------------------------
# seminorms with explicit constants


def _fold_index(t):
    """The negative-index convention |X|_{-n} = |X|_{n+1}."""
    return 1 - t if t < 0.5 else t


def gw_virasoro_seminorm(X, t, c):
    """|X|_t = sqrt(2)||X||_{t-1} + M(||X||_t + ||X||_{t+1/2}), M=(c/12)^{1/2}."""
    t = _fold_index(t)
    M = math.sqrt(float(c) / 12.0)
    return (math.sqrt(2) * seminorm(X, t - 1)
            + M * (seminorm(X, t) + seminorm(X, t + 0.5)))


def gw_loop_seminorm(X, t, ell):
    """|X|_t = (ell+1)||X||_{t-1/2} of a loop element at level ell."""
    return (ell + 1) * seminorm(X, _fold_index(t) - 0.5)


def gw_field_seminorm(f, t):
    """|f d/dtheta|_t = dim(G)||f||_{t+1/2} of a field acting by the
    Sugawara L_n."""
    return DIM_G * seminorm(f, _fold_index(t) + 0.5)


# ---------------------------------------------------------------------------
# reports


@dataclass
class EstimateReport:
    estimate: str
    lhs: float
    rhs: float

    @property
    def holds(self):
        return self.lhs <= self.rhs * (1 + 1e-12) + 1e-14


# ---------------------------------------------------------------------------
# the checks


def check_basic_estimates(rep, X, xi, n):
    """Both sides of ||pi(X)xi||_n <= |X|_{n+1} ||xi||_{n+1} and
    ||[A, pi(X)]xi||_n <= |X|_{A,n+1} ||xi||_{n+1}."""
    scale = SobolevScale(rep)
    P = rep.pi(X)
    w = P @ xi
    comm = scale.diag * w - P @ (scale.diag * xi)
    norm_next = scale.norm(xi, n + 1)
    return [
        EstimateReport("pi-bound", scale.norm(w, n),
                       rep.seminorm(X, n + 1) * norm_next),
        EstimateReport("commutator-bound", scale.norm(comm, n),
                       rep.a_seminorm(X, n + 1) * norm_next),
    ]


def check_gw_virasoro(rep, X, xi, t):
    """||pi(X)xi||_t <= sqrt2 ||X||_|t| ||xi||_{t+1}
    + M ||X||_{|t|+1} ||xi||_{t+1/2} + M ||X||_{|t|+3/2} ||xi||_t."""
    M = math.sqrt(float(rep.central_charge) / 12.0)
    scale = SobolevScale(rep)
    w = rep.pi(X) @ xi
    a = abs(t)
    rhs = (math.sqrt(2) * seminorm(X, a) * scale.norm(xi, t + 1)
           + M * seminorm(X, a + 1) * scale.norm(xi, t + 0.5)
           + M * seminorm(X, a + 1.5) * scale.norm(xi, t))
    return EstimateReport("gw-virasoro", scale.norm(w, t), rhs)


def check_gw_loop(module, X, f, xi, t):
    """The two loop estimates on an affine module, reported separately:
    ||pi(X)v||_t <= |X|_{|t|+1} ||v||_{t+1/2} and
    ||pi(f d/dtheta)xi||_t <= |f|_{|t|+1} ||xi||_{t+1}, f acting by the
    Sugawara L_n, with the module's seminorms (`gw_loop_seminorm`,
    `gw_field_seminorm`)."""
    scale = SobolevScale(module)
    a = abs(t)
    return [
        EstimateReport(
            "gw-loop-element", scale.norm(module.pi(X) @ xi, t),
            module.seminorm(X, a + 1) * scale.norm(xi, t + 0.5)),
        EstimateReport(
            "gw-loop-field", scale.norm(module.pi(f) @ xi, t),
            module.seminorm(f, a + 1) * scale.norm(xi, t + 1)),
    ]


def check_exp_estimate(rep, X, n):
    """||A^n e^{pi(X)} A^{-n}|| <= e^{2n |X|_{A,n}} on the truncation."""
    scale = SobolevScale(rep)
    U = exponential(rep, X)
    lhs = scale.operator_norm(U, n, n)
    rhs = math.exp(2 * n * rep.a_seminorm(X, n))
    return EstimateReport("exp-estimate", lhs, rhs)


def check_exp_difference(rep, X, Y, xi, n):
    """||(e^{pi(X)} - e^{pi(Y)}) xi||_n <= |X-Y|_{n+1}
    e^{2(n+1) max(|X|_{A,n+1}, |Y|_{A,n+1})} ||xi||_{n+1}."""
    scale = SobolevScale(rep)
    w = (exponential(rep, X) - exponential(rep, Y)) @ xi
    rhs = (rep.seminorm(X - Y, n + 1)
           * math.exp(2 * (n + 1) * max(rep.a_seminorm(X, n + 1),
                                        rep.a_seminorm(Y, n + 1)))
           * scale.norm(xi, n + 1))
    return EstimateReport("exp-difference", scale.norm(w, n), rhs)
