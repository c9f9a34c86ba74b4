import contextlib
import inspect
from fractions import Fraction

import prodexp  # noqa: F401  (before numpy: pins the OpenBLAS pool)
import numpy as np
import pytest
from scipy.linalg import expm

from prodexp.hwmod import affine_spec, build_module, virasoro_spec


@pytest.fixture(scope="session")
def vir8():
    """Virasoro (1/2, 1/16), N = 8."""
    return build_module(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 8))


@pytest.fixture(scope="session")
def vir12():
    """Virasoro (1/2, 1/16), N = 12."""
    return build_module(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 12))


@pytest.fixture(scope="session")
def vir16():
    """Virasoro (1/2, 1/16), N = 16 (about 2 s on 2 CPUs)."""
    return build_module(virasoro_spec(Fraction(1, 2), Fraction(1, 16), 16))


@pytest.fixture(scope="session")
def aff5():
    """Affine sl2, ell = 1, lam = 0, N = 5."""
    return build_module(affine_spec(1, 0, 5))


def safe_vector(rng, module, depth, unit=True):
    """Random vector supported on levels <= N - depth."""
    v = np.zeros(module.dim, dtype=complex)
    d = module.safe_dim(depth)
    v[:d] = rng.normal(size=d) + 1j * rng.normal(size=d)
    if unit:
        v /= np.linalg.norm(v)
    return v



def dense_commutator(A2, A1):
    """[A2, A1] by two dense products: the reference form of the magnus4
    commutator."""
    return A2 @ A1 - A1 @ A2


def reference_step_product(rep, path, n, rule="magnus4", exponent=None):
    """The dense dim x dim product over n uniform steps, each step's
    factor by scipy's expm: for "left" the exponent D pi(X(t0)), for
    "magnus4" D/2 (A1 + A2) + (sqrt(3)/12) D^2 [A2, A1] from two pi
    matrices, or exponent(X1, X2, D/2, (sqrt(3)/12) D^2) when given (a
    stacked solver generator has no pi)."""
    bp = np.linspace(*path.interval, n + 1)
    U = np.eye(rep.dim, dtype=complex)
    for t0, dt in zip(bp[:-1], np.diff(bp)):
        h, w = dt / 2, np.sqrt(3.0) / 12.0 * dt * dt
        mid, off = t0 + h, np.sqrt(3.0) / 6.0 * dt
        if rule == "left":
            omega = dt * rep.pi(path(t0))
        elif exponent is not None:
            omega = exponent(path(mid - off), path(mid + off), h, w)
        else:
            A1, A2 = rep.pi(path(mid - off)), rep.pi(path(mid + off))
            omega = h * (A1 + A2) + w * dense_commutator(A2, A1)
        U = expm(omega) @ U
    return U


def unitarity_defect(U):
    """max |U^* U - I|, entrywise."""
    return float(np.abs(U.conj().T @ U - np.eye(U.shape[1])).max())


@contextlib.contextmanager
def dense_at_vector_steps():
    """Within the block, every product integral returns its dense
    reference: the refinement on the probe block picks the step count,
    and the returned block is `reference_step_product` at that step
    count, on the representation's own magnus4 exponent, times the
    probe block."""
    from prodexp import grouprep, prodint

    vector = prodint.product_integral
    default_rule = inspect.signature(vector).parameters["rule"].default

    def dense(rep, path, V, *args, **kw):
        P = vector(rep, path, V, *args, **kw)
        U = reference_step_product(rep, path, P.steps,
                                   kw.get("rule", default_rule),
                                   exponent=rep.magnus_exponent)
        return prodint.Propagator(U @ V, P.steps, P.refinement_error)

    with pytest.MonkeyPatch.context() as mp:
        for module in (prodint, grouprep):
            mp.setattr(module, "product_integral", dense)
        yield
