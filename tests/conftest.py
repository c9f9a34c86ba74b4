import contextlib
import inspect
from fractions import Fraction

import prodexp  # noqa: F401  (before numpy: pins the OpenBLAS pool)
import numpy as np
import pytest

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



@contextlib.contextmanager
def dense_at_vector_steps():
    """Within the block, every vector-mode product integral returns its
    dense reference: the vector refinement picks the step count, and the
    returned block is the dense propagator at that step count times the
    probe block."""
    from prodexp import grouprep, prodint

    vector = prodint.product_integral
    default_rule = inspect.signature(vector).parameters["rule"].default

    def dense(rep, path, *args, V=None, **kw):
        P = vector(rep, path, *args, V=V, **kw)
        if V is None:
            return P
        U = prodint.step_product(rep, path, P.steps,
                                 kw.get("rule", default_rule)).matrix
        return prodint.Propagator(U @ V, P.steps, P.refinement_error)

    with pytest.MonkeyPatch.context() as mp:
        for module in (prodint, grouprep):
            mp.setattr(module, "product_integral", dense)
        yield
