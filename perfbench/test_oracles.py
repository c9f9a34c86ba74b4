"""Tests of the closed-form oracles, independent of prodexp.

Run with ``python -m pytest perfbench/test_oracles.py``.
"""

from fractions import Fraction
import random

import oracles

# Ising sigma: distinct partitions of n (q-series prod (1 + q^n))
ISING_SIGMA_DIMS = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 27, 32]
AFFINE_VACUUM_DIMS = [1, 3, 4, 7, 13, 19, 29]


def distinct_partitions(n):
    """Count partitions of n into distinct parts by brute recursion."""
    def count(rest, smallest):
        if rest == 0:
            return 1
        return sum(count(rest - part, part + 1)
                   for part in range(smallest, rest + 1))
    return count(n, 1)


def test_partition_numbers():
    assert oracles.partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22,
                                             30, 42]


def test_ising_weights():
    assert oracles.minimal_model_weights(4, 3, 2, 2) == (Fraction(1, 2),
                                                         Fraction(1, 16))
    assert oracles.minimal_model_weights(4, 3, 1, 1) == (Fraction(1, 2), 0)
    assert oracles.minimal_model_weights(4, 3, 1, 3)[1] == Fraction(1, 2)


def test_ising_sigma_level_dims():
    dims = oracles.level_dims_minimal_model(4, 3, 2, 2, 16)
    assert dims == ISING_SIGMA_DIMS
    assert sum(dims) == 169
    assert dims == [distinct_partitions(n) for n in range(17)]


def test_ising_vacuum_first_null_at_level_one():
    # h = 0: L_{-1} Omega is null, so level 1 is empty
    dims = oracles.level_dims_minimal_model(4, 3, 1, 1, 6)
    assert dims[:3] == [1, 0, 1]


def test_generic_level_dims_are_partition_counts_below_first_null():
    # the singular vectors of h_{r,s} sit at levels r s and (Q - r)(P - s)
    p = oracles.partition_numbers(12)
    for P, Q, r, s in ((5, 4, 1, 2), (5, 4, 2, 3), (7, 6, 2, 1)):
        first = min(r * s, (Q - r) * (P - s))
        dims = oracles.level_dims_minimal_model(P, Q, r, s, 12)
        assert dims[:first] == p[:first]
        assert dims[first] == p[first] - 1


def test_affine_vacuum_level_dims():
    assert oracles.level_dims_affine_sl2_vacuum(6) == AFFINE_VACUUM_DIMS


def test_gram_closed_forms_at_ising_sigma():
    c, h = Fraction(1, 2), Fraction(1, 16)
    assert oracles.virasoro_gram_level1(c, h) == [[Fraction(1, 8)]]
    g2 = oracles.virasoro_gram_level2(c, h)
    assert g2[0][0] == 4 * h + c / 2
    assert g2[1][1] == 8 * h * h + 4 * h
    assert g2[0][1] == g2[1][0] == 6 * h


def test_level2_gram_determinant_is_kac():
    rng = random.Random(0)
    for _ in range(20):
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        h = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        g = oracles.virasoro_gram_level2(c, h)
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assert det == oracles.kac_determinant_level2(c, h)


def test_kac_determinant_vanishes_on_level2_null_weights():
    # h_{1,2} and h_{2,1} of the minimal models carry a level-2 null vector
    for P, Q in ((4, 3), (5, 4), (7, 5)):
        for r, s in ((1, 2), (2, 1)):
            c, h = oracles.minimal_model_weights(P, Q, r, s)
            assert oracles.kac_determinant_level2(c, h) == 0
