"""Closed-form oracles for the module structure the benchmark checks.

These formulas come from characters and from the Virasoro relations
alone; nothing here imports prodexp, so a fault in its reduction engine
cannot hide in the oracle.

* Virasoro minimal-model level dimensions from the Rocha-Caridi
  character, Rocha-Caridi, "Vacuum vector representations of the
  Virasoro algebra" (1985).
* Affine sl2 level-1 vacuum level dimensions from the Frenkel-Kac
  lattice character sum_m q^{m^2} / prod_n (1 - q^n).
* Shapovalov (Gram) matrices of a Virasoro Verma module at levels 1
  and 2 in the basis (L_{-1} Omega) and (L_{-2} Omega, L_{-1}^2 Omega).
"""

from __future__ import annotations

from fractions import Fraction


def partition_numbers(n_max):
    """[p(0), ..., p(n_max)]: unrestricted partition counts."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def minimal_model_weights(P, Q, r, s):
    """(c, h_{r,s}) of the minimal model M(P, Q) as Fractions.

    c = 1 - 6 (P - Q)^2 / (P Q), h = ((P r - Q s)^2 - (P - Q)^2) / (4 P Q).
    The unitary discrete series is P = m + 3, Q = m + 2.
    """
    c = 1 - Fraction(6 * (P - Q) ** 2, P * Q)
    h = Fraction((P * r - Q * s) ** 2 - (P - Q) ** 2, 4 * P * Q)
    return c, h


def level_dims_minimal_model(P, Q, r, s, n_max):
    """Dimensions of levels 0..n_max of the irreducible M(P, Q) module h_{r,s}.

    Rocha-Caridi: q^{-h} chi_{r,s} = sum_k (q^{A_k} - q^{B_k}) / phi(q) with
    A_k = ((2PQk + Pr - Qs)^2 - (Pr - Qs)^2) / 4PQ and
    B_k = ((2PQk + Pr + Qs)^2 - (Pr - Qs)^2) / 4PQ.
    """
    p = partition_numbers(n_max)
    base = (P * r - Q * s) ** 2
    dims = [0] * (n_max + 1)
    for k in range(-n_max - 1, n_max + 2):
        for x, sign in ((2 * P * Q * k + P * r - Q * s, 1),
                        (2 * P * Q * k + P * r + Q * s, -1)):
            num = x * x - base
            if num % (4 * P * Q):
                raise ArithmeticError("non-integral character exponent")
            shift = num // (4 * P * Q)
            for n in range(max(shift, 0), n_max + 1):
                dims[n] += sign * p[n - shift]
    return dims


def level_dims_affine_sl2_vacuum(n_max):
    """Level dimensions of the affine sl2 level-1 vacuum module.

    The level-1 vacuum character of sl2 is the theta function of the
    root lattice over one free boson, so level n has dimension
    sum_{m in Z} p(n - m^2).
    """
    p = partition_numbers(n_max)
    dims = []
    for n in range(n_max + 1):
        total, m = 0, 0
        while m * m <= n:
            total += p[n - m * m] * (1 if m == 0 else 2)
            m += 1
        dims.append(total)
    return dims


def virasoro_gram_level1(c, h):
    """Gram matrix of level 1 in the basis (L_{-1} Omega): [[2h]]."""
    return [[2 * Fraction(h)]]


def virasoro_gram_level2(c, h):
    """Gram matrix of level 2 in the basis (L_{-2} Omega, L_{-1}^2 Omega).

    <L_{-2}, L_{-2}> = 4h + c/2, <L_{-2}, L_{-1}^2> = 6h and
    <L_{-1}^2, L_{-1}^2> = 8h^2 + 4h.
    """
    c, h = Fraction(c), Fraction(h)
    return [[4 * h + c / 2, 6 * h], [6 * h, 8 * h * h + 4 * h]]


def kac_determinant_level2(c, h):
    """det of the level-2 Gram matrix: 2h (16h^2 + 2(c - 5)h + c)."""
    c, h = Fraction(c), Fraction(h)
    return 2 * h * (16 * h * h + 2 * (c - 5) * h + c)
