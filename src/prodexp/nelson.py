"""Finite-dimensional exponentiation testbed on su(2).

Direct sums of spin-j irreducibles with the orthonormal basis X_1, X_2,
X_3 satisfying [X_i, X_j] = eps_{ijk} X_k (structure constants the
Levi-Civita symbol), pi(X_i) = -i J_i blockwise.  The Laplacian
Delta = sum pi(X_i)^2 is a negative constant per block, so the scale
A = 1 - Delta is block-scalar and the Sobolev machinery is exercised
nontrivially exactly when the sum is reducible.  Product integrals are
checked against the closed-form axis-angle exponentials of
`axis_angle_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import itertools

import numpy as np

from .scale import SobolevScale


def spin_matrices(j):
    """(J_x, J_y, J_z) for spin j (j a nonnegative half-integer)."""
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)               # j, j-1, ..., -j
    Jz = np.diag(m).astype(complex)
    # J_+ |j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>
    up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    Jp = np.zeros((d, d), dtype=complex)
    Jp[np.arange(d - 1), np.arange(1, d)] = up
    Jm = Jp.conj().T
    return (Jp + Jm) / 2, (Jp - Jm) / 2j, Jz


@dataclass(frozen=True)
class FinDimRep:
    """Direct sum of su(2) irreducibles, pi(X_i) = -i J_i per block."""

    spins: tuple

    def __post_init__(self):
        spins = tuple(Fraction(s) for s in self.spins)
        if not spins:
            raise ValueError("at least one spin is required")
        for s in spins:
            if s < 0 or (2 * s).denominator != 1:
                raise ValueError(f"spin {s} is not a nonnegative half-integer")
        object.__setattr__(self, "spins", spins)

    def descriptor(self):
        """The descriptor JSON of this representation."""
        return {"kind": "su2", "spins": [str(s) for s in self.spins]}

    @property
    def block_dims(self):
        """int(2 s) + 1, the dimension of each spin-s block."""
        return [int(2 * s) + 1 for s in self.spins]

    @property
    def dim(self):
        return sum(self.block_dims)

    def block_slices(self):
        ends = itertools.accumulate(self.block_dims)
        return [slice(e - d, e) for d, e in zip(self.block_dims, ends)]

    @cached_property
    def generators(self):
        """[pi(X_1), pi(X_2), pi(X_3)], block-diagonal skew-Hermitian."""
        mats = [np.zeros((self.dim, self.dim), dtype=complex)
                for _ in range(3)]
        for sl, s in zip(self.block_slices(), self.spins):
            for G, J in zip(mats, spin_matrices(float(s))):
                G[sl, sl] = -1j * J
        return mats

    def pi(self, x):
        """Matrix of the element with real coordinates x = (x1, x2, x3)."""
        G = self.generators
        x = np.asarray(x, dtype=float)
        return x[0] * G[0] + x[1] * G[1] + x[2] * G[2]

    def magnus_exponent(self, x1, x2, h, w):
        """h (pi(x1) + pi(x2)) + w [pi(x2), pi(x1)], the exponent of a
        magnus4 step, as the one element h (x1 + x2) + w x2 cross x1, since
        [pi(x), pi(y)] = pi(x cross y) (structure constants eps_{ijk})."""
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        return self.pi(h * (x1 + x2) + w * np.cross(x2, x1))

    def a_diag(self):
        """Diagonal of A = 1 - Delta = (1 + j(j+1)) Id per block."""
        return np.repeat([1.0 + float(s * (s + 1)) for s in self.spins],
                         self.block_dims)

    def level_of(self):
        """Block index per coordinate (plays the role of the grading)."""
        return np.repeat(np.arange(len(self.spins)), self.block_dims)

    def seminorm(self, x, s):
        """Smallest C with ||pi(x) xi||_{s-1} <= C ||xi||_s (dense norm)."""
        return SobolevScale(self).operator_norm(self.pi(x), s - 1, s)

    def a_seminorm(self, x, s):
        """Dense-norm constant ||A^s pi(x) A^{-s}||."""
        return SobolevScale(self).operator_norm(self.pi(x), s, s)


def laplacian(rep):
    """(Delta, A) with Delta = sum pi(X_i)^2 and A = 1 - Delta."""
    G = rep.generators
    Delta = sum(M @ M for M in G)
    A = np.eye(rep.dim) - Delta
    return Delta, A


# the highest Sobolev order at which verify_assumptions measures
N_MAX = 4


def verify_assumptions(rep):
    """Smallest dense-norm constants of the two scale estimates.

    For each basis element X_i and 0 <= n <= N_MAX reports
    * pi-bound constant:        ||A^n pi(X_i) A^{-(n+1)}||,
    * commutator-bound constant ||A^n [A, pi(X_i)] A^{-(n+1)}||,
    together with their finiteness.  For a single irreducible block A is
    scalar, so every commutator constant vanishes.
    """
    _, A = laplacian(rep)
    scale = SobolevScale(rep)
    rows = []
    for i, G in enumerate(rep.generators):
        comm = A @ G - G @ A
        for n in range(N_MAX + 1):
            c_pi = scale.operator_norm(G, n, n + 1)
            c_comm = scale.operator_norm(comm, n, n + 1)
            rows.append({"generator": i + 1, "n": n,
                         "pi_constant": c_pi,
                         "commutator_constant": c_comm,
                         "finite": bool(np.isfinite(c_pi)
                                        and np.isfinite(c_comm))})
    return rows


def axis_angle_oracle(rep, x):
    """Closed form of exp(pi(x)) from the exact spectrum of n . J.

    With x = theta * n (|n| = 1), each spin-j block has eigenvalues
    m = -j..j for n . J, so the block is V diag(e^{-i theta m}) V^*.
    """
    x = np.asarray(x, dtype=float)
    theta = float(np.linalg.norm(x))
    U = np.eye(rep.dim, dtype=complex)
    if theta == 0:
        return U
    n = x / theta
    for sl, s in zip(rep.block_slices(), rep.spins):
        Jx, Jy, Jz = spin_matrices(float(s))
        H = n[0] * Jx + n[1] * Jy + n[2] * Jz
        w, V = np.linalg.eigh(H)
        w = np.round(w * 2) / 2            # exact spectrum -j..j
        U[sl, sl] = (V * np.exp(-1j * theta * w)) @ V.conj().T
    return U
