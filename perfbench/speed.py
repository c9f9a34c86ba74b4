"""Machine speed, measured by a fixed computation that does not touch prodexp.

On a shared 2-CPU virtual machine the speed of the cores drifts with the
load of other tenants, by up to 1.5x over minutes: a fixed pure-Python
loop took between 0.071 s and 0.146 s a call over 90 s, and the same
exact-build round took 3.5 s in one run and 5.2 s in the next.  The
benchmark times this reference just before and just after every set-up
process and every round, and reports their times scaled to the speed at
which the reference takes NOMINAL_S: most of the drift cancels, and a
change in the program still shows.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

NOMINAL_S = 0.2

_GENERATOR = np.linspace(-1.0, 1.0, 49 * 49).reshape(49, 49) * 1e-2
_GENERATOR = _GENERATOR - _GENERATOR.T


def reference_s():
    """Wall time of rational arithmetic, an interpreter loop and small
    dense exponentials: the kinds of work the workloads spend their time
    in."""
    t = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 3000):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    s = 0
    for i in range(250_000):
        s += i * i % 7
    u = np.eye(49)
    for _ in range(200):
        u = expm(_GENERATOR) @ u
    return time.perf_counter() - t


def scaled(seconds, ref_before, ref_after):
    """Seconds at the speed where the reference takes NOMINAL_S."""
    return seconds * NOMINAL_S / ((ref_before + ref_after) / 2)
