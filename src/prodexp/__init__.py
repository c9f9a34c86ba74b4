"""prodexp: product-integral exponentiation of truncated highest-weight modules.

Importing the package before numpy pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is already set: the product integrals multiply
small dense blocks, for which a thread pool has nothing to split (on two
CPUs one Taylor-action step at dim 70 takes 1.0-1.7 ms on four probe
columns and 7-11 ms on the identity, with one thread and with two alike).
"""

import os

# OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
