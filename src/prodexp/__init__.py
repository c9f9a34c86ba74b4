"""prodexp: product-integral exponentiation of truncated highest-weight modules.

Importing the package before numpy pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is already set: the product integrals multiply
small dense matrices, for which a thread pool only adds overhead (on two
CPUs one expm-and-matmul step at dim 70 takes about 14 ms with the
default pool and under 1 ms with one thread).
"""

import os

# OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
