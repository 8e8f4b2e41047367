"""Pin BLAS to one thread before any test module imports numpy.

A threaded BLAS splits products by rows, so the bits of a product can depend
on the thread count (README "Memory"); `bench/run.py` pins it the same way.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
