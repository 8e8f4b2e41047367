"""Pin BLAS to one thread before any test module imports numpy, and let the
subprocesses that tests start import afp from this checkout.

A threaded BLAS splits products by rows, so the bits of a product can depend
on the thread count (README "Memory"); `bench/run.py` pins it the same way.
pyproject.toml puts src/ on pytest's own path; PYTHONPATH carries it to the
`python -c` and `python -m afp` children.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
