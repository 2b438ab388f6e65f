"""Set-up for the test suite: one BLAS thread, pinned before numpy loads its BLAS.

The same pin as `perfbench/run.py`, so the suite's runtime gates time the
code on one thread, as the benchmark does, and not on however many threads
the box lends the BLAS.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
