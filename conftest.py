"""Pin the BLAS thread count before numpy loads.

A multi-threaded BLAS may split a matrix product differently from a
single-threaded one, and SMO amplifies a one-ulp change in the kernel
matrix into different alphas. The byte pins in the suite were recorded
with one thread, as the benchmark runs, so every setting here is forced to
1 whatever the environment says.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
