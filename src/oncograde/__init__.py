"""oncograde: tabular three-level lung cancer risk classification toolkit."""

import os

# A threaded BLAS may round a matrix product differently from one thread, and
# SMO amplifies a one-ulp change in the kernel matrix into other alphas, so
# BLAS gets one thread. This takes effect only if numpy is not loaded yet.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
