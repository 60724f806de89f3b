"""Pin the BLAS thread count before numpy loads.

A multi-threaded BLAS may split a matrix product differently from a
single-threaded one, and SMO amplifies a one-ulp change in the kernel
matrix into different alphas. The byte pins in the suite were recorded
with one thread, as the benchmark runs. Importing the package forces every
BLAS thread variable to 1, whatever the environment says, and loads no
numpy, so the variables are set before any test module loads it.
"""

import oncograde  # noqa: F401
