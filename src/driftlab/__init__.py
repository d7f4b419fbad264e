"""Numerical laboratory for drift-penalized Brownian functionals."""

import os

# One BLAS thread unless the user chose otherwise.  Every BLAS call driftlab
# makes (101-wide kernel products, 10-column least squares) is far below the
# size where a second thread pays, and scipy's L-BFGS-B calls BLAS on every
# iteration, so OpenBLAS's worker never gets to sleep: it busy-waits on a
# second core through every solve.  OpenBLAS reads this variable when it is
# loaded, so it must be set before numpy or scipy is imported; nothing this
# module imports loads either.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
