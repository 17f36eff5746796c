"""Exact Gaussian-state laboratory for decoherence-induced redundancy in
quantum Brownian motion: covariance-matrix dynamics of an oscillator coupled
to a discretized harmonic bath, correlation measures over environment
fractions, the closed-form branch-model oracle, and redundancy extraction.
"""

__version__ = "0.1.0"

#: BLAS thread-count variables.  BLAS reads them once, when numpy loads it;
#: pool workers and the CLI's own process set them to 1.  This module imports
#: no numpy, so the CLI reads them before anything loads BLAS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
