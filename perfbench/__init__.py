"""Closed-loop benchmark of the sparsemm kernels; see README.md here."""

# Thread-pool sizes pinned to one before numpy is imported, so that the
# benchmark is single-threaded throughout.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
