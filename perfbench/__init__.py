"""Benchmark harness for sparsecones; run it with ``python3 perfbench/run.py``."""

# Thread-count variables of the BLAS builds numpy may load.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
