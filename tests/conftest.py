"""Test settings: one BLAS thread, set before NumPy loads, as bench/run.py runs.

The matrices are small, so the tier-1 wall time is taken under the
benchmark's setting rather than under a thread count that varies by host.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
