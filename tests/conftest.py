"""Pins BLAS to one thread before any test module imports numpy.

xldv sets these variables itself, but they only act when numpy is not yet
loaded; test modules import numpy first, so without this file in-process runs
would use OpenBLAS's default thread count, unlike the ``xldv`` command.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
