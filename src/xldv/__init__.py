"""Cross-lingual speaker verification lab: synthetic corpus, deep speaker
features, an i-vector baseline, and cosine/LDA/PLDA scoring."""

import os
import sys

# OpenBLAS GEMM rounds differently at different thread counts, so every
# report is computed with one BLAS thread. The variables only act if they are
# set before numpy is first imported; BLAS_THREADS is the OPENBLAS_NUM_THREADS
# value the loaded BLAS read (None: unset), which the run manifest records.
BLAS_THREADS = "1" if "numpy" not in sys.modules else os.environ.get("OPENBLAS_NUM_THREADS")
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
