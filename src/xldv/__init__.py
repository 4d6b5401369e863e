"""Cross-lingual speaker verification lab: synthetic corpus, deep speaker
features, an i-vector baseline, and cosine/LDA/PLDA scoring."""

import os

# OpenBLAS GEMM rounds differently at different thread counts, so every
# report is computed with one BLAS thread. The variables only act if they are
# set before numpy is first imported.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
