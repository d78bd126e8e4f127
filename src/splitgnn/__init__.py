"""Split-learning simulator for attention GNNs on vertically partitioned graphs."""

import os

# One BLAS thread unless the caller chose: a product's rounding depends on
# how BLAS splits it over threads, and reports must depend on the seeds alone.
# Set before numpy loads, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .tensor import Tensor, Tape  # noqa: E402

__all__ = ["Tensor", "Tape"]
