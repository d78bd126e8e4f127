"""Split-learning simulator for attention GNNs on vertically partitioned graphs."""

from .tensor import Tensor, Tape

__all__ = ["Tensor", "Tape"]
