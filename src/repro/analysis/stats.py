"""Small statistics helpers shared by experiments and tests."""

from __future__ import annotations

import numpy as np

__all__ = ["normalize_to", "geometric_mean"]


def normalize_to(values, reference: float) -> list[float]:
    """Each value divided by ``reference`` (must be positive)."""
    if reference <= 0:
        raise ValueError(f"reference must be positive, got {reference}")
    return [float(v) / reference for v in values]


def geometric_mean(values) -> float:
    """Geometric mean of positive values."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot average no values")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
