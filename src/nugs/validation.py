"""Input validation helpers.

Small check functions in the spirit of ``sklearn.utils.validation``: coerce
array-likes to well-formed ndarrays and raise ``ValueError`` with a named
argument on bad input.
"""

from __future__ import annotations

import numpy as np


def as_float_array(x, name: str, *, ndim: int = 1) -> np.ndarray:
    """Coerce to a float64 array of the given dimensionality.

    Accepts shape (n, 1) for ndim=1 and squeezes the trailing axis, so
    column-vector inputs from sklearn-style pipelines work unchanged.
    """
    arr = np.asarray(x, dtype=float)
    if ndim == 1 and arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_complex_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_weight_array(x, name: str) -> np.ndarray:
    """Finite, non-negative quadrature weights as a 1-D float64 array."""
    arr = as_float_array(x, name)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be non-negative")
    return arr


def check_strictly_increasing(points: np.ndarray, name: str) -> None:
    if points.size > 1 and not np.all(np.diff(points) > 0):
        raise ValueError(f"{name} must be strictly increasing")


def check_positions(x, name: str = "x") -> np.ndarray:
    """Positions on the unit interval; the domain is half-open [0, 1)."""
    arr = as_float_array(np.atleast_1d(x), name)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie in [0, 1)")
    return arr


def check_same_length(a, b, name_a: str, name_b: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{name_a} and {name_b} must have equal length "
                         f"({len(a)} != {len(b)})")
