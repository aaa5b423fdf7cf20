"""Input validation helpers used at public API boundaries."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


def as_vector(x, *, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite, nonempty 1-D float64 array.

    Accepts anything array-like plus objects exposing a ``values`` array
    (templates). Returns a view when the input already satisfies the
    contract, so callers that need ownership must copy.
    """
    values = getattr(x, "values", x)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"{name} has dimension {arr.size}, expected {dim}")
    return arr


def as_matrix(x, *, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 2-D float64 array of ``n >= 0`` nonempty
    rows, the batch counterpart of :func:`as_vector`. The result is
    C-contiguous, so that reductions along a row run over adjacent values
    and give each row the bits it would get alone."""
    arr = np.asarray(x, dtype=np.float64, order="C")
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be a 2-D array of nonempty rows")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(f"{name} have dimension {arr.shape[1]}, expected {dim}")
    return arr


def check_same_dim(a: np.ndarray, b: np.ndarray, *, names: tuple[str, str] = ("a", "b")) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"{names[0]} has dimension {a.size}, {names[1]} has dimension {b.size}"
        )


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a nonnegative finite number, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Require a probability strictly inside (0, 1)."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_count(value: int, name: str, *, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value
