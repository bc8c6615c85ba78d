"""Input validation helpers.

Small check functions in the spirit of ``sklearn.utils.validation``: coerce
array-likes to well-formed ndarrays and raise ``ValueError`` with a named
argument on bad input.  Every CSV loader parses its rows by ``csv_rows``,
every CSV writer formats its rows by ``write_csv``, and every ``from_json``
reads its keys by ``json_field`` and its numbers and lists by
``json_number``, ``json_list`` and ``check_count``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def as_float_array(x, name: str, dtype=float) -> np.ndarray:
    """Coerce to a finite, non-empty 1-D array of ``dtype``.

    Accepts shape (n, 1) and squeezes the trailing axis, so column-vector
    inputs from sklearn-style pipelines work unchanged.
    """
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_complex_array(x, name: str) -> np.ndarray:
    return as_float_array(x, name, complex)


def as_weight_array(x, name: str) -> np.ndarray:
    """Finite, non-negative quadrature weights as a 1-D float64 array."""
    arr = as_float_array(x, name)
    if np.any(arr < 0.0):
        raise ValueError(f"{name} must be non-negative")
    return arr


def is_real_number(value) -> bool:
    """A real number that is not a bool; numpy scalars count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(value, name: str) -> int:
    """An integer (not a bool, nor a float such as 2.0) as an int."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_positive_finite(value, name: str) -> float:
    """A finite, strictly positive real number (not a bool), as a float."""
    if not (is_real_number(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def check_threshold(threshold) -> None:
    """A stability-ratio threshold: at least 1, the smallest possible ratio
    (NaN fails)."""
    if not threshold >= 1:
        raise ValueError(f"threshold must be positive and at least 1, the smallest "
                         f"possible stability ratio, got {threshold!r}")


def check_count(value, name: str, minimum: int = 1) -> int:
    """An integer (not a bool; numpy integers accepted) of at least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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


def json_field(d, key: str):
    """``d[key]`` of a parsed JSON object."""
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"expected a JSON object with the key {key!r}")
    return d[key]


def json_number(value, name: str) -> float:
    """A JSON number (not a bool, string or null) as a float."""
    if not is_real_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_list(value, name: str) -> list:
    """A JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def complex_pairs(value, name: str) -> np.ndarray:
    """[re, im] number pairs as complex numbers, viewed so as to keep -0.0."""
    if not (isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(is_real_number, p))
            for p in value)):
        raise ValueError(f"{name} must be a list of [re, im] number pairs, got {value!r}")
    return np.array(value, dtype=float).reshape(-1, 2).view(complex)[:, 0]


def csv_rows(path, fields) -> np.ndarray:
    """The rows of a CSV file of numbers, (rows, count), under a header line
    that ``fields`` checks and reads the count from.  Blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        count = fields(fh.readline().strip())
        lines = fh.read().split("\n")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:  # one numpy call; the reshape fails on another field count
        return np.loadtxt(rows, delimiter=",", comments=None).reshape(len(rows), count)
    except ValueError as exc:
        error = exc
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(",") if line.strip() else []
        if parts and len(parts) != count:
            raise ValueError(f"{path}:{lineno}: expected {count} "
                             f"field{'s' * (count > 1)}, got {len(parts)}")
        try:
            list(map(float, parts))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed number") from None
    raise ValueError(f"{path}: {error}")  # float reads it and numpy does not, as 1_000


def write_csv(path, header, values) -> None:
    """Write a CSV file with LF line endings: the names in ``header``, then
    the list ``values``, every field row after row, ``len(header)`` to a line.
    Fields are Python floats (their shortest round-trip repr), integers or
    strings, typed column by column like the first row; pass ``tolist()``
    values, not numpy floats."""
    width = len(header)
    # str and repr agree on a float; "%r" skips a call per field
    line = ",".join(["%r" if isinstance(v, float) else "%s" for v in values[:width]]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + line * (len(values) // width) % tuple(values))
