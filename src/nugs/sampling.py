"""Nonuniform frequency sets: generation, density and compensation weights.

A sample set is a strictly increasing sequence of real frequencies inside
the band [-K, K].  Density and weights both use the wrap-around ghost
points ``w_0 = w_N - 2K`` and ``w_{N+1} = w_1 + 2K``, which makes the
weights telescope to exactly 2K.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .prng import SplitMix64
from .validation import (as_float_array, check_count, check_positive_finite,
                         check_strictly_increasing, is_real_number, json_field, json_number)

SCHEME_KINDS = ("uniform", "jittered", "log")


@dataclass(frozen=True)
class SampleSet:
    """Ordered nonuniform frequencies with a declared bandwidth.

    Parameters
    ----------
    points : ndarray
        Strictly increasing frequencies (cycles per unit length).
    bandwidth : float, optional
        Half-width K of the band; every point satisfies ``|w| <= K``.  The
        default is the largest ``|w|``.
    """

    points: np.ndarray
    bandwidth: float | None = None

    def __post_init__(self):
        pts = as_float_array(self.points, "points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        check_strictly_increasing(pts, "points")
        k = check_positive_finite(float(np.max(np.abs(pts))) if self.bandwidth is None
                                  else self.bandwidth, "bandwidth")
        object.__setattr__(self, "bandwidth", k)
        if np.any(np.abs(pts) > k):
            raise ValueError("all points must lie in [-K, K]")

    def __len__(self) -> int:
        return self.points.size

    def with_ghosts(self) -> np.ndarray:
        """Points extended by the two wrap-around ghost points."""
        return _ghosted(self.points, self.bandwidth)


@dataclass(frozen=True)
class SchemeSpec:
    """Descriptor of a deterministic sampling scheme.

    kind is one of ``uniform``, ``jittered``, ``log``.  ``theta`` is the
    jitter fraction in [0, 1); ``seed``, an integer >= 0, drives the
    SplitMix64 generator so jittered output is bit-reproducible.
    """

    kind: str
    n: int
    k: float
    theta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        check_positive_finite(self.k, "k")
        check_count(self.n, "n", 2)
        check_count(self.seed, "seed", 0)
        if not (is_real_number(self.theta) and 0.0 <= self.theta < 1.0):
            raise ValueError(f"theta: jitter fraction must lie in [0, 1), got {self.theta!r}")
        if self.kind == "log" and self.n % 2 != 0:
            raise ValueError("log scheme requires an even sample count")

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "n": int(self.n), "k": float(self.k),
                           "theta": float(self.theta), "seed": int(self.seed)})

    @classmethod
    def from_json(cls, text: str) -> "SchemeSpec":
        d = json.loads(text)
        # n, k, seed and the range of theta are checked by __post_init__, not coerced
        return cls(kind=json_field(d, "kind"), n=json_field(d, "n"), k=json_field(d, "k"),
                   theta=json_number(d.get("theta", 0.0), "theta"), seed=d.get("seed", 0))


def generate(spec: SchemeSpec) -> SampleSet:
    """Generate the sample set described by ``spec``.

    uniform:  midpoint grid ``w_n = -K + (n - 1/2) * 2K/N``.
    jittered: midpoint grid plus independent uniform offsets bounded by
              ``theta * K/N`` (spacing stays positive for theta < 1).
    log:      two-sided geometric progression, N/2 points per side running
              from K/N up to K, mirrored about zero.
    """
    n, k = spec.n, spec.k
    if spec.kind == "uniform":
        pts = _midpoint_grid(n, k)
    elif spec.kind == "jittered":
        pts = _midpoint_grid(n, k)
        if spec.theta > 0.0:
            rng = SplitMix64(spec.seed)
            bound = spec.theta * k / n
            pts = pts + bound * np.array([rng.uniform_signed() for _ in range(n)])
    else:
        pts = _log_points(n, k)
    return SampleSet(points=pts, bandwidth=float(k))


def _midpoint_grid(n: int, k: float) -> np.ndarray:
    return -k + (np.arange(1, n + 1) - 0.5) * (2.0 * k / n)


def _log_points(n: int, k: float) -> np.ndarray:
    """The log scheme's N points (N even) at bandwidth K, unvalidated."""
    m = n // 2
    if m == 1:
        side = np.array([float(k)])
    else:
        # ratio N**(2/(N-2)) carries K/N to K in m-1 steps
        logs = np.log(k / n) + np.arange(m) * (2.0 * np.log(n) / (n - 2))
        side = np.exp(logs)
        side[-1] = k
    return np.concatenate((-side[::-1], side))


def _ghosted(points: np.ndarray, k: float) -> np.ndarray:
    """``points`` extended by the two wrap-around ghost points of band K."""
    return np.concatenate(([points[-1] - 2 * k], points, [points[0] + 2 * k]))


def density(s: SampleSet) -> float:
    """Largest consecutive gap, ghost points included.

    This is the smallest delta for which the set is delta-dense at its
    declared bandwidth; values below 1 indicate stable sampling.
    """
    return _density(s.points, s.bandwidth)


def _density(points: np.ndarray, k: float) -> float:
    """``density`` of the increasing ``points`` at bandwidth K, unvalidated."""
    return float(np.max(np.diff(_ghosted(points, k))))


def weights(s: SampleSet) -> np.ndarray:
    """Midpoint compensation weights ``mu_n = (w_{n+1} - w_{n-1}) / 2``.

    Ghost points close the band, so the weights always sum to exactly 2K.
    """
    ext = s.with_ghosts()
    return (ext[2:] - ext[:-2]) / 2.0
