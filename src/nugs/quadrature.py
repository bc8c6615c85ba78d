"""Panel Gauss-Legendre rules for uniform-refinement quadrature.

Panels are laid out so that no panel straddles a declared breakpoint and no
panel exceeds a caller-supplied width; callers certify convergence by
halving the width and comparing.  This is deliberately plain: every integrand in
this package is smooth between breakpoints, so uniform refinement converges
extremely fast and keeps the node layout deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_segments(a: float, b: float, breakpoints=(),
                   max_width: float = np.inf) -> list[tuple[float, float, int]]:
    """Breakpoint-free segments (lo, hi, m) of [a, b], each cut into m equal
    panels no wider than max width."""
    cuts = [a, b]
    for t in breakpoints:
        if a < t < b:
            cuts.append(float(t))
    cuts = sorted(set(cuts))
    segments = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = max(1, int(np.ceil((hi - lo) / max_width))) if np.isfinite(max_width) else 1
        segments.append((lo, hi, m))
    return segments


def panel_edges(a: float, b: float, breakpoints=(), max_width: float = np.inf) -> np.ndarray:
    """Panel edges covering [a, b], split at breakpoints and by max width."""
    pieces = [np.array([float(a)])]
    for lo, hi, m in panel_segments(a, b, breakpoints, max_width):
        pieces.append(np.linspace(lo, hi, m + 1)[1:])
    return np.concatenate(pieces)


def panel_nodes(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All nodes and weights for the composite rule over the given panels."""
    x, w = gauss_rule(n)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = (lo + hi) / 2 + (hi - lo) / 2 * x[None, :]
    wts = (hi - lo) / 2 * w[None, :]
    return nodes.ravel(), wts.ravel()
