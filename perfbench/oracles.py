"""Reference computations the benchmark checks nugs against.

Nothing here imports nugs.  Every value is a closed form or a numpy/scipy
quadrature written from the mathematics, so a check that compares the
program with these functions does not compare the program with itself.

Conventions follow the package: ``F(w) = int_0^1 f(x) exp(-2 pi i w x) dx``,
orthonormal Legendre functions ``sqrt(2n+1) P_n(2x-1)`` on [0, 1), and
ghost-padded sample sets ``w_0 = w_N - 2K``, ``w_{N+1} = w_1 + 2K``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import BSpline
from scipy.linalg import toeplitz
from scipy.special import sici, spherical_jn


# ---------------------------------------------------------------------------
# sample sets


def _with_ghosts(points: np.ndarray, k: float) -> np.ndarray:
    return np.concatenate(([points[-1] - 2.0 * k], points, [points[0] + 2.0 * k]))


def ghost_density(points: np.ndarray, k: float) -> float:
    """Largest consecutive gap of the ghost-padded set."""
    return float(np.max(np.diff(_with_ghosts(points, k))))


def midpoint_weights(points: np.ndarray, k: float) -> np.ndarray:
    """``(w_{n+1} - w_{n-1}) / 2`` on the ghost-padded set."""
    ext = _with_ghosts(points, k)
    return (ext[2:] - ext[:-2]) / 2.0


# ---------------------------------------------------------------------------
# closed-form designs for the stability search


def trig_design(omegas: np.ndarray, m: int) -> np.ndarray:
    """Transforms of ``exp(2 pi i j x)``, j = -m..m: ``e^{-pi i (w-j)} sinc(w-j)``."""
    d = omegas[:, None] - np.arange(-m, m + 1)[None, :]
    return np.exp(-1j * np.pi * d) * np.sinc(d)


def legendre_design(omegas: np.ndarray, m: int) -> np.ndarray:
    """Transforms of ``sqrt(2n+1) P_n(2x-1)``, n = 0..m.

    From ``int_{-1}^{1} P_n(t) e^{iat} dt = 2 i^n j_n(a)`` with ``a = -pi w``:
    ``F_n(w) = sqrt(2n+1) e^{-pi i w} (-i)^n j_n(pi w)``; ``j_n`` of a
    negative argument follows from its parity ``(-1)^n``.
    """
    n = np.arange(m + 1)[None, :]
    w = omegas[:, None]
    jn = spherical_jn(n, np.pi * np.abs(w)) * np.where(w < 0, (-1.0) ** n, 1.0)
    return np.sqrt(2 * n + 1) * np.exp(-1j * np.pi * w) * (-1j) ** n * jn


def stability_ratio(design: np.ndarray, points: np.ndarray, k: float) -> float:
    """``(1 + delta) / sigma_min(diag(sqrt(mu)) A)``; +inf when rank-deficient."""
    mu = midpoint_weights(points, k)
    if design.shape[1] > design.shape[0]:
        return math.inf
    sig = np.linalg.svd(np.sqrt(mu)[:, None] * design, compute_uv=False)
    if sig[-1] <= 0.0:
        return math.inf
    return (1.0 + ghost_density(points, k)) / float(sig[-1])


# ---------------------------------------------------------------------------
# known members of each space kind


def _gauss_transform(pieces, omegas: np.ndarray, nodes: int = 12) -> np.ndarray:
    """``int f(x) e^{-2 pi i w x} dx`` for a function smooth on each piece.

    ``pieces`` is a list of ``(a, b, fun)``.  Each piece is cut into equal
    panels spanning at most half an oscillation of the highest frequency,
    where a 12-point Gauss rule is exact to rounding for the pieces used
    here.  With panel centres ``c_p`` and offsets ``t_q`` the kernel splits
    as ``e^{-2 pi i w c_p} e^{-2 pi i w t_q}``, so the sum is one matrix
    product per piece.
    """
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    w = omegas[:, None]
    wmax = float(np.max(np.abs(omegas)))
    out = np.zeros(omegas.size, dtype=complex)
    for a, b, fun in pieces:
        m = max(1, math.ceil((b - a) * (2.0 * wmax + 1.0)))
        h = (b - a) / m
        centres = a + h * (np.arange(m) + 0.5)
        offsets = h / 2 * gx
        fx = fun((centres[:, None] + offsets[None, :]).ravel()).reshape(m, nodes)
        fx = fx * (h / 2 * gw)[None, :]
        inner = np.exp(-2j * np.pi * w * centres[None, :]) @ fx      # (n_w, q)
        out += np.sum(inner * np.exp(-2j * np.pi * w * offsets[None, :]), axis=1)
    return out


class Member:
    """A function known to lie in a nugs space, with its values and transform.

    ``space`` is the package's compact space syntax (``trig:M``,
    ``legendre:M``, ``piecewise_const:L``, ``spline:D:L``,
    ``piecewise_poly:w1,w2:m0,m1,m2``).  Coefficients are complex normal
    draws from ``rng``.
    """

    def __init__(self, space: str, rng: np.random.Generator):
        self.space = space
        parts = space.split(":")
        self.kind = parts[0]

        def draw(n):
            return rng.normal(size=n) + 1j * rng.normal(size=n)

        if self.kind == "trig":
            self.m = int(parts[1])
            self.c = draw(2 * self.m + 1)
        elif self.kind == "piecewise_const":
            self.c = draw(int(parts[1]))
        elif self.kind == "legendre":
            self.pieces = [(0.0, 1.0, _legendre_piece(draw(int(parts[1]) + 1)))]
        elif self.kind == "spline":
            d, l = int(parts[1]), int(parts[2])
            t = np.concatenate((np.zeros(d + 1), np.arange(1, l) / l, np.ones(d + 1)))
            c = draw(l + d)
            re, im = BSpline(t, c.real, d), BSpline(t, c.imag, d)
            brk = np.linspace(0.0, 1.0, l + 1)
            fun = lambda x: re(x) + 1j * im(x)  # noqa: E731
            self.pieces = [(a, b, fun) for a, b in zip(brk[:-1], brk[1:])]
        elif self.kind == "piecewise_poly":
            knots = [float(t) for t in parts[1].split(",")]
            degs = [int(t) for t in parts[2].split(",")]
            brk = [0.0, *knots, 1.0]
            self.pieces = [(a, b, _poly_piece(draw(m + 1), a, b))
                           for a, b, m in zip(brk[:-1], brk[1:], degs)]
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "trig":
            return np.exp(2j * np.pi * np.outer(x, np.arange(-self.m, self.m + 1))) @ self.c
        if self.kind == "piecewise_const":
            l = self.c.size
            return self.c[np.minimum((x * l).astype(int), l - 1)]
        out = np.empty(x.size, dtype=complex)
        for a, b, fun in self.pieces:
            sel = (x >= a) & (x < b)
            out[sel] = fun(x[sel])
        return out

    def transform(self, omegas: np.ndarray) -> np.ndarray:
        w = np.asarray(omegas, dtype=float)
        if self.kind == "trig":
            return trig_design(w, self.m) @ self.c
        if self.kind == "piecewise_const":
            l = self.c.size
            a = np.arange(l) / l
            h = 1.0 / l
            cells = h * np.exp(-1j * np.pi * w[:, None] * (2 * a + h)[None, :]) \
                * np.sinc(w * h)[:, None]
            return cells @ self.c
        return _gauss_transform(self.pieces, w)


def _legendre_piece(c):
    series = np.polynomial.Legendre(c, domain=[0.0, 1.0])
    return lambda x: series(x)


def _poly_piece(c, a, b):
    poly = np.polynomial.Polynomial(c, domain=[a, b])
    return lambda x: poly(x)


# ---------------------------------------------------------------------------
# band concentration of piecewise constants


def pconst_residual(cells: int, z: float) -> float:
    """Out-of-band residual of L uniform piecewise constants, by sine integrals.

    With orthonormal ``sqrt(L) 1_{[j/L, (j+1)/L)}`` the concentration matrix
    is Toeplitz in ``n = i - k``:
    ``B_n = (2/pi) int_0^U cos(2 n u) sin(u)^2 / u^2 du`` with ``U = pi z / L``.
    Writing ``G(a) = int_0^U (1 - cos(a u)) / u^2 du = a Si(a U) - (1 - cos(a U)) / U``
    gives ``B_n = (G(2|n+1|) + G(2|n-1|) - 2 G(2|n|)) / (2 pi)``.  At L = 1,
    z = 1/2 this is the pinned ``(2/pi)(Si(pi) - 2/pi)``.
    """
    u = math.pi * z / cells

    def g(a):
        a = np.abs(a).astype(float)
        si = sici(a * u)[0]
        return np.where(a > 0, a * si - (1.0 - np.cos(a * u)) / u, 0.0)

    n = np.arange(cells)
    col = (g(2 * (n + 1)) + g(2 * (n - 1)) - 2.0 * g(2 * n)) / (2.0 * math.pi)
    lam = float(np.linalg.eigvalsh(toeplitz(col))[0])
    return math.sqrt(max(1.0 - min(max(lam, 0.0), 1.0), 0.0))
