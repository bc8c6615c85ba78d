"""Reconstruction spaces on the unit interval and their orthonormal bases.

Five kinds are supported: complex exponentials (``trig``), algebraic
polynomials (``legendre``), piecewise polynomials on arbitrary knots
(``piecewise_poly``), splines of degree d on uniform cells (``spline``)
and piecewise constants (``piecewise_const``).

Every non-trig space is realized as per-cell coefficients in shifted,
normalized Legendre polynomials, which are orthonormal on each cell under
the plain L2 inner product.  This makes Gram matrices, derivatives and
Fourier transforms exact, and makes orthonormalization a plain QR in
coefficient space.  Cells are half-open ``[a, b)``.  All B-spline
coefficients come from one table, ``_bspline_blocks``: the d+1 blocks of
each cell, rescaled from at most 2d+1 cells.  A spline basis orthonormalizes
those blocks scattered into its (l+d, l, d+1) coefficient array, and the L2
Gram of the raw B-splines is summed from them, folded by mirror symmetry
(``_mirror_fold``) and kept only as its upper band (``_bspline_band``).

The module also computes the two intrinsic growth constants of a space:
the worst-case derivative growth and the worst-case sup-norm growth of a
unit-norm member per cell.  Both are sharp and in closed form: on each cell
every polynomial kind restricts to the full space P_m of its cell degree
(for splines, the d+1 B-splines that touch a cell span P_d there), so on a
cell of width h the derivative growth is the spectral norm of the
derivative map on P_m, ||D_{m+1}||_2 / h, and the sup growth is
(m+1)/sqrt(h), the square root of the reproducing-kernel diagonal
sum_n (2n+1) P_n^2 / h at the cell's ends.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import gauss_rule
from .validation import (as_complex_array, check_count, check_integer, check_positions,
                         is_real_number, json_field, json_list, json_number)

KINDS = ("trig", "legendre", "piecewise_poly", "spline", "piecewise_const")
_KNOT_SEPARATION = 1e-14


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a reconstruction space.

    Use the factory classmethods; the constructor is shared across kinds
    and not every field applies to every kind.
    """

    kind: str
    degree: int = 0                      # trig/legendre order, spline degree
    knots: tuple[float, ...] = ()        # interior knots (piecewise_poly)
    degrees: tuple[int, ...] = ()        # per-cell degrees (piecewise_poly)
    cells: int = 0                       # cell count (spline, piecewise_const)

    @classmethod
    def trig(cls, m: int) -> "SpaceSpec":
        return cls(kind="trig", degree=m)

    @classmethod
    def legendre(cls, m: int) -> "SpaceSpec":
        return cls(kind="legendre", degree=m)

    @classmethod
    def piecewise_poly(cls, knots, degrees) -> "SpaceSpec":
        return cls(kind="piecewise_poly", knots=knots, degrees=degrees)

    @classmethod
    def spline(cls, d: int, l: int) -> "SpaceSpec":
        return cls(kind="spline", degree=d, cells=l)

    @classmethod
    def piecewise_const(cls, l: int) -> "SpaceSpec":
        return cls(kind="piecewise_const", cells=l)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        # numpy integers are stored as int, so the JSON round trip holds
        for name in ("degree", "cells"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if not np.iterable(self.degrees):
            raise ValueError(f"degrees must be a sequence of integers, got {self.degrees!r}")
        object.__setattr__(self, "degrees", tuple(check_integer(m, "each entry of degrees")
                                                  for m in self.degrees))
        knots = tuple(self.knots) if np.iterable(self.knots) else None
        if knots is None or not all(is_real_number(t) and math.isfinite(t) for t in knots):
            raise ValueError(f"knots must be a sequence of finite real numbers, "
                             f"got {self.knots!r}")
        object.__setattr__(self, "knots", tuple(map(float, knots)))
        if self.kind in ("trig", "legendre"):
            if self.degree < 0:
                raise ValueError("order must be nonnegative")
        elif self.kind == "piecewise_poly":
            w = self.knots
            if any(not (0.0 < t < 1.0) for t in w):
                raise ValueError("knots must lie strictly inside (0, 1)")
            if any(b - a < _KNOT_SEPARATION for a, b in zip(w, w[1:])):
                raise ValueError("knots must be separated by more than 1e-14")
            if len(self.degrees) != len(w) + 1:
                raise ValueError("need one degree per subinterval")
            if any(m < 0 for m in self.degrees):
                raise ValueError("degrees must be nonnegative")
        elif self.kind == "spline":
            if self.degree < 0 or self.cells < 1:
                raise ValueError("spline needs degree >= 0 and cells >= 1")
        else:
            if self.cells < 1:
                raise ValueError("piecewise_const needs cells >= 1")

    def to_json(self) -> str:
        d = {"kind": self.kind, "knots": list(self.knots),
             "degrees": list(self.degrees), "d": None, "l": None, "m": None}
        if self.kind in ("trig", "legendre"):
            d["m"] = self.degree
        elif self.kind == "spline":
            d["d"], d["l"] = self.degree, self.cells
        elif self.kind == "piecewise_const":
            d["l"] = self.cells
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "SpaceSpec":
        d = json.loads(text)
        kind = json_field(d, "kind")
        if kind in ("trig", "legendre"):
            return cls(kind=kind, degree=check_count(json_field(d, "m"), "m", 0))
        if kind == "spline":
            return cls(kind=kind, degree=check_count(json_field(d, "d"), "d", 0),
                       cells=check_count(json_field(d, "l"), "l", 1))
        if kind == "piecewise_const":
            return cls(kind=kind, cells=check_count(json_field(d, "l"), "l", 1))
        if kind == "piecewise_poly":
            knots = [json_number(t, "knots") for t in json_list(json_field(d, "knots"), "knots")]
            degrees = [check_count(m, "degrees", 0)
                       for m in json_list(json_field(d, "degrees"), "degrees")]
            return cls.piecewise_poly(knots, degrees)
        return cls(kind=kind)  # __post_init__ rejects the unknown kind


@dataclass(frozen=True)
class GrowthConstants:
    """Sharp per-cell growth of unit-norm members of a space.

    derivative_growth : sup of ||f'|| over cells, unit cell norm (1/length).
    sup_growth        : sup of ||f||_inf over cells, unit cell norm.
    """

    derivative_growth: float
    sup_growth: float


def breakpoints(space: SpaceSpec) -> np.ndarray:
    """Cell boundaries of the space's partition of [0, 1]."""
    if space.kind == "piecewise_poly":
        return np.array((0.0, *space.knots, 1.0))
    if space.kind in ("spline", "piecewise_const"):
        return np.linspace(0.0, 1.0, space.cells + 1)
    return np.array((0.0, 1.0))


def min_spacing(space: SpaceSpec) -> float:
    """Smallest cell width of the partition (1.0 for knot-free kinds)."""
    return float(np.min(np.diff(breakpoints(space))))


def _cell_degrees(space: SpaceSpec) -> np.ndarray:
    """Polynomial degree of the space on each cell of its partition (every
    kind but trig)."""
    if space.kind == "legendre":
        return np.array([space.degree])
    if space.kind == "piecewise_poly":
        return np.array(space.degrees)
    return np.full(space.cells, space.degree if space.kind == "spline" else 0)


def dimension(space: SpaceSpec) -> int:
    if space.kind == "trig":
        return 2 * space.degree + 1
    if space.kind == "spline":
        return space.cells + space.degree
    return int(np.sum(_cell_degrees(space) + 1))


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal basis realization of a space.

    For polynomial kinds, ``coeffs[i, j, n]`` holds the coefficient of the
    n-th normalized shifted Legendre polynomial on cell j in basis function
    i.  For ``trig`` the basis is the exponentials with integer orders.
    """

    space: SpaceSpec
    breaks: np.ndarray
    coeffs: np.ndarray | None = None      # (dim, n_cells, p)
    orders: np.ndarray | None = None      # (dim,) for trig

    @property
    def dim(self) -> int:
        return len(self.orders) if self.orders is not None else self.coeffs.shape[0]

    @property
    def local_dim(self) -> int:
        return 0 if self.coeffs is None else self.coeffs.shape[2]


def legendre_values(p: int, t: np.ndarray) -> np.ndarray:
    """P_0..P_{p-1} at points t in [-1, 1], shape (p, len(t))."""
    t = np.asarray(t, dtype=float)
    out = np.empty((p, t.size))
    if p > 0:
        out[0] = 1.0
    if p > 1:
        out[1] = t
    for n in range(1, p - 1):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


@lru_cache(maxsize=256)
def _deriv_matrix_unit(p: int) -> np.ndarray:
    """Derivative map in normalized-Legendre coordinates on a unit cell."""
    d = np.zeros((p, p))
    for n in range(p):
        for k in range((n + 1) % 2, n, 2):  # k < n with n - k odd
            d[k, n] = 2.0 * math.sqrt((2 * n + 1) * (2 * k + 1))
    return d


def _bspline_all_values(d: int, l: int, x: np.ndarray) -> np.ndarray:
    """Values of all l+d clamped uniform B-splines of degree d, (l+d, len(x))."""
    tau = np.concatenate((np.zeros(d + 1), np.arange(1, l) / l, np.ones(d + 1)))
    nfun = len(tau) - 1
    vals = np.zeros((nfun, x.size))
    idx = np.clip(np.searchsorted(tau, x, side="right") - 1, 0, nfun - 1)
    vals[idx, np.arange(x.size)] = 1.0
    for r in range(1, d + 1):
        # Cox-de Boor for every B-spline i < nfun - r at once; a term whose
        # knot span is empty is dropped
        lo, up = tau[:nfun - r, None], tau[r + 1:, None]
        den1 = tau[r:nfun, None] - lo
        den2 = up - tau[1:nfun - r + 1, None]
        left = (x - lo) / np.where(den1 > 0, den1, 1.0) * vals[:-1]
        right = (up - x) / np.where(den2 > 0, den2, 1.0) * vals[1:]
        vals = np.where(den1 > 0, left, 0.0) + np.where(den2 > 0, right, 0.0)
    return vals[: l + d]


@lru_cache(maxsize=64)
def _bspline_table(d: int, l0: int) -> np.ndarray:
    """``_bspline_blocks(d, l0)`` for l0 <= 2d+1 cells, projected from the
    values of all l0+d B-splines at the cells' d+1 Gauss nodes."""
    p = d + 1
    gx, gw = gauss_rule(p)
    breaks = np.linspace(0.0, 1.0, l0 + 1)
    h = 1.0 / l0
    # Gauss nodes for every cell at once
    mids = (breaks[:-1] + breaks[1:]) / 2
    nodes = mids[:, None] + (h / 2) * gx[None, :]          # (l0, p)
    bvals = _bspline_all_values(d, l0, nodes.ravel()).reshape(l0 + d, l0, p)
    t = 2 * (nodes - breaks[:-1, None]) / h - 1            # (l0, p)
    norm = np.sqrt((2 * np.arange(p) + 1) / h)
    leg = legendre_values(p, t.ravel()).reshape(p, l0, p)  # (n, cell, node)
    phi = leg * norm[:, None, None]
    # coeff[i, j, n] = sum_q w_q * B_i(x_jq) * phi_n(x_jq), w_q = gw * h/2
    coeff = np.einsum("ijq,njq,q->ijn", bvals, phi, gw * h / 2)
    j = np.arange(l0)[:, None]
    blocks = coeff[j + np.arange(p), j].transpose(0, 2, 1)
    blocks.setflags(write=False)
    return blocks


def _bspline_blocks(d: int, l: int) -> np.ndarray:
    """Per-cell B-spline coefficients in the cell-Legendre frame,
    (l, d+1, d+1): entry ``[j, n, r]`` is the order-n coefficient on cell j
    of B-spline j + r, one of the d+1 B-splines that touch cell j.

    On uniform knots a block scales with sqrt(h), and every cell j with
    d <= j < l - d (all d+1 B-splines interior translates) has the same
    one.  So the blocks are those of l0 = min(l, 2d+1) cells times
    sqrt(l0/l) (``_bspline_rescaled``): the d boundary cells on each side
    map to their own, every cell between to the middle cell d.
    """
    table, index = _bspline_rescaled(d, l)
    return table[index]


def _bspline_rescaled(d: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of l0 = min(l, 2d+1) cells times sqrt(l0/l), and the index
    among them of each of the l cells' blocks."""
    l0, cells = min(l, 2 * d + 1), np.arange(l)
    return math.sqrt(l0 / l) * _bspline_table(d, l0), cells - np.clip(cells - d, 0, l - l0)


def _bspline_band(d: int, l: int) -> np.ndarray:
    """The upper band, (d+1, l+d), of the L2 Gram of the raw B-splines folded
    by ``_mirror_fold``, which keeps its half-width d: entry [k, i] is
    G[i, i+k], 0 past the end of the diagonal.  Cell j adds the products of
    the B-splines j..j+d in its orthonormal Legendre frame, once per distinct
    block, to each raw entry from 0 in the order of the local row r."""
    table, index = _bspline_rescaled(d, l)
    local = (table.transpose(0, 2, 1) @ table)[index]
    n = l + d
    upper = np.zeros(n * n)  # entry (i, i+k) at i (n+1) + k
    for k in range(d + 1):
        for r in range(d + 1 - k):
            upper[r * (n + 1) + k::n + 1][:l] += local[:, r, r + k]
    folded = _mirror_fold(upper.reshape(n, n)[:n - n // 2])
    return np.array([np.concatenate((np.diagonal(folded, k), np.zeros(k)))
                     for k in range(d + 1)])


def _mirror_fold(top: np.ndarray) -> np.ndarray:
    """A Hermitian (n, n) M with M[n-1-i, n-1-k] = conj(M[i, k]), given by
    its top rows M[:c], c = ceil(n/2), in the mirror basis where it is real:
    (e_i + e_{n-1-i})/sqrt(2) for i < n/2, e_mid for odd n, then
    -i (e_i - e_{n-1-i})/sqrt(2).  With T = M[i, k], P = M[i, n-1-k] and
    i, k < c, the even, odd and even-odd blocks are Re(T + P), Re(T - P) and
    Im(T - P), with the middle row and column, in both T and P, times
    1/sqrt(2).  The upper triangle reads M's upper triangle and Im(T) only."""
    c, n = top.shape
    h = n - c
    t, p = top[:, :c], top[:, h:][:, ::-1]
    diff = t - p
    out = np.empty((n, n))
    out[:c, :c] = (t + p).real
    out[c:, c:] = diff[:h, :h].real
    out[:c, c:] = diff[:, :h].imag
    if c > h:
        out[h] *= math.sqrt(0.5)
        out[:c, h] *= math.sqrt(0.5)
    out[c:, :c] = out[:c, c:].T
    return out


def build_basis(space: SpaceSpec) -> OrthoBasis:
    """Construct the canonical orthonormal basis of a space.

    Piecewise-polynomial kinds are exactly orthonormal by construction;
    splines scatter the B-spline blocks of ``_bspline_blocks`` into the raw
    (l+d, l, d+1) coefficient array and orthonormalize it by QR in the
    (isometric) local Legendre coordinates.
    """
    breaks = breakpoints(space)
    if np.min(np.diff(breaks)) < _KNOT_SEPARATION:
        raise ValueError("cells narrower than 1e-14 are not representable")
    if space.kind == "trig":
        m = space.degree
        return OrthoBasis(space, breaks, orders=np.arange(-m, m + 1))
    if space.kind != "spline":
        # basis function i is the i-th (cell, order) pair, orders 0..m_j
        # on cell j in turn
        m = _cell_degrees(space)
        cell, order = np.nonzero(np.arange(m.max() + 1) <= m[:, None])
        coeffs = np.zeros((cell.size, m.size, m.max() + 1))
        coeffs[np.arange(cell.size), cell, order] = 1.0
    else:
        d, l = space.degree, space.cells
        raw, j = np.zeros((l + d, l, d + 1)), np.arange(l)[:, None]
        raw[j + np.arange(d + 1), j] = _bspline_blocks(d, l).transpose(0, 2, 1)
        nb = l + d
        q, _ = np.linalg.qr(raw.reshape(nb, -1).T)
        # fix signs so the realization is deterministic
        lead = np.argmax(np.abs(q), axis=0)
        signs = np.sign(q[lead, np.arange(nb)])
        signs[signs == 0] = 1.0
        coeffs = (q * signs).T.reshape(raw.shape)
    c = np.ascontiguousarray(coeffs)
    c.setflags(write=False)
    return OrthoBasis(space, breaks, coeffs=c)


def evaluate(basis: OrthoBasis, x) -> np.ndarray:
    """Basis values at positions in [0, 1); shape (dim,) or (dim, len(x))."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = check_positions(x)
    if basis.orders is not None:
        out = np.exp(2j * np.pi * basis.orders[:, None] * xs[None, :])
    else:
        idx, t, h = _locate(basis.breaks, xs)
        p = basis.local_dim
        phi = legendre_values(p, t) * np.sqrt((2 * np.arange(p) + 1)[:, None] / h[idx])
        out = basis.coeffs[:, idx, 0] * phi[0]
        for n in range(1, p):  # one gather per order, no (dim, len(x), p) table
            out += basis.coeffs[:, idx, n] * phi[n]
    return out[:, 0] if scalar else out


def _locate(breaks: np.ndarray, xs: np.ndarray):
    """Each position's cell and coordinate in [-1, 1) on it; all cell widths."""
    h = np.diff(breaks)
    idx = np.clip(np.searchsorted(breaks, xs, side="right") - 1, 0, h.size - 1)
    return idx, 2 * (xs - breaks[idx]) / h[idx] - 1, h


def check_member(dim: int, coefficients) -> np.ndarray:
    """``coefficients`` of a member of a space of dimension ``dim``: a finite
    complex vector of that length."""
    coeffs = as_complex_array(coefficients, "coefficients")
    if coeffs.size != dim:
        raise ValueError(f"coefficients must have length {dim}, the space "
                         f"dimension, got {coeffs.size}")
    return coeffs


def member_values(basis: OrthoBasis, coefficients, x) -> np.ndarray:
    """Values at positions in [0, 1) of the member with the given
    coefficients, (len(x),).

    A polynomial-kind member is one polynomial of degree < p on each cell,
    so its coefficients are folded into per-cell Legendre coefficients,
    (cells, p), and each position reads the p of its own cell: no
    (dim, len(x)) table of basis values.  Trig sums its exponentials.
    """
    coeffs = check_member(basis.dim, coefficients)
    xs = check_positions(x)
    if basis.orders is not None:
        return coeffs @ np.exp(2j * np.pi * basis.orders[:, None] * xs[None, :])
    p = basis.local_dim
    idx, t, h = _locate(basis.breaks, xs)
    # the Legendre normalization sqrt((2n+1)/h) goes into the (cells, p) fold
    folded = (np.tensordot(coeffs, basis.coeffs, (0, 0))
              * np.sqrt((2 * np.arange(p) + 1) / h[:, None]))
    return np.einsum("in,ni->i", folded[idx], legendre_values(p, t))


def derivative_growth(space: SpaceSpec) -> float:
    """Largest ||f'|| over cells among unit-cell-norm members of the space:
    the spectral norm of the derivative map on the cell's P_m in
    orthonormal Legendre coordinates, scaled by 1/h, maximized over cells.
    The trig derivative is diagonal with largest entry 2 pi m."""
    if space.kind == "trig":
        return 2.0 * np.pi * space.degree
    m, h = _cell_degrees(space), np.diff(breakpoints(space))
    unit = [np.linalg.norm(_deriv_matrix_unit(k + 1), 2) for k in range(m.max() + 1)]
    return float(np.max(np.take(unit, m) / h))


def sup_growth(space: SpaceSpec) -> float:
    """Largest sup-norm over cells among unit-cell-norm members: the square
    root of the kernel diagonal's maximum, (m+1)^2/h at a cell's end on P_m.
    The trig kernel diagonal is the constant 2m+1."""
    if space.kind == "trig":
        return math.sqrt(2 * space.degree + 1)
    m, h = _cell_degrees(space), np.diff(breakpoints(space))
    return float(np.max((m + 1) / np.sqrt(h)))


def growth_constants(space: SpaceSpec) -> GrowthConstants:
    return GrowthConstants(derivative_growth(space), sup_growth(space))
