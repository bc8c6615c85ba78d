"""Band-concentration residuals, subspace gaps and their bound checks.

The z-residual of a space is the worst-case transform energy of a
unit-norm member outside (-z, z).  Writing B(z) for the Hermitian matrix
of banded transform inner products of an orthonormal basis, Plancherel on
(0,1)-supported functions gives ``residual^2 = 1 - lambda_min(B(z))``,
a finite eigenproblem.  For the exponentials B(z) is real symmetric and
has a closed form in sine and cosine integrals, 2 (2m + 1) of them per
matrix and no quadrature.  The other kinds integrate over panels of Gauss
nodes.  A residual curve costs one refinement per 2.5e5 / dim^2 bands:
``_concentrations`` integrates each segment between successive bands
once, all segments of a group in one pass of transforms per round, and
takes B at each band as the running sum of the segment integrals, so B
grows with z by construction; one band (``concentration_matrix``) is one
segment.  On the uniform cells of piecewise constants and splines a cell
transform depends on its cell j only through the phase
e^{-pi i w (2j+1) h}, so the Gram of the cell transforms is block Toeplitz,
and the concentration quadrature sums its lags instead of building a
table of transforms per cell.  The gap between two polynomial-kind spaces
is the largest singular value of the projection residual, with both bases
re-expanded on the merged cell partition: one evaluation of each basis at
the Gauss nodes of all merged cells and one contraction with a local
Legendre table.  A pair with the exponential basis reads the gap off the
smallest singular value of the cross-Gram matrix of transforms.  The gap
bound takes the growth constants of ``spaces``, which are closed forms in
each cell's degree and width.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np
from scipy.special import sici

from . import fourier, spaces
from .quadrature import gauss_rule, panel_edges, panel_nodes, refine
from .spaces import OrthoBasis, SpaceSpec
from .validation import check_count, check_positive_finite, is_real_number, write_csv

_KNOT_FREE = ("trig", "legendre")
# kinds on uniform cells, whose cell-level Gram of transforms is block Toeplitz
_UNIFORM_CELLS = ("piecewise_const", "spline")
# they contract one block-Toeplitz cell Gram per band segment at a cost of
# dim (L p)^2 each, the dense path at about nodes L p dim, so they take it
# while segments times L p is at most this many times the node count (the
# measured crossover of one segment is 3 to 8)
_LAG_NODES = 4
# matrix entries of the stack of concentration matrices one refinement
# holds (2 MB): a residual curve refines its bands this many over dim^2 at
# a time, so its memory does not grow with the number of bands
_CURVE_ENTRIES = 2.5e5
# Gauss nodes per frequency panel of the concentration quadrature
_CONCENTRATION_NODES = 12
# entrywise agreement of two panel widths at which a concentration matrix is kept
_CONCENTRATION_TOL = 1e-11
# rounding allowance of the gap and triangle bound checks
_SLACK = 1e-10
# the top of each ``band_requirement_fit`` bracket is this many times L, plus 2
_Z_HI_FACTOR = 4.0


@dataclass(frozen=True)
class ResidualCurve:
    space: SpaceSpec
    z: np.ndarray
    e: np.ndarray

    def save_csv(self, path) -> None:
        write_csv(path, ("z", "e"),
                  np.column_stack((self.z, self.e)).astype(float).ravel().tolist())


@dataclass(frozen=True)
class GapReport:
    """Gap between the piecewise-constant reference space and a space,
    against the growth-constant bound."""

    gap: float
    bound: float
    cells: int
    min_spacing: float
    precondition_ok: bool
    holds: bool | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class TriangleReport:
    """Residual of a space against residual-of-reference plus gap."""

    tail: float
    reference_tail: float
    gap: float
    slack: float
    holds: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def concentration_matrix(basis: OrthoBasis, z: float) -> np.ndarray:
    """Banded Gram ``B[i,k] = int_{-z}^{z} conj(F_i) F_k`` of basis transforms,
    the one-band case of ``_concentrations``, which gives B at every band of
    a residual curve from one refinement.

    The exponentials of ``trig`` have F_j(w) = e^{-pi i (w - j)} sinc(w - j),
    so conj(F_j) F_k = sin^2(pi w) / (pi^2 (w - j) (w - k)) and B is real
    symmetric, in closed form (``_trig_concentration``), band by band:
    B_jk = (S_j - S_k) / (pi^2 (j - k)) off the diagonal, with
    S_a = (Cin(2 pi |z - a|) - Cin(2 pi |z + a|)) / 2, and
    B_jj = G(z - j) + G(z + j) with G(u) = Si(2 pi u) / pi - sin^2(pi u) / (pi^2 u).
    It is exact up to rounding.

    The other kinds have real coefficients, so their transforms are
    conjugate symmetric and B is twice the real part of the integral over
    (0, z).  The integrand ``conj(F_i(w)) F_k(w)`` is
    ``int int conj(phi_i(x)) phi_k(y) exp(2 pi i w (x - y)) dx dy`` with
    |x - y| < 1, so it oscillates at most once per unit of w, and a
    12-node Gauss panel one unit wide resolves it to about 1e-19 (two
    units wide, to about 3e-12).  Each segment (z_{j-1}, z_j) between
    successive bands, with z_0 = 0, is integrated once, and B(z_j) is the
    running sum of the segment integrals, so the curve of lambda_min is
    monotone by construction.  A segment's panels start two units wide, or
    as wide as the segment when it is narrower, so that the first halving
    always changes its node layout; all segments halve together, and
    ``refine`` returns the finer estimates once no entry of any B(z_j)
    moved by more than 1e-11.  One band is one segment on (0, z).

    Piecewise constants and splines lie on L uniform cells of width h, so
    their cell Gram is block Toeplitz: block (j, k) is
    h sum_v q_v conj(f(w_v)) f(w_v)^T e^{-2 pi i w_v (k - j) h}, one table of
    p order factors f and p^2 lag sequences (``fourier.uniform_cell_lags``)
    in place of the nodes x L p table of cell transforms.  Legendre and
    piecewise polynomials contract their basis transforms node by node, and
    so do uniform cells while the segments times L p exceed 4 times the
    node count (small z, or many narrow segments), where an (L p)^2 Gram per
    segment costs more than the per-node products.  Both paths take the
    nodes of all segments together, in chunks of 2e5 / dim: one transform
    table, or one order-factor table, per chunk, and each segment's sums
    over its own nodes in it.  A curve refines its bands 2.5e5 / dim^2 at
    a time, each group's running sum starting from the last B of the group
    before, so its memory does not grow with the number of bands.
    """
    return next(_concentrations(basis, [check_positive_finite(z, "z")]))


def _concentrations(basis: OrthoBasis, zs: list[float]):
    """Yield B(z) of ``concentration_matrix`` at each band of the ascending,
    distinct, positive ``zs``, in order, refining ``_CURVE_ENTRIES / dim^2``
    bands at a time."""
    if basis.orders is not None:
        for z in zs:
            yield _trig_concentration(basis.orders, z)
        return
    size = max(1, int(_CURVE_ENTRIES // basis.dim**2))
    for lo in range(0, len(zs), size):
        group = _refined(basis, zs[lo - 1] if lo else 0.0, zs[lo:lo + size])
        if lo:
            group += last
        last = group[-1].copy()
        yield from group


def _refined(basis: OrthoBasis, start: float, zs: list[float]) -> np.ndarray:
    """B(z_j) - B(start) for the bands ``zs`` above ``start``, from one
    refinement, (len(zs), dim, dim)."""
    bands = [start, *zs]
    starts = [min(2.0, hi - lo) for lo, hi in zip(bands, zs)]
    widest = max(starts)

    def estimate(width):
        # width / widest is a power of two, so every segment halves exactly
        return _concentration_fixed(basis, bands, [s * (width / widest) for s in starts])

    return refine(estimate, widest,
                  lambda new, old: np.max(np.abs(new - old)) <= _CONCENTRATION_TOL,
                  f"concentration on (-{zs[-1]:g}, {zs[-1]:g})")


def _trig_concentration(orders: np.ndarray, z: float) -> np.ndarray:
    """The closed form of B(z) for the exponentials of integer ``orders``:
    2 (2m + 1) sine and cosine integrals, no quadrature."""
    a = orders.astype(float)
    u = np.concatenate((z - a, z + a))
    x = 2.0 * np.pi * np.abs(u)
    at0 = x == 0.0
    x[at0] = 1.0  # Cin(0) = G(0) = 0, set below
    si, ci = sici(x)
    # Cin(x) = gamma + ln x - Ci(x); sin^2(pi u) = sin^2(pi z) for integer orders
    cin = np.where(at0, 0.0, np.euler_gamma + np.log(x) - ci)
    s2 = math.sin(math.pi * math.fmod(z, 1.0)) ** 2
    g = np.where(at0, 0.0, np.copysign(si / np.pi - 2.0 * s2 / (np.pi * x), u))
    dim = a.size
    s = (cin[:dim] - cin[dim:]) / 2.0
    diff = a[:, None] - a[None, :]
    np.fill_diagonal(diff, 1.0)
    out = (s[:, None] - s[None, :]) / (np.pi**2 * diff)
    np.fill_diagonal(out, g[:dim] + g[dim:])
    return out


def _concentration_fixed(basis: OrthoBasis, bands: list[float],
                         widths: list[float]) -> np.ndarray:
    """B(z_j) - B(z_0) for the ascending ``bands`` z_0 < z_1 < ..., on
    panels of the given width in each segment (z_{j-1}, z_j)."""
    edges = [panel_edges(lo, hi, (), width)
             for lo, hi, width in zip(bands, bands[1:], widths)]
    xs, ws = panel_nodes(np.concatenate([edges[0], *(e[1:] for e in edges[1:])]),
                         _CONCENTRATION_NODES)
    stops = list(accumulate((e.size - 1) * _CONCENTRATION_NODES for e in edges))
    if (basis.space.kind in _UNIFORM_CELLS
            and len(stops) * basis.coeffs[0].size <= _LAG_NODES * xs.size):
        return np.cumsum(_toeplitz_concentration(basis, xs, ws, stops), axis=0)
    out = np.zeros((len(stops), basis.dim, basis.dim), dtype=complex)
    for sel, parts in _chunk_parts(stops, basis.dim):
        phi = fourier.basis_transform(basis, xs[sel])
        wts = ws[sel]
        for j, r in parts:
            out[j] += (phi[r].conj() * wts[r, None]).T @ phi[r]
    return np.cumsum(2.0 * out.real, axis=0)


def _toeplitz_concentration(basis: OrthoBasis, xs: np.ndarray, ws: np.ndarray,
                            stops: list[int]) -> np.ndarray:
    """2 Re C G C^T on the half-band nodes ``xs`` with weights ``ws``, for a
    basis on uniform cells.  G, the Gram of the cell transforms indexed by
    (cell, order) like ``OrthoBasis.coeffs``, has block (j, k) equal to lag
    k - j of ``fourier.uniform_cell_lags`` for k >= j, and to the conjugate
    transpose of lag j - k otherwise.  Piecewise constants have C = I.
    One matrix per node segment, whose ends are ``stops``: (len(stops), dim,
    dim)."""
    cells, p = basis.coeffs.shape[1:]
    lags = [0.0] * len(stops)
    for sel, parts in _chunk_parts(stops, basis.dim):
        sums = fourier.uniform_cell_lags(cells, p, xs[sel], ws[sel], [r for _, r in parts])
        for (j, _), part in zip(parts, sums):
            lags[j] = lags[j] + part
    out = np.empty((len(lags), basis.dim, basis.dim))
    j = np.arange(cells)
    coeffs = basis.coeffs.reshape(basis.dim, -1)
    for seg, lag in enumerate(lags):
        # lags -(cells-1)..cells-1 of Re G; lag -t is the transpose of lag t
        lag = lag.real
        ext = np.concatenate((lag.transpose(1, 0, 2)[:, :, :0:-1], lag), axis=2)
        gram = ext[:, :, j - j[:, None] + cells - 1].transpose(2, 0, 3, 1).reshape(cells * p, -1)
        out[seg] = 2.0 * (gram if basis.space.kind == "piecewise_const"
                          else coeffs @ gram @ coeffs.T)
    return out


def _node_chunks(count: int, dim: int) -> list[slice]:
    """Slices of ``count`` nodes, 2e5 / dim at a time."""
    step = max(1, int(2e5 // max(dim, 1)))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _chunk_parts(stops, dim: int):
    """The ``_node_chunks`` of the nodes of successive segments ending at
    ``stops``, each with the pairs (segment, node range within the chunk)
    of the segments it meets."""
    bounds = list(zip([0, *stops[:-1]], stops))
    for sel in _node_chunks(stops[-1], dim):
        yield sel, [(j, slice(max(lo, sel.start) - sel.start, min(hi, sel.stop) - sel.start))
                    for j, (lo, hi) in enumerate(bounds) if lo < sel.stop and hi > sel.start]


def residual(space: SpaceSpec, z: float) -> float:
    """Worst-case out-of-band transform energy of a unit-norm member."""
    return residual_from_basis(fourier.cached_basis(space), z)


def residual_from_basis(basis: OrthoBasis, z: float) -> float:
    return _residual_of(concentration_matrix(basis, check_positive_finite(z, "z")))


def _residual_of(b: np.ndarray) -> float:
    """sqrt(1 - lambda_min(B)), with the spectrum clipped to [0, 1]."""
    lam = np.clip(np.linalg.eigvalsh(b), 0.0, 1.0)
    return math.sqrt(max(1.0 - float(lam[0]), 0.0))


def residual_curve(space: SpaceSpec, zs) -> ResidualCurve:
    """Residuals at the bands ``zs``, in any order and with repeats, from
    one ``_concentrations`` pass over their distinct values."""
    zs = np.array([check_positive_finite(z, "z in zs") for z in zs], dtype=float)
    bands, back = np.unique(zs, return_inverse=True)
    es = [_residual_of(b) for b in _concentrations(fourier.cached_basis(space), bands.tolist())]
    return ResidualCurve(space=space, z=zs, e=np.array(es, dtype=float)[back])


# ---------------------------------------------------------------------------
# gaps


def _merged_frame_coeffs(basis: OrthoBasis, cuts: np.ndarray, p: int) -> np.ndarray:
    """Exact re-expansion of a polynomial-kind basis on a finer partition,
    (dim, cells, p).

    Gauss rules of p + local_dim nodes make every cell's projection onto
    its first p Legendre functions exact.  The basis is evaluated once, at
    the nodes of all cells; the weighted local Legendre table is the same
    on every cell up to the factor sqrt(h), so one contraction does all
    the cells."""
    xg, wg = gauss_rule(p + basis.local_dim)
    h = np.diff(cuts)
    xs = (cuts[:-1] + h / 2)[:, None] + (h / 2)[:, None] * xg
    vals = spaces.evaluate(basis, xs.ravel()).reshape(basis.dim, h.size, xg.size)
    table = spaces.legendre_values(p, xg) * (np.sqrt(2 * np.arange(p) + 1) / 2)[:, None] * wg
    return (vals @ table.T) * np.sqrt(h)[:, None]


def gap(u: SpaceSpec, v: SpaceSpec) -> float:
    """Operator norm of (I - P_u) restricted to v, in [0, 1].

    Polynomial pairs are expanded on the merged cell partition, where the
    norm of the projection residual is a plain largest singular value;
    this stays accurate near zero (contained subspaces).  Pairs involving
    the exponential basis fall back to the cross-Gram identity
    ``gap = sqrt(1 - smin^2)``.
    """
    bu = fourier.cached_basis(u)
    bv = fourier.cached_basis(v)
    if bu.orders is not None and bv.orders is not None:
        return 0.0 if np.all(np.isin(bv.orders, bu.orders)) else 1.0
    if bu.orders is None and bv.orders is None:
        cuts = np.unique(np.concatenate((bu.breaks, bv.breaks)))
        p = max(bu.local_dim, bv.local_dim)
        cu = _merged_frame_coeffs(bu, cuts, p).reshape(bu.dim, -1)
        cv = _merged_frame_coeffs(bv, cuts, p).reshape(bv.dim, -1)
        resid = cv - (cv @ cu.T) @ cu
        smax = np.linalg.svd(resid, compute_uv=False)[0]
        return min(float(smax), 1.0)
    if bu.orders is not None:
        # <v_m, e_l> = transform of v_m at order l
        x = fourier.basis_transform(bv, bu.orders.astype(float))
    else:
        # <e_m, u_l> = conj(transform of u_l at order m)
        x = fourier.basis_transform(bu, bv.orders.astype(float)).conj().T
    if x.shape[1] > x.shape[0]:
        return 1.0
    smin = np.linalg.svd(x, compute_uv=False)[-1]
    return math.sqrt(min(max(1.0 - float(smin) ** 2, 0.0), 1.0))


def _reference_space(cells: int) -> SpaceSpec:
    return SpaceSpec.piecewise_const(cells)


def gap_bound(space: SpaceSpec, cells: int) -> float:
    """Growth-constant bound on the gap against ``cells`` uniform constants.

    Knot-free spaces use the sharper derivative-only form
    ``growth / (pi L)``; knotted spaces add the sup-norm term."""
    cells = check_count(cells, "cells")
    g = spaces.growth_constants(space)
    if space.kind in _KNOT_FREE:
        return g.derivative_growth / (math.pi * cells)
    return math.sqrt((g.derivative_growth / (math.pi * cells)) ** 2
                     + 4.0 * g.sup_growth**2 / cells)


def verify_gap_bound(space: SpaceSpec, cells: int) -> GapReport:
    """Check gap <= bound up to 1e-10; requires cell width 1/L at most the
    space's minimum knot spacing, otherwise no assertion is made."""
    cells = check_count(cells, "cells")
    eta = spaces.min_spacing(space)
    ok = (1.0 / cells) <= eta * (1.0 + 1e-12)
    g = gap(_reference_space(cells), space)
    bound = gap_bound(space, cells)
    holds = bool(g <= bound + _SLACK) if ok else None
    return GapReport(gap=g, bound=bound, cells=cells, min_spacing=eta,
                     precondition_ok=ok, holds=holds)


def verify_triangle_bound(space: SpaceSpec, cells: int, z: float) -> TriangleReport:
    """Check residual(space, z) <= residual(constants_L, z) + gap, up to 1e-10."""
    cells = check_count(cells, "cells")
    e_t = residual(space, z)
    e_s = residual(_reference_space(cells), z)
    g = gap(_reference_space(cells), space)
    slack = e_s + g - e_t
    return TriangleReport(tail=e_t, reference_tail=e_s, gap=g, slack=slack,
                          holds=bool(slack >= -_SLACK))


def band_requirement_fit(eps: float, cell_counts):
    """Empirical band growth of the piecewise-constant residual.

    For each L, bisect the smallest z with residual <= eps, then fit the
    crossing points linearly in L.  Returns (slope, intercept, crossings);
    the slope is the measured proportionality constant (it is not a stored
    ground truth, only its existence is relied upon).
    """
    if not (is_real_number(eps) and 0 < eps < 1):
        raise ValueError(f"eps must be a number in (0, 1), got {eps!r}")
    counts = [check_count(l, "cells in cell_counts") for l in cell_counts]
    if len(set(counts)) < 2:  # a line through one L is not determined
        raise ValueError(f"cell_counts must hold at least two distinct cell counts, "
                         f"got {counts}")
    crossings = []
    for l in counts:
        basis = fourier.cached_basis(_reference_space(l))
        lo, hi = 1e-3, _Z_HI_FACTOR * float(l) + 2.0
        if residual_from_basis(basis, hi) > eps:
            raise ValueError(f"residual at z={hi:g} still above {eps:g} for L={l}")
        for _ in range(60):
            mid = (lo + hi) / 2
            if residual_from_basis(basis, mid) <= eps:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-6 * max(1.0, hi):
                break
        crossings.append((lo + hi) / 2)
    ls = np.asarray(counts, dtype=float)
    zs = np.asarray(crossings)
    slope, intercept = np.polyfit(ls, zs, 1)
    return float(slope), float(intercept), zs
