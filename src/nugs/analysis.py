"""Band-concentration residuals, subspace gaps and their bound checks.

The z-residual of a space is the worst-case transform energy of a
unit-norm member outside (-z, z).  Writing B(z) for the Hermitian matrix
of banded transform inner products of an orthonormal basis, Plancherel on
(0,1)-supported functions gives ``residual^2 = 1 - lambda_min(B(z))``,
a finite eigenproblem.  The gap between two spaces is read off the
smallest singular value of their cross-Gram matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fourier, spaces
from .errors import QuadratureError
from .quadrature import panel_edges, panel_nodes
from .spaces import OrthoBasis, SpaceSpec

_KNOT_FREE = ("trig", "legendre")


@dataclass(frozen=True)
class ResidualCurve:
    space: SpaceSpec
    z: np.ndarray
    e: np.ndarray

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("z,e\n")
            for zi, ei in zip(self.z, self.e):
                fh.write(f"{float(zi)!r},{float(ei)!r}\n")


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
        return json.dumps({"gap": self.gap, "bound": self.bound,
                           "cells": self.cells, "min_spacing": self.min_spacing,
                           "precondition_ok": self.precondition_ok,
                           "holds": self.holds})


@dataclass(frozen=True)
class TriangleReport:
    """Residual of a space against residual-of-reference plus gap."""

    tail: float
    reference_tail: float
    gap: float
    slack: float
    holds: bool

    def to_json(self) -> str:
        return json.dumps({"tail": self.tail, "reference_tail": self.reference_tail,
                           "gap": self.gap, "slack": self.slack, "holds": self.holds})


def concentration_matrix(basis: OrthoBasis, z: float, abs_tol: float = 1e-11,
                         nodes: int = 12) -> np.ndarray:
    """Banded Gram ``B[i,k] = int_{-z}^{z} conj(F_i) F_k`` of basis transforms.

    Composite Gauss panels no wider than a quarter of the shortest
    oscillation wavelength (the phase varies like exp(2 pi i (x - x') w)
    with |x - x'| <= 1, so wavelength >= 1).  Loose tolerances start at a
    full wavelength; the halving comparison still certifies the result.
    """
    width = 0.25 if abs_tol <= 1e-10 else 1.0
    prev = None
    for _ in range(6):
        val = _concentration_fixed(basis, z, width, nodes)
        if prev is not None and np.max(np.abs(val - prev)) <= abs_tol:
            return val
        prev = val
        width /= 2.0
    raise QuadratureError(
        f"concentration quadrature did not converge on (-{z:g}, {z:g}) "
        f"at panel width {width:g}")


def _concentration_fixed(basis: OrthoBasis, z: float, width: float,
                         nodes: int) -> np.ndarray:
    # real-coefficient bases have conjugate-symmetric transforms, so the
    # negative half-band contributes the conjugate: integrate (0, z) twice
    real_basis = basis.orders is None
    edges = panel_edges(0.0 if real_basis else -z, z, (0.0,), width)
    xs_all, ws_all = panel_nodes(edges, nodes)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    chunk = max(1, int(2e5 // max(basis.dim, 1)))
    for lo in range(0, xs_all.size, chunk):
        sel = slice(lo, min(lo + chunk, xs_all.size))
        phi = fourier.basis_transform(basis, xs_all[sel])
        out += (phi.conj() * ws_all[sel, None]).T @ phi
    return 2.0 * out.real if real_basis else out


def residual(space: SpaceSpec, z: float, abs_tol: float = 1e-11) -> float:
    """Worst-case out-of-band transform energy of a unit-norm member."""
    return residual_from_basis(fourier.cached_basis(space), z, abs_tol)


def residual_from_basis(basis: OrthoBasis, z: float, abs_tol: float = 1e-11) -> float:
    if z <= 0:
        raise ValueError("band half-width z must be positive")
    b = concentration_matrix(basis, z, abs_tol)
    lam = np.linalg.eigvalsh(b)
    lam = np.clip(lam, 0.0, 1.0)
    return math.sqrt(max(1.0 - float(lam[0]), 0.0))


def residual_curve(space: SpaceSpec, zs) -> ResidualCurve:
    basis = fourier.cached_basis(space)
    es = np.array([residual_from_basis(basis, float(z)) for z in zs])
    return ResidualCurve(space=space, z=np.asarray(zs, dtype=float), e=es)


def concentration_eigenvalues(space: SpaceSpec, z: float) -> np.ndarray:
    """Unclipped spectrum of the concentration matrix (diagnostic)."""
    b = concentration_matrix(fourier.cached_basis(space), z)
    return np.linalg.eigvalsh(b)


# ---------------------------------------------------------------------------
# gaps


def _merged_frame_coeffs(basis: OrthoBasis, cuts: np.ndarray, p: int) -> np.ndarray:
    """Exact re-expansion of a polynomial-kind basis on a finer partition."""
    dim = basis.dim
    out = np.empty((dim, cuts.size - 1, p))
    norm = np.sqrt(2 * np.arange(p) + 1)
    xg, wg = np.polynomial.legendre.leggauss(p + basis.local_dim)
    for j, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        h = b - a
        xs = (a + b) / 2 + h / 2 * xg
        ws = h / 2 * wg
        phi_loc = spaces.legendre_values(p, 2 * (xs - a) / h - 1) * (norm / math.sqrt(h))[:, None]
        out[:, j, :] = (spaces.evaluate(basis, xs) * ws) @ phi_loc.T
    return out


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
    g = spaces.growth_constants(space)
    if space.kind in _KNOT_FREE:
        return g.derivative_growth / (math.pi * cells)
    return math.sqrt((g.derivative_growth / (math.pi * cells)) ** 2
                     + 4.0 * g.sup_growth**2 / cells)


def verify_gap_bound(space: SpaceSpec, cells: int, slack_tol: float = 1e-10) -> GapReport:
    """Check gap <= bound; requires cell width 1/L at most the space's
    minimum knot spacing, otherwise no assertion is made."""
    eta = spaces.min_spacing(space)
    ok = (1.0 / cells) <= eta * (1.0 + 1e-12)
    g = gap(_reference_space(cells), space)
    bound = gap_bound(space, cells)
    holds = bool(g <= bound + slack_tol) if ok else None
    return GapReport(gap=g, bound=bound, cells=cells, min_spacing=eta,
                     precondition_ok=ok, holds=holds)


def verify_triangle_bound(space: SpaceSpec, cells: int, z: float,
                          slack_tol: float = 1e-10) -> TriangleReport:
    """Check residual(space, z) <= residual(constants_L, z) + gap."""
    e_t = residual(space, z)
    e_s = residual(_reference_space(cells), z)
    g = gap(_reference_space(cells), space)
    slack = e_s + g - e_t
    return TriangleReport(tail=e_t, reference_tail=e_s, gap=g, slack=slack,
                          holds=bool(slack >= -slack_tol))


def band_requirement_fit(eps: float, cell_counts, z_hi_factor: float = 4.0):
    """Empirical band growth of the piecewise-constant residual.

    For each L, bisect the smallest z with residual <= eps, then fit the
    crossing points linearly in L.  Returns (slope, intercept, crossings);
    the slope is the measured proportionality constant (it is not a stored
    ground truth, only its existence is relied upon).
    """
    crossings = []
    for l in cell_counts:
        basis = fourier.cached_basis(_reference_space(int(l)))
        lo, hi = 1e-3, z_hi_factor * float(l) + 2.0
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
    ls = np.asarray(cell_counts, dtype=float)
    zs = np.asarray(crossings)
    slope, intercept = np.polyfit(ls, zs, 1)
    return float(slope), float(intercept), zs
