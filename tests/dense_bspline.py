"""Dense test reference for the B-spline coefficients of ``nugs.spaces``.

The package builds its B-spline blocks on at most 2d+1 cells and rescales
them to l cells.  This reference projects every B-spline on every one of
the l cells from its values at that cell's Gauss nodes, O(l^2) work, with
the arithmetic of the package's small table, so the two agree bit for bit
when l <= 2d+1.  ``bincount_gram`` is a dense reference for the L2 Gram of
the B-splines, which the package keeps only as its upper band.
"""

import numpy as np

from nugs.quadrature import gauss_rule
from nugs.spaces import _bspline_all_values, _bspline_rescaled, legendre_values


def dense_bspline_coeffs(d: int, l: int) -> np.ndarray:
    """Raw B-spline coefficients in the per-cell Legendre frame,
    (l+d, l, d+1): entry [i, j, n] is the order-n coefficient of B-spline i
    on cell j, zero where B-spline i does not touch cell j."""
    p = d + 1
    gx, gw = gauss_rule(p)
    breaks = np.linspace(0.0, 1.0, l + 1)
    h = 1.0 / l
    mids = (breaks[:-1] + breaks[1:]) / 2
    nodes = mids[:, None] + (h / 2) * gx[None, :]
    bvals = _bspline_all_values(d, l, nodes.ravel()).reshape(l + d, l, p)
    t = 2 * (nodes - breaks[:-1, None]) / h - 1
    norm = np.sqrt((2 * np.arange(p) + 1) / h)
    phi = legendre_values(p, t.ravel()).reshape(p, l, p) * norm[:, None, None]
    return np.einsum("ijq,njq,q->ijn", bvals, phi, gw * h / 2)


def bincount_gram(d: int, l: int) -> np.ndarray:
    """Dense Gram of the l+d raw B-splines, both triangles, from the package's
    per-cell blocks: one ``np.bincount`` scatters every cell's (d+1)^2 local
    products, and sums each entry's terms in the order of the local row r."""
    table, index = _bspline_rescaled(d, l)
    local = (table.transpose(0, 2, 1) @ table)[index]
    size, j = l + d, np.arange(l)
    r, c = np.ogrid[:d + 1, :d + 1]
    flat = (j + r[..., None]) * size + (j + c[..., None])           # [r, c, j]
    return np.bincount(flat.ravel(), local.transpose(1, 2, 0).ravel(),
                       minlength=size * size).reshape(size, size)
