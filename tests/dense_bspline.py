"""Dense test reference for the B-spline coefficients of ``nugs.spaces``.

The package builds its B-spline blocks on at most 2d+1 cells and rescales
them to l cells.  This reference projects every B-spline on every one of
the l cells from its values at that cell's Gauss nodes, O(l^2) work, with
the arithmetic of the package's small table, so the two agree bit for bit
when l <= 2d+1.  ``bincount_gram`` is a dense reference for the L2 Gram of
the B-splines, which the package keeps only as the upper band of its fold
by mirror symmetry.  ``mirror_fold`` is a dense reference for that fold, a
product with the unitary change of basis.
"""

import numpy as np

from nugs.quadrature import gauss_rule
from nugs.spaces import _bspline_all_values, _bspline_rescaled, _mirror_fold, legendre_values


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


def mirror_fold(m: np.ndarray) -> np.ndarray:
    """U^H M U for the unitary U whose columns are the mirror basis of
    ``nugs.spaces._mirror_fold``: (e_i + e_{n-1-i})/sqrt(2) for i < n/2,
    then e_mid when n is odd, then -i (e_i - e_{n-1-i})/sqrt(2)."""
    n = m.shape[0]
    h, c, i = n // 2, n - n // 2, np.arange(n // 2)
    u = np.zeros((n, n), dtype=complex)
    u[i, i] = u[n - 1 - i, i] = np.sqrt(0.5)
    u[i, c + i], u[n - 1 - i, c + i] = -1j * np.sqrt(0.5), 1j * np.sqrt(0.5)
    if c > h:
        u[h, h] = 1.0
    return u.conj().T @ m @ u


def folded_bincount_gram(d: int, l: int) -> np.ndarray:
    """The package's fold of ``bincount_gram``, read from its top rows."""
    gram = bincount_gram(d, l)
    return _mirror_fold(gram[:gram.shape[0] - gram.shape[0] // 2])
