"""Weighted least-squares reconstruction and computable frame constants.

The reconstruction minimizes ``sum_n mu_n |b_n - (A a)_n|^2`` where
``A[n, i]`` is the transform of basis function i at frequency n.  For trig
and Legendre A = diag(phase) B D with a real table B and unit diagonals
(``fourier._real_table``), so the problem is that of B with the data
conj(phase) b, whose real and imaginary parts are two real right-hand
sides, and the coefficients are conj(D) times its solution.  The cell
kinds' table is their complex design, with phase and D the identity.

The scaled table diag(sqrt(mu)) T (N x dim, N >= dim) is factorized once
per solve by a Householder QR made in place, ``dgeqrf`` on a real table
and ``zgeqrf`` on a complex one (Golub & Van Loan, *Matrix Computations*,
5.3); normal equations are never formed.  Q^T (or Q^H) is applied to the
scaled data by ``dormqr`` (``zunmqr``) without forming Q: the first dim
entries give the coefficients by back substitution in the dim x dim
triangular factor R (``trtrs``), and the norm of the rest is the
residual.  Of R only the singular values are computed, no singular
vectors: they are those of the scaled design, so they decide the rank
before any solve and give the conditioning diagnostics, and callers that
report frame constants for a solve (the estimator, ``nugs reconstruct``)
describe the weights actually solved with and never factorize again.

The lower frame constant is the smallest eigenvalue of the weighted Gram,
equal to the squared smallest singular value of the scaled matrix, which
``frame_lower`` reads from the R of the same QR.  One rank tolerance,
``RANK_RTOL``, decides when it is numerically zero, for the solve and for
``frame_lower``; nothing else in the package uses a rank tolerance.
The upper constant is not computable from finitely many evaluations, so
the density-based bound ``(1 + delta)^2`` is reported and the stability ratio
is ``(1 + delta) / sqrt(lower)`` (``frame_constants``).

The stability search (``experiments``) judges a space by the same constant
without an SVD, on its real pencil (``pencil``): the weighted Gram W against
the L2 Gram G, so ratio = (1+delta)/sqrt(lambda_min(W, G)).  For trig and
Legendre G = I, and W is T^T M T (M = diag(mu)) of the scaled table that
``_qr`` factorizes, a unitary similarity of A^H M A.  The constant is
basis-independent, so a spline pencil is that of the raw B-splines folded
by their mirror symmetry (``fourier.bspline_weighted_gram``) against their
folded L2 Gram, kept as its upper band (``spaces._bspline_band``).
W - sG has a Cholesky factor exactly when lambda_min(W, G) > s, so
``pencil_test`` compares lambda_min with a cut by ``dpotrf`` outside a band
(``PROBE_BAND``), and ``pencil_lower`` is the exact eigenvalue from the
real ``eigh``.  Every shift, and the dense G that ``eigh`` reads, is made by
``_shifted`` on the upper triangle alone.

A sweep's error row solves on that pencil (``_certified_fit``): once the
search has certified ratio(m) <= threshold, cond(W, G) <= threshold^2, and
the normal equations W x = A^H M b are factored by ``dpotrf`` in place of
a QR of the design (the precondition is written at ``RANK_RTOL``).  The
right-hand side of trig and Legendre is T^T (sqrt(mu) conj(phase) b) from
the pencil's own scaled table; that of splines is A^H M b of the raw
B-splines from their border columns and one lag sum
(``fourier._bspline_weighted_data``), moved into the mirror basis of the
folded W.  The coefficients are those of the pencil's basis, the raw
B-splines for splines.  ``reconstruct``, for the estimator and the CLI,
keeps the QR.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from . import fourier, sampling, spaces
from .errors import UnstableReconstructionError
from .fourier import FourierData
from .sampling import SampleSet
from .spaces import OrthoBasis, SpaceSpec
from .validation import complex_pairs, json_field, json_number

# singular values below this fraction of the largest count as zero
RANK_RTOL = 1e-12
# ``_certified_fit`` solves the normal equations W x = A^H M b by Cholesky,
# and its precondition is a certified ratio: the stability search has shown
# ratio(m) <= threshold on the very pencil it factors.  Then lambda_min(W, G)
# >= ((1 + delta) / threshold)^2 and lambda_max(W, G) <= (1 + delta)^2, so
# cond(W, G) <= threshold^2, 9 at the default threshold 3, where normal
# equations lose no more than QR (Golub & Van Loan, 5.3).  ``reconstruct``
# knows no such bound (``RANK_RTOL`` accepts condition numbers far past it)
# and keeps the QR.
# Half-width, in units of (1 + delta)^2, of the band around a cut t on
# lambda_min(W, G) inside which ``pencil_test`` leaves the decision to the
# exact eigenvalue.  (1 + delta)^2 bounds lambda_max(W, G), so it is the
# scale of W.  Forming W (N terms per entry, n columns) moves lambda_min by
# at most about n N u (1 + delta)^2 (u = 2^-53), and the Cholesky
# factorization by about n^2 u (1 + delta)^2: 2e-10 of the scale at
# N = 4380, n = 401.  Measured over every probe of the K = 30 and K = 200
# searches on log and jittered sets, the shift at which W - sG stops
# factoring is within 3e-15 of the scale of the exact lambda_min.  Outside
# the band every decision is therefore the exact eigenvalue's, which the
# search reads as 0 (an infinite ratio) when it is not positive.
PROBE_BAND = 1e-8


@dataclass(frozen=True)
class Reconstruction:
    """Coefficients in the space's orthonormal basis plus diagnostics.

    ``residual`` is the square root of the minimized weighted misfit;
    ``sigma_min``/``sigma_max`` are the extreme singular values of the
    scaled design matrix.
    """

    space: SpaceSpec
    coefficients: np.ndarray
    residual: float
    sigma_min: float
    sigma_max: float

    def to_json(self) -> str:
        return json.dumps({
            "space": json.loads(self.space.to_json()),
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "residual": self.residual,
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
        })

    @classmethod
    def from_json(cls, text: str) -> "Reconstruction":
        d = json.loads(text)
        return cls(space=SpaceSpec.from_json(json.dumps(json_field(d, "space"))),
                   coefficients=complex_pairs(json_field(d, "coefficients"), "coefficients"),
                   **{key: json_number(json_field(d, key), key)
                      for key in ("residual", "sigma_min", "sigma_max")})


@dataclass(frozen=True)
class FrameConstants:
    """Computable stability quantities of a (samples, space) pair.

    lower        : sharp lower frame constant (can be 0).
    upper_bound  : density bound (1 + delta)^2 on the upper constant.
    ratio        : (1 + delta) / sqrt(lower); +inf (null in JSON) when lower is 0.
    density      : largest ghost-padded gap delta of the sample set.
    implied_tail : the margin eps with (1+delta)/(1-eps-delta) = ratio,
                   or None when it falls outside (0, 1 - delta).
    """

    lower: float
    upper_bound: float
    ratio: float
    density: float
    implied_tail: float | None

    def to_json(self) -> str:
        ratio = self.ratio if np.isfinite(self.ratio) else None
        return json.dumps({**asdict(self), "ratio": ratio}, allow_nan=False)


def design_matrix(basis: OrthoBasis, s: SampleSet) -> np.ndarray:
    """Matrix of basis transforms at the sample frequencies, (N, dim)."""
    return fourier.basis_transform(basis, s.points)


def _qr(basis: OrthoBasis, s: SampleSet, mu: np.ndarray):
    """Householder QR of the scaled table of ``_scaled``, N >= dim: the
    reflectors (below the diagonal of the returned N x dim array), their
    scalars, the dim x dim triangular factor R, the phase and the turn.

    ``geqrf`` (``dgeqrf`` on a real table) overwrites the Fortran-ordered
    table in place; with the optimal workspace it runs blocked.  Its
    ``info`` is nonzero only for an illegal argument, which the wrapper's
    shapes rule out, as they do for ``ormqr``/``unmqr``.
    """
    t, phase, turn = _scaled(basis, s.points, mu)
    geqrf, geqrf_lwork = lapack.get_lapack_funcs(("geqrf", "geqrf_lwork"), (t,))
    qr, tau, _, _ = geqrf(t, lwork=int(geqrf_lwork(*t.shape)[0].real), overwrite_a=True)
    return qr, tau, np.triu(qr[:basis.dim]), phase, turn


def _scaled(basis: OrthoBasis, w: np.ndarray, mu: np.ndarray):
    """diag(sqrt(mu)) T in Fortran order, the phase and the turn of the
    design diag(phase) T diag(turn) at the frequencies w: T is the real table
    of trig and Legendre, or the cell kinds' complex design, phase and turn 1."""
    table = fourier._real_table(basis, w)
    phase, t, turn = (1.0, fourier.basis_transform(basis, w), 1.0) if table is None else table
    return np.multiply(t, np.sqrt(mu)[:, None], order="F"), phase, turn


def pencil(space: SpaceSpec, w: np.ndarray, mu: np.ndarray):
    """The stability pencil of a trig, Legendre or spline space at the
    frequencies w and weights mu: W, of which only the upper triangle is
    read; the upper band of G, band[k, i] = G[i, i+k], or None for G = I;
    and for trig and Legendre the scaled table, phase and turn of
    ``_scaled`` whose T^T T is W (None for splines).  Its basis is
    ``spaces._raw_basis``, not the orthonormal one of
    ``fourier.cached_basis``, so that probe spaces stay out of that cache.
    A non-finite W raises ``LinAlgError``: a Cholesky test would read it as
    a failed probe."""
    if space.kind == "spline":
        gram = fourier.bspline_weighted_gram(space.degree, space.cells, w, mu)
        band, table = spaces._bspline_band(space.degree, space.cells), None
    else:
        table = _scaled(spaces._raw_basis(space), w, mu)
        gram, band = blas.dsyrk(1.0, table[0], trans=1), None
    if not np.all(np.isfinite(gram)):
        raise np.linalg.LinAlgError(f"non-finite Gram matrix for the {space.kind} probe "
                                    f"of dimension {gram.shape[0]}")
    return gram, band, table


def _certified_fit(space: SpaceSpec, w: np.ndarray, mu: np.ndarray, values: np.ndarray,
                   gram: np.ndarray, table) -> np.ndarray:
    """Coefficients in the basis of ``pencil`` (``spaces._raw_basis``) of
    the weighted least-squares fit to the samples ``values`` at the
    frequencies w, solved on the pencil's W (``gram``, upper triangle),
    whose ratio the search has certified (see ``RANK_RTOL``): W x = A^H M b
    by ``dpotrf`` and ``dpotrs``, on its real and imaginary parts as two
    real columns.

    A spline's W is that of the mirror basis, so A^H M b
    (``fourier._bspline_weighted_data``) is moved into it and the solution
    back out.  For trig and Legendre ``table`` is the pencil's scaled table,
    phase and turn at the space's columns, the right-hand side is
    T^T (sqrt(mu) conj(phase) b), and the coefficients are conj(turn) times
    the solution, as in ``reconstruct``.  A W that does not factor raises
    ``LinAlgError``."""
    if table is None:
        rhs = spaces._mirror_rows(
            fourier._bspline_weighted_data(space.degree, space.cells, w, mu * values))
        rhs = rhs[:, None].view(float)
    else:
        t, phase, turn = table
        rhs = t.T @ (np.sqrt(mu) * values * np.conj(phase))[:, None].view(float)
    factor, info = lapack.dpotrf(gram)
    if info != 0:
        raise np.linalg.LinAlgError(f"the certified {space.kind} pencil of dimension "
                                    f"{gram.shape[0]} does not factor (dpotrf info {info})")
    x = np.ascontiguousarray(lapack.dpotrs(factor, rhs)[0]).view(complex)[:, 0]
    return spaces._mirror_columns(x) if table is None else x * np.conj(turn)


def _shifted(w: np.ndarray, band: np.ndarray | None, s: float) -> np.ndarray:
    """The upper triangle of W - sG in a new Fortran-ordered array, for G
    given by its upper band or None for G = I: the shift touches only those
    diagonals of a copy of W."""
    a = w.copy(order="F")
    n, flat = a.shape[0], a.reshape(-1, order="F")  # a view: entry (i, j) at i + j n
    if band is None:
        flat[::n + 1] -= s
    else:
        for k, diagonal in enumerate(band):
            flat[k * n::n + 1] -= s * diagonal[:n - k]
    return a


def _factors(a: np.ndarray) -> bool:
    """Whether the real symmetric matrix with ``a``'s upper triangle has a
    Cholesky factor (``dpotrf``), i.e. is numerically positive definite;
    ``a`` is overwritten."""
    return lapack.dpotrf(a, overwrite_a=True)[1] == 0


def pencil_test(w: np.ndarray, band: np.ndarray | None, t: float,
                scale: float) -> bool | None:
    """Whether lambda_min(W, G) >= t scale, decided without an eigensolver:
    W - sG factors exactly when lambda_min(W, G) > s, so factoring it at
    s = (t + ``PROBE_BAND``) scale and (t - ``PROBE_BAND``) scale decides
    every pencil outside that band; None inside it."""
    if _factors(_shifted(w, band, scale * (t + PROBE_BAND))):
        return True
    if not _factors(_shifted(w, band, scale * (t - PROBE_BAND))):
        return False
    return None


def pencil_lower(w: np.ndarray, band: np.ndarray | None) -> float:
    """lambda_min(W, G), clamped at 0: ``eigh`` with ``lower=False`` reads
    the upper triangles of W and of G, the band written into a zero matrix,
    and solves the standard problem for G = I."""
    g = None if band is None else _shifted(np.zeros(w.shape), band, -1.0)
    lam = scipy.linalg.eigh(w, g, lower=False, eigvals_only=True, subset_by_index=(0, 0))
    return max(float(lam[0]), 0.0)


def _lower(sig: np.ndarray) -> float:
    """Squared smallest of the descending singular values ``sig``; 0.0 when
    the scaled design is numerically rank-deficient."""
    if sig[0] == 0.0 or sig[-1] < RANK_RTOL * sig[0]:
        return 0.0
    return float(sig[-1] ** 2)


def reconstruct(basis: OrthoBasis, data: FourierData) -> Reconstruction:
    """Solve the weighted least-squares problem for the given data.

    Raises ``UnstableReconstructionError`` when the system is
    underdetermined or the scaled design matrix is numerically
    rank-deficient (lower frame constant is effectively zero).
    """
    n, dim = len(data.samples), basis.dim
    if n < dim:
        raise UnstableReconstructionError(
            f"underdetermined: {n} samples for dimension {dim}; "
            "increase bandwidth or shrink space")
    mu = data.weights
    qr, tau, r, phase, turn = _qr(basis, data.samples, mu)
    sig = np.linalg.svd(r, compute_uv=False)
    if _lower(sig) == 0.0:
        raise UnstableReconstructionError(
            "unstable: lower frame constant is numerically zero, "
            "increase bandwidth or shrink space")
    # Q^H of the scaled data without the phase, by the unblocked path
    # (workspace of one column each): for a real table Q^T of its real and
    # imaginary parts, two real columns
    c = (np.sqrt(mu) * data.values * np.conj(phase))[:, None].view(qr.dtype)
    ormqr, trtrs = lapack.get_lapack_funcs(("ormqr", "trtrs"), (qr,))
    qhc = ormqr("L", "T" if qr.dtype == float else "C", qr, tau, c, c.shape[1],
                overwrite_c=True)[0]
    # R is nonsingular once the rank rule has passed, so trtrs finds no
    # zero pivot
    x = trtrs(r, qhc[:dim])[0]
    coeffs = np.ascontiguousarray(x).view(complex)[:, 0] * np.conj(turn)
    residual = float(np.linalg.norm(qhc[dim:]))
    return Reconstruction(space=basis.space, coefficients=coeffs,
                          residual=residual, sigma_min=float(sig[-1]),
                          sigma_max=float(sig[0]))


def frame_lower(basis: OrthoBasis, s: SampleSet) -> float:
    """Sharp lower frame constant at the midpoint weights: squared smallest
    singular value of the scaled design matrix (0 at numerical rank
    deficiency)."""
    if len(s) < basis.dim:
        return 0.0
    return _lower(np.linalg.svd(_qr(basis, s, sampling.weights(s))[2], compute_uv=False))


def frame_constants(delta: float, lower: float) -> FrameConstants:
    """Upper bound, stability ratio and implied tail from the density
    ``delta`` and the lower frame constant."""
    ratio = (1.0 + delta) / np.sqrt(lower) if lower > 0 else float("inf")
    implied = None
    if np.isfinite(ratio):
        eps = 1.0 - delta - (1.0 + delta) / ratio
        if 0.0 < eps < 1.0 - delta:
            implied = float(eps)
    return FrameConstants(lower=lower, upper_bound=(1.0 + delta) ** 2,
                          ratio=float(ratio), density=delta, implied_tail=implied)


def stability_constant(basis: OrthoBasis, s: SampleSet) -> FrameConstants:
    """Frame constants and the density-based stability ratio."""
    return frame_constants(sampling.density(s), frame_lower(basis, s))
