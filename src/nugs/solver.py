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
``frame_lower``; nothing else in the package uses a rank tolerance.  The
stability search judges by the same constant as the smallest eigenvalue of
the weighted Gram against the L2 Gram (``experiments``), without an SVD.
The upper constant is not computable from finitely many evaluations, so
the density-based bound ``(1 + delta)^2`` is reported and the stability ratio
is ``(1 + delta) / sqrt(lower)`` (``frame_constants``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import lapack

from . import fourier, sampling
from .errors import UnstableReconstructionError
from .fourier import FourierData
from .sampling import SampleSet
from .spaces import OrthoBasis, SpaceSpec
from .validation import complex_pairs, json_field, json_number

# singular values below this fraction of the largest count as zero
RANK_RTOL = 1e-12


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
    """Householder QR of the scaled table diag(sqrt(mu)) T, N >= dim, of the
    design A = diag(phase) T diag(turn): the reflectors (below the diagonal
    of the returned N x dim array), their scalars, the dim x dim triangular
    factor R, the phase and the turn.  T is the real table of trig and
    Legendre (``fourier._real_table``), factorized by ``dgeqrf``, or for the
    cell kinds the complex design itself, phase and turn 1, by ``zgeqrf``.

    The scaled table is made in Fortran order, so ``geqrf`` overwrites it
    in place; with the optimal workspace it runs blocked.  Its ``info`` is
    nonzero only for an illegal argument, which the wrapper's shapes rule
    out, as they do for ``ormqr``/``unmqr``.
    """
    table = fourier._real_table(basis, s.points)
    phase, t, turn = (1.0, design_matrix(basis, s), 1.0) if table is None else table
    t = np.multiply(t, np.sqrt(mu)[:, None], order="F")
    geqrf, geqrf_lwork = lapack.get_lapack_funcs(("geqrf", "geqrf_lwork"), (t,))
    qr, tau, _, _ = geqrf(t, lwork=int(geqrf_lwork(*t.shape)[0].real), overwrite_a=True)
    return qr, tau, np.triu(qr[:basis.dim]), phase, turn


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
