"""Weighted least-squares reconstruction and computable frame constants.

The reconstruction minimizes ``sum_n mu_n |b_n - (A a)_n|^2`` where
``A[n, i]`` is the transform of basis function i at frequency n.  The
scaled design ``diag(sqrt(mu)) A`` (N x dim, N >= dim) is factorized once
per solve by a Householder QR made in place (``zgeqrf``), and then its
dim x dim triangular factor R by SVD (Golub & Van Loan, *Matrix
Computations*, 5.3); both are orthogonal factorizations, and normal
equations are never formed.  Q^H is applied to the scaled data by
``zunmqr`` without forming Q, so no N x dim singular vectors are built:
the first dim entries of Q^H b feed the SVD solve, and the norm of the
rest is the residual.  R has the singular values of the scaled design,
which give the conditioning diagnostics, so callers that report frame
constants for a solve (the estimator, ``nugs reconstruct``) describe the
weights actually solved with and never factorize again.

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
    ratio        : (1 + delta) / sqrt(lower); +inf when lower is 0.
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
        return json.dumps(asdict(self))


def design_matrix(basis: OrthoBasis, s: SampleSet) -> np.ndarray:
    """Matrix of basis transforms at the sample frequencies, (N, dim)."""
    return fourier.basis_transform(basis, s.points)


def _qr(basis: OrthoBasis, s: SampleSet, mu: np.ndarray):
    """Householder QR of the scaled design diag(sqrt(mu)) A, N >= dim: the
    reflectors (below the diagonal of the returned N x dim array), their
    scalars and the dim x dim triangular factor R.

    The scaled design is made in Fortran order, so ``zgeqrf`` overwrites it
    in place; with the optimal workspace it runs blocked.  Its ``info`` is
    nonzero only for an illegal argument, which the wrapper's shapes rule
    out, as they do for ``zunmqr``.
    """
    b = np.multiply(design_matrix(basis, s), np.sqrt(mu)[:, None], order="F")
    lwork = int(lapack.zgeqrf_lwork(*b.shape)[0].real)
    qr, tau, _, _ = lapack.zgeqrf(b, lwork=lwork, overwrite_a=True)
    return qr, tau, np.triu(qr[:basis.dim])


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
    qr, tau, r = _qr(basis, data.samples, mu)
    u, sig, vh = np.linalg.svd(r)
    if _lower(sig) == 0.0:
        raise UnstableReconstructionError(
            "unstable: lower frame constant is numerically zero, "
            "increase bandwidth or shrink space")
    # Q^H b for the one data column, by the unblocked path (workspace 1)
    qhb = lapack.zunmqr("L", "C", qr, tau, (np.sqrt(mu) * data.values)[:, None], 1,
                        overwrite_c=True)[0]
    coeffs = vh.conj().T @ ((u.conj().T @ qhb[:dim, 0]) / sig)
    residual = float(np.linalg.norm(qhb[dim:, 0]))
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
