"""Estimator-style interface to the reconstruction pipeline.

``NonuniformFourierRegressor`` follows the scikit-learn contract
(``fit``/``predict``/``get_params``/``set_params``) without importing
scikit-learn: parameters are constructor keywords stored verbatim, fitted
state lives in trailing-underscore attributes, and inputs are validated by
the helpers in :mod:`nugs.validation`.  ``fit`` consumes transform samples
(frequencies and complex values); ``predict`` evaluates the reconstructed
function at positions in [0, 1).
"""

from __future__ import annotations

import numpy as np

from . import fourier, sampling, solver, spaces
from .fourier import FourierData
from .spaces import SpaceSpec
from .validation import (as_complex_array, as_float_array, as_weight_array, check_positions,
                         check_same_length)

_PARAM_NAMES = ("space", "bandwidth")


def parse_space(text: str) -> SpaceSpec:
    """Parse the compact space syntax used by the CLI and the estimator.

    ``trig:M``, ``legendre:M``, ``piecewise_const:L``, ``spline:D:L`` and
    ``piecewise_poly:w1,w2,...:m0,m1,...``.
    """
    parts = text.strip().split(":")
    kind = parts[0]
    try:
        if kind == "trig" and len(parts) == 2:
            return SpaceSpec.trig(int(parts[1]))
        if kind == "legendre" and len(parts) == 2:
            return SpaceSpec.legendre(int(parts[1]))
        if kind == "piecewise_const" and len(parts) == 2:
            return SpaceSpec.piecewise_const(int(parts[1]))
        if kind == "spline" and len(parts) == 3:
            return SpaceSpec.spline(int(parts[1]), int(parts[2]))
        if kind == "piecewise_poly" and len(parts) == 3:
            knots = [float(t) for t in parts[1].split(",") if t]
            degs = [int(t) for t in parts[2].split(",")]
            return SpaceSpec.piecewise_poly(knots, degs)
    except ValueError as exc:
        raise ValueError(f"bad space spec {text!r}: {exc}") from None
    raise ValueError(f"bad space spec {text!r}")


class NonuniformFourierRegressor:
    """Weighted least-squares function recovery from transform samples.

    Parameters
    ----------
    space : str or SpaceSpec
        Reconstruction space, e.g. ``"legendre:8"`` or ``SpaceSpec.trig(5)``.
    bandwidth : float or None
        Declared band half-width K; ``None`` uses the largest sampled
        frequency magnitude.

    Attributes (after ``fit``)
    --------------------------
    coef_ : complex ndarray, coefficients in the orthonormal basis.
    density_, frame_lower_, stability_ratio_ : sampling diagnostics.
    sigma_min_, sigma_max_, residual_ : solve diagnostics.
    """

    def __init__(self, space="legendre:8", bandwidth=None):
        self.space = space
        self.bandwidth = bandwidth

    # -- sklearn plumbing ---------------------------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def set_params(self, **params) -> "NonuniformFourierRegressor":
        for name, value in params.items():
            if name not in _PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    # -- fitting ------------------------------------------------------------

    def _space_spec(self) -> SpaceSpec:
        return parse_space(self.space) if isinstance(self.space, str) else self.space

    def fit(self, X, y, sample_weight=None) -> "NonuniformFourierRegressor":
        """Fit to frequencies ``X`` (shape (n,) or (n, 1)) and complex values ``y``."""
        omega = as_float_array(X, "X")
        values = as_complex_array(y, "y")
        check_same_length(omega, values, "X", "y")
        mu = None if sample_weight is None else as_weight_array(sample_weight, "sample_weight")
        if mu is not None:
            check_same_length(omega, mu, "X", "sample_weight")
        data = FourierData.from_samples(omega, values, mu, self.bandwidth)
        basis = fourier.cached_basis(self._space_spec())
        rec = solver.reconstruct(basis, data)
        constants = solver.frame_constants(sampling.density(data.samples), rec.sigma_min**2)
        self.basis_ = basis
        self.coef_ = rec.coefficients
        self.residual_ = rec.residual
        self.sigma_min_ = rec.sigma_min
        self.sigma_max_ = rec.sigma_max
        self.density_ = constants.density
        self.frame_lower_ = constants.lower
        self.stability_ratio_ = constants.ratio
        self.n_features_in_ = 1
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "coef_"):
            raise ValueError("estimator is not fitted; call fit first")

    def predict(self, X) -> np.ndarray:
        """Reconstructed function values at positions in [0, 1)."""
        self._check_fitted()
        xs = check_positions(np.asarray(X, dtype=float).ravel(), "X")
        return spaces.member_values(self.basis_, self.coef_, xs)

    def score(self, X, y) -> float:
        """1 minus the relative squared data misfit at the given samples."""
        self._check_fitted()
        omega = as_float_array(X, "X")
        yv = as_complex_array(y, "y")
        check_same_length(omega, yv, "X", "y")
        pred = fourier.member_transform(self.basis_, self.coef_, omega)
        denom = float(np.sum(np.abs(yv - np.mean(yv)) ** 2))
        if denom == 0.0:
            return 0.0
        return 1.0 - float(np.sum(np.abs(yv - pred) ** 2)) / denom
