import json
import re

import numpy as np
import pytest
import scipy.linalg

from nugs import fourier
from nugs.errors import UnstableReconstructionError
from nugs.estimator import NonuniformFourierRegressor, parse_space
from nugs.fourier import FourierData, FunctionSpec, basis_transform, l2_error, project, sample_function
from nugs.sampling import SampleSet, SchemeSpec, density, generate, weights
from nugs.solver import (Reconstruction, design_matrix, frame_lower, reconstruct,
                         stability_constant)
from nugs.spaces import SpaceSpec, build_basis
from nugs import analysis

INTEGER_GRID = SampleSet(points=np.array([-1.0, 0.0, 1.0]), bandwidth=1.5)


def member_data(spec, scheme, seed=0, complex_coeffs=True):
    basis = build_basis(spec)
    s = generate(scheme)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=basis.dim)
    if complex_coeffs:
        a = a + 1j * rng.normal(size=basis.dim)
    a = a / np.linalg.norm(a)
    values = basis_transform(basis, s.points) @ a
    return basis, s, a, FourierData(s, values, weights(s))


def test_design_matrix_identity_at_integer_frequencies():
    basis = build_basis(SpaceSpec.trig(1))
    a = design_matrix(basis, INTEGER_GRID)
    assert np.allclose(a, np.eye(3), atol=1e-15)


def test_design_matrix_single_constant():
    basis = build_basis(SpaceSpec.piecewise_const(1))
    s = SampleSet(points=np.array([0.0]), bandwidth=1.0)
    assert np.allclose(design_matrix(basis, s), [[1.0]])


def test_design_matrix_rows_are_transforms():
    basis = build_basis(SpaceSpec.spline(2, 3))
    s = generate(SchemeSpec("jittered", 12, 6.0, theta=0.3, seed=8))
    a = design_matrix(basis, s)
    for i in (0, 5, 11):
        assert np.allclose(a[i], basis_transform(basis, float(s.points[i])))


def test_frame_lower_identity_case():
    basis = build_basis(SpaceSpec.trig(1))
    assert frame_lower(basis, INTEGER_GRID) == pytest.approx(1.0, rel=1e-12)


def test_frame_lower_degenerate_is_zero():
    basis = build_basis(SpaceSpec.trig(2))  # dimension 5 > 3 samples
    assert frame_lower(basis, INTEGER_GRID) == 0.0


def test_stability_constant_identity_case():
    fc = stability_constant(build_basis(SpaceSpec.trig(1)), INTEGER_GRID)
    assert fc.density == pytest.approx(1.0)
    assert fc.ratio == pytest.approx(2.0, rel=1e-12)
    assert fc.upper_bound == pytest.approx(4.0)
    assert fc.lower <= fc.upper_bound


def test_stability_ratio_tends_to_one_when_oversampled():
    basis = build_basis(SpaceSpec.trig(2))
    s = generate(SchemeSpec("uniform", 4000, 100.0))
    fc = stability_constant(basis, s)
    assert fc.ratio <= 1.1


def test_stability_ratio_infinite_at_rank_deficiency():
    fc = stability_constant(build_basis(SpaceSpec.trig(2)), INTEGER_GRID)
    assert fc.ratio == np.inf
    assert fc.implied_tail is None


def test_lower_constant_below_density_bound_on_random_setups():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(12, 40))
        k = float(rng.uniform(4, 20))
        s = generate(SchemeSpec("jittered", n, k, theta=0.5, seed=int(rng.integers(1000))))
        basis = build_basis(SpaceSpec.legendre(int(rng.integers(1, 5))))
        fc = stability_constant(basis, s)
        assert fc.lower <= fc.upper_bound + 1e-12


@pytest.mark.parametrize("spec,k", [
    (SpaceSpec.trig(8), 14.0),
    (SpaceSpec.legendre(8), 30.0),
    (SpaceSpec.piecewise_poly([0.3, 0.7], [3, 3, 3]), 30.0),
    (SpaceSpec.spline(3, 8), 14.0),
    (SpaceSpec.piecewise_const(16), 40.0),
], ids=lambda v: str(v))
def test_exact_recovery_of_members(spec, k):
    n = int(np.ceil(2 * k * 1.4 / 0.85))
    basis, s, a, data = member_data(spec, SchemeSpec("jittered", n, k, theta=0.4, seed=1))
    assert stability_constant(basis, s).ratio <= 3.0
    rec = reconstruct(basis, data)
    assert np.linalg.norm(rec.coefficients - a) <= 1e-9
    assert rec.residual <= 1e-9
    # residual orthogonality in the weighted inner product
    misfit = data.values - design_matrix(basis, s) @ rec.coefficients
    grad = design_matrix(basis, s).conj().T @ (data.weights * misfit)
    assert np.max(np.abs(grad)) <= 1e-10 * np.linalg.norm(data.values)


def test_zero_data_gives_zero_coefficients():
    basis, s, _, data = member_data(SpaceSpec.legendre(4), SchemeSpec("uniform", 30, 12.0))
    zero = FourierData(s, np.zeros_like(data.values), data.weights)
    rec = reconstruct(basis, zero)
    assert np.allclose(rec.coefficients, 0.0)
    assert rec.residual == 0.0


def test_reconstruct_is_linear():
    basis, s, _, d1 = member_data(SpaceSpec.trig(3), SchemeSpec("jittered", 40, 9.0, 0.3, 2), seed=1)
    _, _, _, d2 = member_data(SpaceSpec.trig(3), SchemeSpec("jittered", 40, 9.0, 0.3, 2), seed=2)
    both = FourierData(s, d1.values + d2.values, d1.weights)
    c12 = reconstruct(basis, both).coefficients
    c1 = reconstruct(basis, d1).coefficients
    c2 = reconstruct(basis, d2).coefficients
    assert np.max(np.abs(c12 - c1 - c2)) < 1e-10


def test_underdetermined_raises():
    basis = build_basis(SpaceSpec.trig(4))
    s = generate(SchemeSpec("uniform", 5, 6.0))
    data = FourierData(s, np.zeros(5, dtype=complex), weights(s))
    with pytest.raises(UnstableReconstructionError, match="underdetermined"):
        reconstruct(basis, data)


def test_rank_deficient_raises_unstable():
    # near-duplicate frequencies leave the 3-dimensional space unresolved
    basis = build_basis(SpaceSpec.trig(1))
    pts = np.array([0.0, 1e-13, 0.5, 0.5 + 1e-13])
    s = SampleSet(points=pts, bandwidth=1.0)
    data = FourierData(s, np.zeros(4, dtype=complex), weights(s))
    with pytest.raises(UnstableReconstructionError, match="unstable"):
        reconstruct(basis, data)


def test_frame_lower_monotone_in_nested_spaces():
    s = generate(SchemeSpec("jittered", 60, 20.0, theta=0.3, seed=6))
    prev = np.inf
    for m in range(1, 8):
        c1 = frame_lower(build_basis(SpaceSpec.trig(m)), s)
        assert c1 <= prev + 1e-12
        prev = c1


def test_quasi_optimality_and_stability_bounds():
    # both error bounds with the density/tail constant, on smooth test data
    eps = 0.5
    cases = [
        (SpaceSpec.trig(4), 10.0),
        (SpaceSpec.legendre(6), 14.0),
        (SpaceSpec.spline(2, 4), 10.0),
    ]
    f = FunctionSpec.benchmark()
    for spec, k in cases:
        basis = build_basis(spec)
        n = int(np.ceil(2 * k * 1.2 / 0.38))
        s = generate(SchemeSpec("jittered", n, k, theta=0.2, seed=4))
        delta = density(s)
        assert delta <= 0.4
        tail = analysis.residual(spec, k - 0.5)
        assert tail**2 <= eps * (2 - eps)
        bound = (1 + delta) / (1 - eps - delta)
        data = sample_function(f, s)
        rec = reconstruct(basis, data)
        err = l2_error(f, rec.coefficients, basis)
        best = l2_error(f, project(f, basis), basis)
        assert err <= bound * best + 1e-8
        # stability: reconstruction norm bounded by the same constant
        fnorm = l2_error(f, np.zeros(basis.dim), basis)
        assert np.linalg.norm(rec.coefficients) <= bound * fnorm + 1e-8


def test_reconstruction_json_round_trip():
    basis, s, a, data = member_data(SpaceSpec.legendre(3), SchemeSpec("uniform", 20, 8.0))
    rec = reconstruct(basis, data)
    from nugs.solver import Reconstruction
    back = Reconstruction.from_json(rec.to_json())
    assert back.space == rec.space
    assert np.allclose(back.coefficients, rec.coefficients)
    assert back.sigma_min == rec.sigma_min


FACTOR_CASES = [
    (SpaceSpec.trig(8), SchemeSpec("jittered", 60, 14.0, theta=0.3, seed=2)),
    (SpaceSpec.legendre(12), SchemeSpec("log", 200, 30.0)),
    (SpaceSpec.spline(3, 10), SchemeSpec("jittered", 90, 20.0, theta=0.4, seed=5)),
    (SpaceSpec.piecewise_poly([0.3, 0.7], [3, 1, 4]), SchemeSpec("jittered", 70, 25.0, 0.2, 1)),
    (SpaceSpec.piecewise_const(16), SchemeSpec("uniform", 80, 40.0)),
    (SpaceSpec.legendre(40), SchemeSpec("jittered", 1200, 600.0, theta=0.2, seed=3)),
]


@pytest.mark.parametrize("spec,scheme", FACTOR_CASES, ids=lambda v: str(getattr(v, "kind", "")))
def test_reconstruct_matches_dense_thin_svd(monkeypatch, spec, scheme):
    # the tall thin SVD of the scaled design is the oracle; the solve takes
    # the SVD of R alone.  Measured: coefficients within 2.2e-15 of max |a|,
    # sigmas, residual and frame_lower within 1.1e-15 relative; 1e-13 is
    # the stated tolerance
    basis, s = build_basis(spec), generate(scheme)
    mu = weights(s)
    rng = np.random.default_rng(4)
    values = rng.normal(size=len(s)) + 1j * rng.normal(size=len(s))
    a = design_matrix(basis, s)
    u, sig, vh = np.linalg.svd(np.sqrt(mu)[:, None] * a, full_matrices=False)
    coeffs = vh.conj().T @ ((u.conj().T @ (np.sqrt(mu) * values)) / sig)
    residual = np.sqrt(np.sum(mu * np.abs(values - a @ coeffs) ** 2))

    shapes = []
    svd = np.linalg.svd

    def spy(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rec = reconstruct(basis, FourierData(s, values, mu))
    lower = frame_lower(basis, s)
    assert shapes == [(basis.dim, basis.dim)] * 2
    assert np.max(np.abs(rec.coefficients - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
    assert rec.sigma_min == pytest.approx(sig[-1], rel=1e-13)
    assert rec.sigma_max == pytest.approx(sig[0], rel=1e-13)
    assert rec.residual == pytest.approx(residual, rel=1e-13)
    assert lower == pytest.approx(sig[-1] ** 2, rel=1e-13)


def test_square_system_solves():
    # N == dim: the trig(1) design at the integers is the identity, so the
    # coefficients are the data and nothing is left over
    basis = build_basis(SpaceSpec.trig(1))
    values = np.array([1.0 - 2j, 0.5, 3j])
    rec = reconstruct(basis, FourierData(INTEGER_GRID, values, weights(INTEGER_GRID)))
    assert np.allclose(rec.coefficients, values, atol=1e-15)
    assert rec.residual <= 1e-15


@pytest.mark.parametrize("key", ["space", "coefficients", "residual", "sigma_min", "sigma_max"])
def test_reconstruction_from_json_names_the_missing_key(key):
    rec = Reconstruction(space=SpaceSpec.legendre(0), coefficients=np.array([1.0 + 0j]),
                         residual=0.0, sigma_min=1.0, sigma_max=1.0)
    d = json.loads(rec.to_json())
    del d[key]
    with pytest.raises(ValueError, match=f"expected a JSON object with the key '{key}'"):
        Reconstruction.from_json(json.dumps(d))


@pytest.mark.parametrize("key", ["residual", "sigma_min", "sigma_max"])
@pytest.mark.parametrize("value", ["0.5", None, True, [0.5]])
def test_reconstruction_from_json_reads_numbers_only(key, value):
    rec = Reconstruction(space=SpaceSpec.legendre(0), coefficients=np.array([1.0 + 0j]),
                         residual=0.0, sigma_min=1.0, sigma_max=1.0)
    d = {**json.loads(rec.to_json()), key: value}
    with pytest.raises(ValueError, match=re.escape(f"{key} must be a number, got {value!r}")):
        Reconstruction.from_json(json.dumps(d))


REAL_TABLE_SETS = [
    generate(SchemeSpec("jittered", 120, 40.0, theta=0.3, seed=6)),
    generate(SchemeSpec("log", 240, 60.0)),
    # w = j for trig: the on-order entries of the table
    SampleSet(points=np.arange(-30, 31, dtype=float), bandwidth=30.5),
]


@pytest.mark.parametrize("s", REAL_TABLE_SETS, ids=["jittered", "log", "integers"])
@pytest.mark.parametrize("spec", [SpaceSpec.trig(10), SpaceSpec.legendre(14)],
                         ids=["trig", "legendre"])
def test_real_table_solve_matches_complex_qr_of_the_design(spec, s):
    # the oracle: numpy's complex QR of the scaled design and a triangular
    # solve; the real table and the phase taken off the data give the same
    # problem up to a diagonal unitary scaling of the rows and columns
    basis, mu = build_basis(spec), weights(s)
    rng = np.random.default_rng(11)
    values = rng.normal(size=len(s)) + 1j * rng.normal(size=len(s))
    q, r = np.linalg.qr(np.sqrt(mu)[:, None] * design_matrix(basis, s))
    sig = np.linalg.svd(r, compute_uv=False)
    qhb = q.conj().T @ (np.sqrt(mu) * values)
    coeffs = np.linalg.solve(r, qhb)
    residual = np.sqrt(np.sum(mu * np.abs(values) ** 2) - np.sum(np.abs(qhb) ** 2))
    rec = reconstruct(basis, FourierData(s, values, mu))
    rtol = 1e-13 * sig[0] / sig[-1]
    assert np.max(np.abs(rec.coefficients - coeffs)) <= rtol * np.max(np.abs(coeffs))
    assert rec.sigma_min == pytest.approx(sig[-1], rel=rtol)
    assert rec.sigma_max == pytest.approx(sig[0], rel=rtol)
    assert rec.residual == pytest.approx(residual, rel=rtol)


def _lapack_calls(monkeypatch) -> list[str]:
    """The names of the LAPACK routines that ``get_lapack_funcs`` hands out
    from here on, recorded as they are called."""
    calls = []
    get_lapack_funcs = scipy.linalg.lapack.get_lapack_funcs

    def counted(f):
        def call(*args, **kwargs):
            calls.append(f.__name__.split()[-1])  # "function dgeqrf"
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", lambda names, arrays: [
        counted(f) for f in get_lapack_funcs(names, arrays)])
    return calls


REAL_ROUTINES = {"dgeqrf_lwork", "dgeqrf", "dormqr", "dtrtrs"}


@pytest.mark.parametrize("space, routines", [
    ("trig:6", REAL_ROUTINES), ("legendre:8", REAL_ROUTINES),
    ("spline:2:6", {"zgeqrf_lwork", "zgeqrf", "zunmqr", "ztrtrs"}),
])
def test_fit_and_score_factor_the_table_in_its_dtype(monkeypatch, space, routines):
    # trig and Legendre factor their real table: no complex design, no cell
    # table and no complex QR; the cell kinds keep their complex design
    calls = _lapack_calls(monkeypatch)
    if routines is REAL_ROUTINES:
        def refuse(*args, **kwargs):
            raise AssertionError("a real table builds no cell table and no complex QR")
        monkeypatch.setattr(fourier, "cell_transforms", refuse)
        for name in ("zgeqrf", "zunmqr"):  # called by name, not through get_lapack_funcs
            monkeypatch.setattr(scipy.linalg.lapack, name, refuse)
    s = generate(SchemeSpec("jittered", 80, 30.0, theta=0.2, seed=3))
    basis = build_basis(parse_space(space))
    y = basis_transform(basis, s.points) @ np.linspace(1.0, 2.0, basis.dim)
    est = NonuniformFourierRegressor(space=space, bandwidth=s.bandwidth).fit(s.points, y)
    assert est.score(s.points, y) >= 1.0 - 1e-12
    assert set(calls) == routines


@pytest.mark.parametrize("spec", [SpaceSpec.trig(1), SpaceSpec.legendre(3)],
                         ids=["trig", "legendre"])
def test_rank_deficient_real_table_raises_before_any_solve(monkeypatch, spec):
    # two distinct frequencies cannot resolve 3 or 4 dimensions: the rank
    # rule raises after the QR and before Q^T or R is applied
    calls = _lapack_calls(monkeypatch)
    s = SampleSet(points=np.array([0.0, 1e-13, 0.5, 0.5 + 1e-13]), bandwidth=1.0)
    data = FourierData(s, np.ones(4, dtype=complex), weights(s))
    with pytest.raises(UnstableReconstructionError, match="unstable"):
        reconstruct(build_basis(spec), data)
    assert calls == ["dgeqrf_lwork", "dgeqrf"]
