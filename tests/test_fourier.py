import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from nugs.fourier import (FourierData, FunctionSpec, basis_transform, cell_transforms,
                          evaluate_function, function_norm, interval_exponential,
                          l2_error, load_data_csv, project, sample_function,
                          save_data_csv, spherical_jn_orders, transform_integrals)
from nugs.quadrature import panel_edges, panel_nodes
from nugs.sampling import SampleSet, SchemeSpec, generate, weights
from nugs.spaces import SpaceSpec, build_basis


def quad_transform(f, omega):
    """Independent QUADPACK oracle for the transform of a function spec."""
    re = quad(lambda x: np.real(evaluate_function(f, x)[0] * np.exp(-2j * np.pi * omega * x)),
              0, 1, limit=500, epsabs=1e-13, points=list(f.jumps) or None)[0]
    im = quad(lambda x: np.imag(evaluate_function(f, x)[0] * np.exp(-2j * np.pi * omega * x)),
              0, 1, limit=500, epsabs=1e-13, points=list(f.jumps) or None)[0]
    return re + 1j * im


def test_interval_exponential_hand_values():
    assert interval_exponential(0, 1, 0.0) == pytest.approx(1.0)
    assert interval_exponential(0, 1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert interval_exponential(0, 0.5, 1.0) == pytest.approx(-1j / np.pi, abs=1e-15)


def test_interval_exponential_requires_order():
    with pytest.raises(ValueError):
        interval_exponential(0.5, 0.5, 1.0)


def test_trig_transform_orthogonality_at_integers():
    basis = build_basis(SpaceSpec.trig(1))
    assert np.allclose(basis_transform(basis, 0.0), [0, 1, 0], atol=1e-15)
    assert np.allclose(basis_transform(basis, 1.0), [0, 0, 1], atol=1e-15)


def test_legendre_transform_at_zero_and_one():
    basis = build_basis(SpaceSpec.legendre(1))
    assert np.allclose(basis_transform(basis, 0.0), [1, 0], atol=1e-15)
    # int_0^1 sqrt(3)(2x-1) e^{-2 pi i x} dx = i sqrt(3) / pi
    val = basis_transform(basis, 1.0)[1]
    assert val == pytest.approx(1j * np.sqrt(3) / np.pi, abs=1e-14)


@pytest.mark.parametrize("spec", [
    SpaceSpec.legendre(6),
    SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 4]),
    SpaceSpec.spline(3, 5),
    SpaceSpec.piecewise_const(7),
    SpaceSpec.trig(4),
], ids=lambda s: s.kind)
def test_basis_transform_against_quadrature(spec):
    basis = build_basis(spec)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=basis.dim)
    f = FunctionSpec.from_coefficients(spec, coeffs)
    for omega in rng.uniform(-200, 200, size=4):
        closed = basis_transform(basis, float(omega)) @ coeffs
        assert abs(closed - quad_transform(f, float(omega))) < 1e-11


def test_conjugate_symmetry_for_real_functions():
    f = FunctionSpec.benchmark()
    omegas = np.array([0.25, 1.0, 7.3, 40.0])
    plus = transform_integrals(f, omegas)
    minus = transform_integrals(f, -omegas)
    assert np.allclose(minus, np.conj(plus), atol=1e-13)


def test_transform_uniform_bound():
    # |F(w)| <= L1 norm, computed here for the built-in benchmark
    f = FunctionSpec.benchmark()
    l1 = quad(lambda x: abs(evaluate_function(f, x)[0]), 0, 1, limit=300)[0]
    vals = transform_integrals(f, np.linspace(-150, 150, 61))
    assert np.max(np.abs(vals)) <= l1 + 1e-12


def test_plancherel_spot_check_trig():
    basis = build_basis(SpaceSpec.trig(2))
    window = np.arange(-400, 401).astype(float)
    mags = np.abs(basis_transform(basis, window)) ** 2
    sums = mags.sum(axis=0)
    assert np.allclose(sums, 1.0, atol=2e-3)


def test_sample_function_indicator():
    s = generate(SchemeSpec("jittered", 24, 9.0, theta=0.3, seed=4))
    one = FunctionSpec.from_coefficients(SpaceSpec.piecewise_const(1), [1.0])
    data = sample_function(one, s)
    expected = np.exp(-1j * np.pi * s.points) * np.sinc(s.points)
    assert np.allclose(data.values, expected, atol=1e-12)
    assert np.allclose(data.weights, weights(s))


def test_sample_function_linearity_consistency():
    spec = SpaceSpec.spline(2, 4)
    basis = build_basis(spec)
    rng = np.random.default_rng(3)
    a = rng.normal(size=basis.dim)
    f = FunctionSpec.from_coefficients(spec, a)
    s = generate(SchemeSpec("uniform", 40, 18.0))
    data = sample_function(f, s)
    closed = basis_transform(basis, s.points) @ a
    assert np.max(np.abs(data.values - closed)) < 1e-11


def test_benchmark_transform_at_zero_dual_quadrature():
    f = FunctionSpec.benchmark()
    mine = transform_integrals(f, [0.0])[0]
    # two independent rules: QUADPACK and a dense midpoint-Romberg refinement
    q1 = quad(lambda x: evaluate_function(f, x)[0], 0, 1, epsabs=1e-13, limit=300)[0]
    xs = (np.arange(2**20) + 0.5) / 2**20
    q2 = np.mean(evaluate_function(f, xs))
    assert abs(q1 - q2) < 1e-11
    assert abs(mine - q1) < 1e-12


def test_l2_error_zero_coefficients_gives_norm():
    f = FunctionSpec.benchmark()
    basis = build_basis(SpaceSpec.legendre(0))
    err = l2_error(f, np.zeros(1) * 0 + [0.0], basis)
    brute = np.sqrt(quad(lambda x: abs(evaluate_function(f, x)[0]) ** 2, 0, 1,
                         limit=300, epsabs=1e-13)[0])
    assert err == pytest.approx(brute, abs=1e-10)
    assert function_norm(f) == pytest.approx(brute, abs=1e-10)


def test_l2_error_member_is_zero():
    spec = SpaceSpec.piecewise_poly([0.5], [3, 2])
    basis = build_basis(spec)
    rng = np.random.default_rng(9)
    a = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    f = FunctionSpec.from_coefficients(spec, a)
    assert l2_error(f, a, basis) < 1e-10


def test_l2_error_sawtooth_hand_value():
    f = FunctionSpec.from_expr(("x",))
    basis = build_basis(SpaceSpec.piecewise_const(2))
    best = project(f, basis)
    # <x, sqrt(2) 1_cell> = sqrt(2) * mean * cell width
    assert np.allclose(best, [0.25 / np.sqrt(2), 0.75 / np.sqrt(2)], atol=1e-12)
    assert l2_error(f, best, basis) == pytest.approx(1 / (4 * np.sqrt(3)), abs=1e-10)


def test_project_matches_transform_for_trig():
    f = FunctionSpec.benchmark()
    basis = build_basis(SpaceSpec.trig(3))
    coeffs = project(f, basis)
    direct = transform_integrals(f, basis.orders.astype(float))
    assert np.allclose(coeffs, direct, atol=1e-12)


def test_expression_json_round_trip():
    f = FunctionSpec.benchmark()
    back = FunctionSpec.from_json(f.to_json())
    xs = np.linspace(0, 1, 7, endpoint=False)
    assert np.allclose(evaluate_function(back, xs), evaluate_function(f, xs))
    g = FunctionSpec.from_coefficients(SpaceSpec.legendre(2), [1, 2j, -0.5])
    back = FunctionSpec.from_json(g.to_json())
    assert np.allclose(evaluate_function(back, xs), evaluate_function(g, xs))


def test_data_csv_round_trip(tmp_path):
    s = generate(SchemeSpec("jittered", 9, 3.0, theta=0.2, seed=1))
    data = sample_function(FunctionSpec.benchmark(), s)
    path = tmp_path / "data.csv"
    save_data_csv(path, data)
    back, had_weights = load_data_csv(path)
    assert had_weights
    assert np.allclose(back.values, data.values)
    assert np.allclose(back.weights, data.weights)


def test_data_csv_without_weights_computes_them(tmp_path):
    path = tmp_path / "noweight.csv"
    path.write_text("omega,re,im\n-1.0,0.5,0.0\n0.0,1.0,0.1\n2.0,0.25,-0.5\n")
    data, had_weights = load_data_csv(path, bandwidth=3.0)
    assert not had_weights
    assert np.allclose(data.weights, [2.0, 1.5, 2.5])


def test_data_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("omega,re,im\n0.0,1.0,0.0\n1.0,oops,0.0\n")
    with pytest.raises(ValueError, match=":3"):
        load_data_csv(path)


def test_fourier_data_validates_lengths():
    s = SampleSet(points=np.array([0.0, 1.0]), bandwidth=2.0)
    with pytest.raises(ValueError):
        FourierData(s, np.array([1.0 + 0j]), np.array([1.0, 1.0]))


def _bessel_test_points():
    near_orders = [n + np.linspace(-1.0, 1.0, 21) for n in range(1, 33)]
    z = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 5e-4, 9.99e-4, 0.4999, 0.5, 0.5001],
                        np.linspace(0.0, 40.0, 2001), np.geomspace(1e-3, 1e4, 3001),
                        *near_orders])
    return z[z >= 0.0]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 16, 32])
def test_spherical_jn_orders_match_scipy(p):
    z = _bessel_test_points()
    got = spherical_jn_orders(z, p)
    assert got.shape == (p, z.size)
    for n in range(p):
        assert np.max(np.abs(got[n] - spherical_jn(n, z))) < 1e-14, n


def test_spherical_jn_orders_keeps_shape_and_zero():
    z = np.array([[0.0, 2.0], [31.0, 1e4]])
    got = spherical_jn_orders(z, 5)
    assert got.shape == (5, 2, 2)
    assert np.array_equal(got[:, 0, 0], [1.0, 0.0, 0.0, 0.0, 0.0])


def test_cell_transforms_oracle_on_uneven_grid_and_parity():
    breaks = np.array([0.0, 0.13, 0.2, 0.55, 0.9, 1.0])
    omegas = np.array([-310.0, -17.5, -0.3, 0.0, 0.3, 4.0, 17.5, 310.0])
    p = 9
    got = cell_transforms(breaks, p, omegas)
    a, h = breaks[:-1], np.diff(breaks)
    for n in range(p):
        jn = spherical_jn(n, np.pi * np.abs(omegas)[:, None] * h)
        sign = np.where(omegas < 0, 1j, -1j)[:, None] ** n
        want = (np.sqrt((2 * n + 1) * h) * np.exp(-1j * np.pi * omegas[:, None] * (2 * a + h))
                * sign * jn)
        assert np.max(np.abs(got[:, :, n] - want)) < 1e-14
    # cell Legendre functions are real: their transforms are conjugate-symmetric
    assert np.allclose(cell_transforms(breaks, p, -omegas), got.conj(), rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec", [
    SpaceSpec.spline(3, 24),
    SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 4]),
    SpaceSpec.legendre(20),
], ids=lambda s: s.kind)
def test_basis_transform_matches_einsum_oracle(spec):
    basis = build_basis(spec)
    omegas = np.random.default_rng(5).uniform(-150.0, 150.0, size=1100)
    t = cell_transforms(basis.breaks, basis.local_dim, omegas)
    want = np.einsum("wjn,djn->wd", t, basis.coeffs)
    got = basis_transform(basis, omegas)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_transform_integrals_matches_direct_sum_across_uneven_segments():
    spec = SpaceSpec.piecewise_poly([0.3, 0.71], [2, 3, 1])
    f = FunctionSpec.from_coefficients(spec, np.random.default_rng(8).normal(size=9))
    assert f.jumps == (0.3, 0.71)
    omegas = np.linspace(-40.0, 40.0, 33)
    # transform_integrals returns the halved-width composite rule
    width = 1.0 / (4.0 * np.max(np.abs(omegas)) + 1.0) / 2.0
    xs, ws = panel_nodes(panel_edges(0.0, 1.0, f.jumps, width), 16)
    want = np.exp(-2j * np.pi * omegas[:, None] * xs[None, :]) @ (evaluate_function(f, xs) * ws)
    assert np.max(np.abs(transform_integrals(f, omegas) - want)) < 1e-13
    # a tolerance no frequency misses: the batched rule alone, with no refinement
    assert np.max(np.abs(transform_integrals(f, omegas, abs_tol=1.0) - want)) < 1e-13


def test_fourier_data_rejects_negative_or_nonfinite_weights():
    s = SampleSet(points=np.array([0.0, 1.0]), bandwidth=2.0)
    for bad in ([1.0, -0.5], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="weights"):
            FourierData(s, np.array([1.0, 2.0 + 0j]), np.array(bad))
