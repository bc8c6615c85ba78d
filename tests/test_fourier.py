import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import spherical_jn

from dense_bspline import dense_bspline_coeffs, mirror_fold
from nugs import experiments, fourier, sampling, spaces, validation
from nugs.fourier import (FourierData, FunctionSpec, _bspline_weighted_data, _order_factors,
                          basis_transform, bspline_weighted_gram, cell_transforms,
                          evaluate_function, interval_exponential, l2_error, load_data_csv,
                          member_transform, project, sample_function, save_data_csv,
                          spherical_jn_orders, transform_integrals)
from nugs.quadrature import panel_edges, panel_nodes, panel_segments
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
    # the L2 norm of f is its distance to zero in the one-cell constants
    norm = l2_error(f, np.zeros(1), build_basis(SpaceSpec.piecewise_const(1)))
    assert norm == pytest.approx(brute, abs=1e-10)


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


@pytest.mark.parametrize("quadrature, space", [
    (lambda f, basis: l2_error(f, np.zeros(basis.dim), basis), SpaceSpec.spline(3, 16)),
    (project, SpaceSpec.spline(3, 8)),
], ids=["l2_error", "project"])
def test_refinement_compares_different_rules_on_fine_cells(monkeypatch, quadrature, space):
    # cells narrower than the start width would give the first two widths
    # the same panels, and the convergence test would compare a value with itself
    rules = []

    def recorded(edges, n):
        rule = panel_nodes(edges, n)
        rules.append(rule[0])
        return rule

    monkeypatch.setattr(fourier, "panel_nodes", recorded)
    quadrature(FunctionSpec.benchmark(), build_basis(space))
    assert len(rules) >= 2
    assert not np.array_equal(rules[0], rules[1])


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


def test_data_csv_without_rows_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("omega,re,im\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_data_csv(path)


def test_data_csv_wrong_header_rejected(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("omega,real,imag\n0.0,1.0,0.0\n")
    with pytest.raises(ValueError, match="expected header omega,re,im"):
        load_data_csv(path)


@pytest.mark.parametrize("header, row, fields", [
    ("omega,re,im", "0.0,1.0", 3), ("omega,re,im", "0.0,1.0,0.0,1.0", 3),
    ("omega,re,im,weight", "0.0,1.0,0.0", 4)])
def test_data_csv_field_count_reports_line(tmp_path, header, row, fields):
    path = tmp_path / "fields.csv"
    path.write_text(f"{header}\n-1.0,1.0,0.0{',1.0' * (fields == 4)}\n{row}\n")
    with pytest.raises(ValueError, match=f":3: expected {fields} fields"):
        load_data_csv(path)


def test_data_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("omega,re,im\n\n-1.0,0.5,0.0\n   \n2.0,0.25,-0.5\n\n")
    data, _ = load_data_csv(path)
    assert np.array_equal(data.samples.points, [-1.0, 2.0])
    assert np.array_equal(data.values, [0.5, 0.25 - 0.5j])


@pytest.mark.parametrize("expr, message", [
    (("tan", ("x",)), "expr: unknown op 'tan'"),
    ([["x"]], "expr: unknown op"),
    (["sin"], "expr: 'sin' takes 1 argument"),
    (("add", ("x",)), "expr: 'add' takes 2 argument"),
    (("x", 1.0), "expr: 'x' takes 0 argument"),
    (("pow", ("x",), 0.5),
     r"expr: the pow exponent must be an integer of magnitude at most 2\*\*53, got 0.5"),
    (("pow", ("x",), "2"), "expr: the pow exponent must be an integer"),
    (("pow", ("x",), 10**400), "expr: the pow exponent must be an integer"),
    (("pow", ("x",), float("inf")), "expr: the pow exponent must be an integer"),
    (("const", float("nan")), "expr: const must be a finite number"),
    (("const", float("inf")), "expr: const must be a finite number"),
    (("const", "1.0"), "expr: const must be a finite number"),
    (("mul", ("x",), ("const", None)), "expr: const must be a finite number"),
    ((), "expr: malformed expression node"),
    (("neg", 3.0), "expr: malformed expression node 3.0"),
])
def test_from_expr_rejects_malformed_trees(expr, message):
    with pytest.raises(ValueError, match=message):
        FunctionSpec.from_expr(expr)


@pytest.mark.parametrize("jumps", [[0.5, float("inf")], [float("nan")], ["0.5"], 0.5j])
def test_from_expr_rejects_non_finite_jumps(jumps):
    with pytest.raises(ValueError, match="jumps must be finite numbers"):
        FunctionSpec.from_expr(("x",), jumps)


def test_from_expr_accepts_integral_float_exponent():
    f = FunctionSpec.from_expr(("pow", ("x",), 2.0), [0.5])
    assert FunctionSpec.from_json(f.to_json()) == f
    assert np.array_equal(fourier.evaluate_function(f, [0.5, 0.25]), [0.25, 0.0625])


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


# p = 200 runs Miller's recurrence for z in [3, 199) through its rescaling
@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 16, 32, 200])
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


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8, 32, 200])
def test_spherical_jn_orders_match_scipy_across_series_limit(p):
    # the power series stops at z = 3, where the upward or Miller's
    # recurrence takes over; both sides of the seam, to within 1e-12
    z = np.concatenate([np.linspace(2.5, 3.5, 2001), [3.0 - 1e-12, 3.0, 3.0 + 1e-12]])
    got = spherical_jn_orders(z, p)
    for n in range(p):
        assert np.max(np.abs(got[n] - spherical_jn(n, z))) < 1e-14, n


def _refuse_miller(z, p):
    raise AssertionError(f"Miller's recurrence ran for p={p} at z in "
                         f"[{z.min()!r}, {z.max()!r}]")


def test_four_orders_never_run_miller(monkeypatch):
    # Miller's range 3 <= z < p - 1 is empty for p <= 4
    monkeypatch.setattr(fourier, "_jn_miller", _refuse_miller)
    z = _bessel_test_points()
    for p in (1, 2, 3, 4):
        assert spherical_jn_orders(z, p).shape == (p, z.size)


def test_spline_probe_grams_never_run_miller(monkeypatch):
    monkeypatch.setattr(fourier, "_jn_miller", _refuse_miller)
    s = generate(SchemeSpec("jittered", 160, 60.0, theta=0.2, seed=3))
    mu = weights(s)
    for d in (1, 2, 3):
        for l in (1, 2, 3, 5, 8, 16, 40, 100):
            assert bspline_weighted_gram(d, l, s.points, mu).shape == (l + d, l + d)


def test_spline_probe_builds_each_bspline_block_once(monkeypatch):
    # the blocks of every probe's L2 Gram and weighted Gram are rescaled
    # from one table per l0 = min(l, 2d+1) cells, evaluated once at its
    # l0 (d+1) Gauss nodes
    evaluated = []
    values = spaces._bspline_all_values
    monkeypatch.setattr(spaces, "_bspline_all_values",
                        lambda d, l, x: evaluated.append((d, l, x.size)) or values(d, l, x))
    spaces._bspline_table.cache_clear()
    s = generate(SchemeSpec("jittered", 160, 60.0, theta=0.2, seed=3))
    ls = (1, 2, 3, 5, 8, 16, 40, 100)
    for d in (1, 2, 3):
        evaluator = experiments._StabilityEvaluator("spline", s, d)
        evaluated.clear()
        for l in ls:
            evaluator._probe(l)
        l0s = sorted({min(l, 2 * d + 1) for l in ls})
        assert evaluated == [(d, l0, l0 * (d + 1)) for l0 in l0s], d


def test_two_hundred_orders_reach_miller_rescale(monkeypatch):
    rescaled = []

    def counting(big, *running):
        rescaled.append(int(np.count_nonzero(big)))
        rescale(big, *running)

    rescale = fourier._rescale
    monkeypatch.setattr(fourier, "_rescale", counting)
    z = _bessel_test_points()
    got = spherical_jn_orders(z, 200)
    assert len(rescaled) > 0 and sum(rescaled) > 0
    miller = (z >= 3.0) & (z < 199.0)
    assert np.max(np.abs(got[:, miller] - spherical_jn(np.arange(200)[:, None], z[miller]))) < 1e-14


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


@pytest.mark.parametrize("breaks", [
    np.arange(9) / 8.0,                                    # one exact width
    np.linspace(0.0, 1.0, 151),                            # widths differ in the last bit
    np.linspace(0.0, 1.0, 301),
    build_basis(SpaceSpec.piecewise_poly([0.125, 0.25, 0.625], [2, 5, 1, 3])).breaks,
], ids=["uniform", "linspace150", "linspace300", "piecewise_poly"])
def test_cell_transforms_bitwise_equal_to_per_cell_table(breaks):
    omegas = np.array([-310.0, -17.5, -1e-9, 0.0, 1e-9, 0.3, 4.0, 99.99, 310.0])
    p = 6
    a, b = breaks[:-1], breaks[1:]
    h = b - a
    phase = np.exp(-1j * np.pi * omegas[:, None] * (a + b)[None, :]) * np.sqrt(h)[None, :]
    want = phase[:, :, None] * _order_factors(omegas, h, p)
    assert np.array_equal(cell_transforms(breaks, p, omegas), want)


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


def test_transform_integrals_matches_direct_sum_across_uneven_segments(monkeypatch):
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
    monkeypatch.setattr(fourier, "_TRANSFORM_TOL", 1.0)
    assert np.max(np.abs(transform_integrals(f, omegas) - want)) < 1e-13


def _direct_composite_sum(f, omegas, width):
    """The composite 16-node rule on the transform's panels, as one sum per
    frequency over every node."""
    xs, ws = panel_nodes(panel_edges(0.0, 1.0, f.jumps, width), 16)
    return np.exp(-2j * np.pi * omegas[:, None] * xs[None, :]) @ (evaluate_function(f, xs) * ws)


_SPLIT_FREQS = np.concatenate((np.linspace(-40.0, 40.0, 33), [-0.0, 1e-9, -123.4, 97.25]))


@pytest.mark.parametrize("chunk_entries", [None, 500])
@pytest.mark.parametrize("m", [1, 2, 9, 10, 13])
def test_split_phase_kernel_matches_direct_sum(m, chunk_entries, monkeypatch):
    # m panels on the widest segment: 1, 2, a square, a square + 1 and a
    # prime; 500 table entries make chunks of 7 to 31 frequencies, so the
    # 37 frequencies cross chunk boundaries and end in a partial chunk
    if chunk_entries is not None:
        monkeypatch.setattr(fourier, "_CHUNK_ENTRIES", chunk_entries)
    smooth = FunctionSpec.benchmark()
    jumpy = FunctionSpec.from_coefficients(
        SpaceSpec.piecewise_poly([0.3, 0.71], [2, 3, 1]),
        np.random.default_rng(9).normal(size=(9, 2)) @ [1.0, 1j])
    for f, widest in ((smooth, 1.0), (jumpy, 0.41)):
        width = widest / (m - 0.5)
        counts = [count for _, _, count in panel_segments(0.0, 1.0, f.jumps, width)]
        assert max(counts) == m and len(counts) == len(f.jumps) + 1
        got = fourier._batched_oscillatory(f, _SPLIT_FREQS, width)
        assert np.max(np.abs(got - _direct_composite_sum(f, _SPLIT_FREQS, width))) < 1e-13, f.kind


def test_transform_quadrature_peak_memory():
    # the (coarse rows x nodes, frequencies) table of 1067 frequencies at
    # 3202 panels is 15.6 MB; an N x panels exponential table would be 55 MB
    w = generate(experiments.plan_scheme("jittered", 400.0, seed=3)).points
    assert w.size == 1067
    f = FunctionSpec.benchmark()
    transform_integrals(f, w[:2])
    tracemalloc.start()
    try:
        transform_integrals(f, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak


@pytest.mark.parametrize("bad", [[np.inf], [np.nan], [[1.0, 2.0]]],
                         ids=["inf", "nan", "two-dimensional"])
def test_transform_integrals_rejects_bad_omegas_with_name(bad):
    with pytest.raises(ValueError, match="omegas"):
        transform_integrals(FunctionSpec.benchmark(), bad)


def test_transform_integrals_accepts_scalar_and_empty_omegas():
    f = FunctionSpec.benchmark()
    assert np.array_equal(transform_integrals(f, 2.0), transform_integrals(f, [2.0]))
    assert transform_integrals(f, []).shape == (0,)


def test_fourier_data_rejects_negative_or_nonfinite_weights():
    s = SampleSet(points=np.array([0.0, 1.0]), bandwidth=2.0)
    for bad in ([1.0, -0.5], [1.0, np.nan], [np.inf, 1.0]):
        with pytest.raises(ValueError, match="weights"):
            FourierData(s, np.array([1.0, 2.0 + 0j]), np.array(bad))


def dense_bspline_transforms(d, l, omegas):
    """Oracle: every cell's Legendre transforms contracted with every
    B-spline's cell coefficients, band or not."""
    raw = dense_bspline_coeffs(d, l)
    t = cell_transforms(np.linspace(0.0, 1.0, l + 1), d + 1, omegas)
    return t.reshape(t.shape[0], -1) @ raw.reshape(raw.shape[0], -1).T


def dense_weighted_gram(d, l, omegas, mu):
    a = dense_bspline_transforms(d, l, omegas)
    return (a.conj() * mu[:, None]).T @ a


# w = 0, w < 0, and pi |w| h on both sides of 0.5 for every l below
_NEAR_ZERO = np.array([-0.05, 0.0, 0.05])
BSPLINE_FREQS = {
    "jittered": np.union1d(generate(SchemeSpec("jittered", 60, 40.0, theta=0.3, seed=2)).points,
                           _NEAR_ZERO),
    "log": np.union1d(generate(SchemeSpec("log", 60, 40.0)).points, _NEAR_ZERO),
}


def _bspline_weights(omegas):
    return np.random.default_rng(omegas.size).uniform(0.5, 1.5, omegas.size)


@pytest.mark.parametrize("kind", sorted(BSPLINE_FREQS))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_bspline_transforms_match_dense_oracle(kind, d):
    # the folded weighted Gram from Toeplitz and Hankel lags and border
    # columns, against the fold of the Gram of the dense transforms; l covers
    # no interior B-spline (l <= d), border cells that overlap (l <= 2d), one
    # interior cell (l = 2d+1), and both parities of l+d
    omegas = BSPLINE_FREQS[kind]
    mu = _bspline_weights(omegas)
    for l in sorted({1, 2, d, d + 1, 2 * d, 2 * d + 1, 2 * d + 2, 37, 38} - {0}):
        assert np.pi * 0.05 / l < 0.5 < np.pi * 40.0 / l
        want = mirror_fold(dense_weighted_gram(d, l, omegas, mu))
        got = bspline_weighted_gram(d, l, omegas, mu)
        assert got.shape == (l + d, l + d)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", sorted(BSPLINE_FREQS))
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_bspline_weighted_data_matches_dense_oracle(kind, d):
    # A^H y from the border columns and one lag sum, against the dense
    # transforms, over the same cell counts as the Gram
    omegas = BSPLINE_FREQS[kind]
    rng = np.random.default_rng(d)
    y = rng.standard_normal(omegas.size) + 1j * rng.standard_normal(omegas.size)
    for l in sorted({1, 2, d, d + 1, 2 * d, 2 * d + 1, 2 * d + 2, 37, 38} - {0}):
        want = dense_bspline_transforms(d, l, omegas).conj().T @ y
        got = _bspline_weighted_data(d, l, omegas, y)
        assert got.shape == (l + d,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), l


@pytest.mark.parametrize("l", [37, 38])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_bspline_transforms_interior_columns_closed_form(d, l):
    # interior B-splines are cardinal B-splines on knots t_i .. t_i + (d+1) h,
    # so their weighted Gram is Hermitian Toeplitz, T = c_{i-k}, with lags
    # from the closed form, and their mirror entries are Hankel in the same
    # lags, P = c_{i+k-n+1}: the folded interior is Re(T + P) (even),
    # Re(T - P) (odd) and Im(T - P) (even-odd), and the middle column
    # sqrt(2) Re and -sqrt(2) Im of c_{i-mid}
    n, h = l + d, 1.0 / l
    half, top = n // 2, n - n // 2
    omegas = BSPLINE_FREQS["jittered"]
    mu = _bspline_weights(omegas)
    got = bspline_weighted_gram(d, l, omegas, mu)
    lags = np.arange(d - l + 1, l - d)
    c = (mu * (h * np.sinc(omegas * h) ** (d + 1)) ** 2) @ np.exp(
        2j * np.pi * omegas[:, None] * lags * h)

    def lag(t):
        return c[t + l - d - 1]

    i, k = np.arange(d, half)[:, None], np.arange(d, half)
    toeplitz, hankel = lag(i - k), lag(i + k - n + 1)
    even = got[d:half, d:half]
    assert np.array_equal(even, even.T)
    for block, want in ((even, (toeplitz + hankel).real),
                        (got[top + d:, top + d:], (toeplitz - hankel).real),
                        (got[d:half, top + d:], (toeplitz - hankel).imag)):
        assert np.max(np.abs(block - want)) <= 1e-14 * abs(lag(0))
    if top > half:
        mid = np.sqrt(2.0) * lag(i[:, 0] - half)
        assert np.max(np.abs(got[d:half, half] - mid.real)) <= 1e-14 * abs(lag(0))
        assert np.max(np.abs(got[top + d:, half] + mid.imag)) <= 1e-14 * abs(lag(0))


frequencies = st.lists(st.floats(min_value=-80.0, max_value=80.0), min_size=1,
                       max_size=30).map(np.array)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 40), frequencies)
def test_bspline_transforms_properties(d, l, omegas):
    mu = _bspline_weights(omegas)
    got = bspline_weighted_gram(d, l, omegas, mu)
    # raw B-splines are real, so the Gram at negated frequencies is the
    # conjugate: in the fold the odd rows and columns flip sign, bit for bit
    n = l + d
    sign = np.where(np.arange(n) < n - n // 2, 1.0, -1.0)
    assert np.array_equal(bspline_weighted_gram(d, l, -omegas, mu), got * sign[:, None] * sign)
    want = mirror_fold(dense_weighted_gram(d, l, omegas, mu))
    # relative to the largest entry, floored where every frequency sits at a zero of sinc
    assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-12 / l ** 2)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


def _gram_with_dense_scatter(d, l, omegas, weights):
    # the weighted Gram built with border indices and a zero-filled
    # coefficient scatter on every call and a scipy.linalg.toeplitz interior
    w, mu = np.asarray(omegas, dtype=float), np.asarray(weights, dtype=float)
    p, h = d + 1, 1.0 / l
    spline, cell = np.arange(l + d), np.arange(l)
    on_border = (spline < d) | (spline >= l)
    border, inner = np.flatnonzero(on_border), np.flatnonzero(~on_border)
    touched = np.flatnonzero((cell < d) | (cell >= l - d))
    coeffs = np.zeros((touched.size, p, l + d))
    coeffs[np.arange(touched.size)[:, None], :, touched[:, None] + np.arange(p)] = (
        spaces._bspline_blocks(d, l)[touched].transpose(0, 2, 1))
    f = _order_factors(w, np.array([h]), p)[:, 0, :] * np.sqrt(h)
    phase = np.exp(-1j * np.pi * w[:, None] * ((2 * touched + 1) * h))
    a = ((phase[:, :, None] * f[:, None, :]).reshape(w.size, touched.size * p)
         @ coeffs[:, :, border].reshape(touched.size * p, border.size))
    weighted = a.conj() * mu[:, None]
    out = np.empty((l + d, l + d), dtype=complex)
    out[border[:, None], border] = weighted.T @ a
    if l > d:
        nhat = h * np.exp(-1j * np.pi * w * ((d + 1) * h)) * np.sinc(w * h) ** (d + 1)
        lagged = fourier._lag_sums(
            np.column_stack((mu * np.abs(nhat) ** 2, weighted * nhat[:, None])),
            w, h, l - d, [slice(None)])[0]
        out[d:l, d:l] = scipy.linalg.toeplitz(lagged[0].conj(), lagged[0])
        out[border[:, None], inner] = lagged[1:]
        out[inner[:, None], border] = lagged[1:].conj().T
    return out


@pytest.mark.parametrize("kind", ["jittered", "log"])
@pytest.mark.parametrize("d", range(6))
def test_bspline_weighted_gram_matches_folded_dense_scatter(kind, d):
    # one-sided border columns on one layout per (d, min(l, 2d+1)) and the
    # top rows' Toeplitz and Hankel lags give the fold of the complex Gram
    # with all 2d border columns scattered
    s = generate(experiments.plan_scheme(kind, 30.0, seed=7))
    mu = weights(s)
    for l in sorted({1, d, d + 1, 2 * d, 2 * d + 1, 2 * d + 2, 60, 61} - {0}):
        want = mirror_fold(_gram_with_dense_scatter(d, l, s.points, mu))
        got = bspline_weighted_gram(d, l, s.points, mu)
        assert got.dtype == float
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), l


@pytest.mark.parametrize("p", [1, 2, 4, 6])
def test_spherical_jn_series_only_input_bitwise_equal_to_mixed_call(p):
    # a value's bits do not depend on the other z of the call: an input
    # wholly below the series limit gives what the same z get inside a call
    # that also runs the other methods
    z = np.linspace(0.0, fourier._SERIES_BELOW, 97, endpoint=False)
    mixed = spherical_jn_orders(np.concatenate((z, [3.0, 4.5, 10.0, 40.0])), p)
    assert _same_bits(spherical_jn_orders(z, p), mixed[:, :z.size])
    assert _same_bits(spherical_jn_orders(z.reshape(1, -1), p)[:, 0], mixed[:, :z.size])


@pytest.mark.parametrize("spec", [
    SpaceSpec.trig(5), SpaceSpec.legendre(30), SpaceSpec.piecewise_poly([0.3, 0.7], [3, 1, 4]),
    SpaceSpec.spline(3, 40), SpaceSpec.spline(0, 3), SpaceSpec.piecewise_const(16),
], ids=lambda s: s.kind)
def test_member_transform_matches_design_product(spec):
    # 0, negative frequencies and 1101 of them, past two 512-row chunks;
    # measured differences are at most 5.3e-16 of the largest transform,
    # so 1e-14 of it leaves a wide margin
    basis = build_basis(spec)
    rng = np.random.default_rng(13)
    coeffs = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    omegas = np.concatenate(([0.0], -np.linspace(0.25, 300, 550), rng.uniform(-50, 400, 550)))
    want = basis_transform(basis, omegas) @ coeffs
    got = member_transform(basis, coeffs, omegas)
    assert got.shape == (omegas.size,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("transform", ["basis", "member"])
def test_legendre_transforms_equal_the_cell_table_path(monkeypatch, transform):
    # Legendre reads its real table instead of the one-cell table; the phase
    # is the same, so only the order of the member's sums can differ
    basis = build_basis(SpaceSpec.legendre(20))
    w = np.concatenate((np.random.default_rng(6).uniform(-400.0, 400.0, 900),
                        [-3.0, -1e-9, 0.0, 1e-9, 2.5, 7.0]))
    c = np.random.default_rng(7).normal(size=(basis.dim, 2)) @ [1.0, 1j]
    t = cell_transforms(basis.breaks, basis.local_dim, w)[:, 0, :]
    want = t if transform == "basis" else t @ c

    def refuse(*args, **kwargs):
        raise AssertionError("Legendre builds no cell table")

    monkeypatch.setattr(fourier, "cell_transforms", refuse)
    got = basis_transform(basis, w) if transform == "basis" else member_transform(basis, c, w)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_cell_table_is_built_by_entry_budget(monkeypatch):
    # a narrow table (4 cells, p = 4) takes 2000 frequencies in one chunk
    # and gives the 512-row chunks' product within rounding; a wide one
    # (60 cells x 4) keeps 512 rows
    w = generate(SchemeSpec("jittered", 2000, 150.0, theta=0.2, seed=8)).points
    calls, table = [], fourier.cell_transforms

    def counted(breaks, p, omegas):
        calls.append((breaks.size - 1, omegas.size))
        return table(breaks, p, omegas)

    for space in (SpaceSpec.piecewise_poly([0.25, 0.5, 0.75], [3, 3, 3, 3]),
                  SpaceSpec.spline(3, 57)):
        basis = build_basis(space)
        right = basis.coeffs.reshape(basis.dim, -1).T
        want = np.concatenate([
            table(basis.breaks, basis.local_dim, w[lo:lo + 512]).reshape(-1, right.shape[0])
            @ right for lo in range(0, w.size, 512)])
        monkeypatch.setattr(fourier, "cell_transforms", counted)
        assert np.max(np.abs(basis_transform(basis, w) - want)) <= 1e-15
        monkeypatch.undo()
    assert calls == [(4, 2000)] + [(57, 512)] * 3 + [(57, 464)]


def _trig_frequencies(k, n, seed):
    """A jittered set on [-k, k] with every integer from -k to k in steps of 7."""
    s = generate(SchemeSpec("jittered", n, k, theta=0.2, seed=seed))
    return np.concatenate((s.points, np.arange(-k, k + 1, 7.0)))


@pytest.mark.parametrize("transform", ["basis", "member"])
def test_trig_transforms_take_one_exponential_per_frequency(monkeypatch, transform):
    # the phase e^{-i pi w} times the real table of _trig_factors: no sinc,
    # and no exponential of more than one value per frequency
    basis = build_basis(SpaceSpec.trig(20))
    w = _trig_frequencies(30.0, 97, 2)
    sizes, exp = [], np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    def no_sinc(x):
        raise AssertionError("np.sinc called")

    monkeypatch.setattr(np, "exp", counted)
    monkeypatch.setattr(np, "sinc", no_sinc)
    if transform == "basis":
        basis_transform(basis, w)
    else:
        member_transform(basis, np.ones(basis.dim), w)
    assert sizes and max(sizes) <= w.size


def test_trig_basis_transform_matches_40_digit_oracle():
    # e^{-i pi (w - j)} sinc(w - j) at |w| up to 400, negative w and w = j:
    # the reduction w = k + r keeps every sine and exponential argument
    # within pi/2, so pi w is never rounded
    mpmath = pytest.importorskip("mpmath")
    basis = build_basis(SpaceSpec.trig(400))
    w = _trig_frequencies(400.0, 1067, 3)
    got = basis_transform(basis, w)
    assert np.array_equal(basis_transform(basis, basis.orders.astype(float)), np.eye(basis.dim))
    rng = np.random.default_rng(5)
    # plus the rows w = -1, 398 and the orders j = -400, -1, 0, 398, 400
    rows = np.concatenate((rng.choice(w.size, 20, replace=False),
                           np.flatnonzero(np.isin(w, (-1.0, 398.0)))))
    cols = np.concatenate((rng.choice(basis.dim, 20, replace=False), [0, 399, 400, 798, 800]))
    with mpmath.workdps(40):
        for n in rows:
            for j in cols:
                d = mpmath.mpf(float(w[n])) - int(basis.orders[j])
                sinc = mpmath.sin(mpmath.pi * d) / (mpmath.pi * d) if d else 1
                want = complex(mpmath.exp(-1j * mpmath.pi * d) * sinc)
                assert abs(got[n, j] - want) <= 2e-16


@pytest.mark.parametrize("m", [5, 40])
def test_trig_member_transform_matches_design_product(m):
    # phase * (B c) against (phase * B) c: only the rounding of the dim-term
    # sums differs
    basis = build_basis(SpaceSpec.trig(m))
    rng = np.random.default_rng(17)
    coeffs = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    w = _trig_frequencies(2.0 * m, 4 * m + 40, 4)
    want = basis_transform(basis, w) @ coeffs
    np.testing.assert_allclose(member_transform(basis, coeffs, w), want,
                               rtol=0, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("bad", [[1.0, np.nan, 0.5], [np.inf, 0.0, 0.5], np.ones((3, 2))],
                         ids=["nan", "inf", "2-D"])
def test_from_coefficients_rejects_bad_coefficients(bad):
    with pytest.raises(ValueError, match="coefficients"):
        FunctionSpec.from_coefficients(SpaceSpec.legendre(2), bad)


def test_from_json_rejects_non_finite_coefficients():
    text = FunctionSpec.from_coefficients(SpaceSpec.legendre(2), [1, 2j, -0.5]).to_json()
    with pytest.raises(ValueError, match="coefficients"):
        FunctionSpec.from_json(text.replace("-0.5", "NaN"))


def test_l2_error_rejects_bad_coefficients():
    f = FunctionSpec.benchmark()
    basis = build_basis(SpaceSpec.legendre(3))
    for bad in (np.zeros(3), np.zeros(5), [0.0, np.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="coefficients"):
            l2_error(f, bad, basis)


def test_every_expression_op_evaluates_as_its_numpy_function():
    x, two = ("x",), ("const", 2.0)
    xs = np.linspace(0.0, 0.9, 7)
    cases = [(x, xs), (("const", 1.5), np.full_like(xs, 1.5)), (("neg", x), -xs),
             (("sin", x), np.sin(xs)), (("cos", x), np.cos(xs)), (("exp", x), np.exp(xs)),
             (("add", x, two), xs + 2.0), (("sub", x, two), xs - 2.0),
             (("mul", x, two), xs * 2.0), (("pow", x, 3), xs**3)]
    for expr, want in cases:
        assert np.array_equal(evaluate_function(FunctionSpec.from_expr(expr), xs), want)


def test_from_coefficients_rejects_wrong_count():
    with pytest.raises(ValueError, match="coefficients must have length 3, the space dimension"):
        FunctionSpec.from_coefficients(SpaceSpec.legendre(2), [1.0, 2.0])


@pytest.mark.parametrize("text, key", [
    ('{"expr": ["x"]}', "kind"),
    ('{"kind": "expr"}', "expr"),
    ('{"kind": "coeffs", "space": {"kind": "legendre", "m": 1}}', "coefficients"),
    ('{"kind": "coeffs", "coefficients": [[1, 0]]}', "space"),
    ("[1, 2]", "kind"),
])
def test_function_from_json_names_the_missing_key(text, key):
    with pytest.raises(ValueError, match=f"expected a JSON object with the key '{key}'"):
        FunctionSpec.from_json(text)


@pytest.mark.parametrize("change, message", [
    ({"coefficients": [1, 2]}, r"coefficients must be a list of \[re, im\] number pairs"),
    ({"coefficients": [[1, 0], ["2", 0]]}, r"coefficients must be a list of \[re, im\]"),
    ({"space": {"kind": "legendre", "m": None}}, "m must be an integer >= 0, got None"),
    ({"kind": "nope"}, "unknown kind 'nope'"),
])
def test_function_from_json_rejects_malformed_fields(change, message):
    d = json.loads(FunctionSpec.from_coefficients(SpaceSpec.legendre(1), [1, 2j]).to_json())
    with pytest.raises(ValueError, match=message):
        FunctionSpec.from_json(json.dumps({**d, **change}))


def test_function_from_json_keeps_signed_zeros():
    f = FunctionSpec.from_coefficients(SpaceSpec.legendre(1), [complex(-0.0, 1.0), -1j])
    back = FunctionSpec.from_json(f.to_json())
    assert np.signbit([back.coefficients[0].real, back.coefficients[1].real]).all()


class _CountingFloat:
    """Stands in for ``float`` in the modules that load CSV files and counts
    its calls; numpy reads its ``dtype`` where code passes float as one."""

    dtype = np.dtype(float)

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return float(*args)


def test_csv_loaders_convert_rows_in_one_numpy_call(tmp_path, monkeypatch):
    s = generate(SchemeSpec("jittered", 600, 200.0, theta=0.3, seed=4))
    data = FourierData(s, np.exp(1j * s.points), weights(s))
    save_data_csv(tmp_path / "data.csv", data)
    counting = _CountingFloat()
    for module in (validation, fourier, sampling):
        monkeypatch.setattr(module, "float", counting, raising=False)
    back, had_weights = load_data_csv(tmp_path / "data.csv")
    assert had_weights and np.array_equal(back.values, data.values)
    # the few calls left check the bandwidth; a per-row loop makes thousands
    assert counting.calls < 20


def test_data_csv_bad_header_is_reported_before_bad_rows(tmp_path):
    path = tmp_path / "both.csv"
    path.write_text("omega,real,imag\n0.0,oops\n")
    with pytest.raises(ValueError, match="expected header omega,re,im"):
        load_data_csv(path)


def test_data_csv_number_numpy_cannot_read_names_the_file(tmp_path):
    # float reads 1_000, the row parser does not; no line is named then
    path = tmp_path / "underscore.csv"
    path.write_text("omega,re,im\n-1.0,1_000,0.0\n1.0,0.5,0.0\n")
    with pytest.raises(ValueError, match="underscore.csv: could not convert string '1_000'"):
        load_data_csv(path)


def test_data_csv_bytes(tmp_path):
    s = SampleSet(points=np.array([-3.0, -0.1, 1e-20, 2.5, 3.0000000000000004]), bandwidth=4.0)
    data = FourierData(samples=s, values=np.array([1, -0.0 - 2.5j, 1e16 + 1e-300j, 0.1 + 0.2j,
                                                    -1 / 3]),
                       weights=np.array([0.5, 1.0, 2.0, 1e-5, 123456789.123]))
    save_data_csv(tmp_path / "d.csv", data)
    assert (tmp_path / "d.csv").read_bytes() == (
        b"omega,re,im,weight\n-3.0,1.0,0.0,0.5\n-0.1,-0.0,-2.5,1.0\n1e-20,1e+16,1e-300,2.0\n"
        b"2.5,0.1,0.2,1e-05\n3.0000000000000004,-0.3333333333333333,0.0,123456789.123\n")


@pytest.mark.parametrize("cells, p", [(16, 1), (8, 4)])
def test_uniform_cell_lags_sum_each_part_apart(cells, p):
    rng = np.random.default_rng(3)
    w, mu = np.sort(rng.uniform(-40.0, 40.0, 90)), rng.uniform(0.1, 1.0, 90)
    parts = [slice(0, 7), slice(7, 60), slice(60, 90)]
    got = fourier.uniform_cell_lags(cells, p, w, mu, parts)
    assert len(got) == 3
    for part, r in zip(got, parts):
        assert part.shape == (p, p, cells)
        want = fourier.uniform_cell_lags(cells, p, w[r], mu[r], [slice(None)])[0]
        assert np.max(np.abs(part - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(fourier.uniform_cell_lags(cells, p, w, mu, [slice(0, 90)])[0],
                          fourier.uniform_cell_lags(cells, p, w, mu, [slice(None)])[0])
