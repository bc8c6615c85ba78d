import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from dense_bspline import dense_bspline_coeffs
from nugs import experiments, fourier, sampling, solver, spaces
from nugs.errors import BandwidthTooSmallError
from nugs.experiments import (ErrorRow, ScalingRow, _StabilityEvaluator, default_k_grid,
                              error_curve, family_space, max_stable_dimension, plan_scheme,
                              run_figure_panels, scaling_table, write_error_csv,
                              write_scaling_csv)
from nugs.fourier import FunctionSpec, cell_transforms
from nugs.sampling import SampleSet, SchemeSpec, density, generate, weights
from nugs.solver import stability_constant
from nugs.spaces import SpaceSpec, build_basis

INTEGER_GRID = SampleSet(points=np.arange(-10, 11, dtype=float), bandwidth=10.5)


def test_max_stable_on_integer_grid():
    # orthonormal rows up to the sample count: M limited by N = 21
    assert max_stable_dimension("trig", INTEGER_GRID, 3.0) == 10


def test_threshold_infinite_caps_at_sample_count():
    assert max_stable_dimension("trig", INTEGER_GRID, float("inf")) == 10


def test_selected_dimension_is_maximal():
    s = generate(SchemeSpec("jittered", 64, 24.0, theta=0.2, seed=3))
    m = max_stable_dimension("trig", s, 3.0)
    below = stability_constant(build_basis(SpaceSpec.trig(m)), s)
    above = stability_constant(build_basis(SpaceSpec.trig(m + 1)), s)
    assert below.ratio <= 3.0 < above.ratio


def test_spline_search_matches_direct_constants():
    s = generate(SchemeSpec("jittered", 40, 15.0, theta=0.2, seed=5))
    l = max_stable_dimension("spline", s, 3.0, d=2)
    below = stability_constant(build_basis(SpaceSpec.spline(2, l)), s)
    above = stability_constant(build_basis(SpaceSpec.spline(2, l + 1)), s)
    assert below.ratio <= 3.0 < above.ratio


@pytest.mark.parametrize("kind", ["jittered", "log"])
@pytest.mark.parametrize("family, d, ms", [("trig", 0, (1, 4, 9)),
                                           ("legendre", 0, (1, 3, 6)),
                                           ("spline", 2, (1, 5, 10))])
def test_search_ratio_matches_stability_constant(kind, family, d, ms):
    s = generate(plan_scheme(kind, 12.0, seed=4))
    ev = _StabilityEvaluator(family, s, d)
    for m in ms:
        direct = stability_constant(build_basis(family_space(family, m, d)), s)
        assert np.isfinite(direct.ratio)
        assert ev.ratio(m) == pytest.approx(direct.ratio, rel=1e-9, abs=0)



@pytest.mark.parametrize("family", ["trig", "legendre"])
def test_selected_c_ratio_matches_stability_constant_at_large_n(family):
    # the Gram's rounding grows with N; at the selected m the pencil's
    # eigenvalue still agrees with the SVD of the scaled design
    s = generate(plan_scheme("log", 60.0, seed=7))
    [row] = scaling_table(family, "log", [60.0], seed=7)
    assert row.n == len(s) == 1020
    direct = stability_constant(build_basis(family_space(family, row.m)), s)
    assert row.c_ratio == pytest.approx(direct.ratio, rel=1e-12, abs=0)

def dense_spline_lower(s, d, l):
    """Oracle: the generalized eigenproblem on the dense contraction of every
    cell with every B-spline and the dense B-spline Gram."""
    raw = dense_bspline_coeffs(d, l).reshape(l + d, -1)
    t = cell_transforms(np.linspace(0.0, 1.0, l + 1), d + 1, s.points)
    a = t.reshape(len(s), -1) @ raw.T
    m1 = (a.conj() * weights(s)[:, None]).T @ a
    return scipy.linalg.eigh(m1, (raw @ raw.T).astype(complex), eigvals_only=True)[0]


@pytest.mark.parametrize("kind", ["jittered", "log"])
@pytest.mark.parametrize("d, ls", [(1, (1, 6, 14)), (2, (1, 5, 10)), (3, (2, 4, 9))])
def test_spline_lower_matches_dense_eigenproblem(kind, d, ls):
    s = generate(plan_scheme(kind, 12.0, seed=4))
    ev = _StabilityEvaluator("spline", s, d)
    for l in ls:
        want = dense_spline_lower(s, d, l)
        assert want > 1e-2
        assert ev._lower(l) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 2)])
def test_eigensolver_failure_propagates(monkeypatch, family, d):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    s = generate(SchemeSpec("jittered", 40, 15.0, theta=0.2, seed=5))
    with pytest.raises(scipy.linalg.LinAlgError, match="forced failure"):
        max_stable_dimension(family, s, 3.0, d=d)


@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 2)])
def test_non_finite_gram_raises(monkeypatch, family, d):
    # a Cholesky test reads a NaN pivot as "not positive definite", which
    # would end the search at index 1 instead of raising
    spline_gram = fourier.bspline_weighted_gram
    trig, legendre = fourier._trig_factors, fourier._real_order_factors

    def nan_spline_gram(d, l, *args):
        return spline_gram(d, l, *args) * (np.nan if l > 1 else 1.0)

    def nan_trig(w, orders):
        phase, b = trig(w, orders)
        return phase, b * (np.nan if orders.size > 3 else 1.0)

    def nan_legendre(w, h, p):
        return legendre(w, h, p) * (np.nan if p > 2 else 1.0)

    monkeypatch.setattr(fourier, "bspline_weighted_gram", nan_spline_gram)
    monkeypatch.setattr(fourier, "_trig_factors", nan_trig)
    monkeypatch.setattr(fourier, "_real_order_factors", nan_legendre)
    s = generate(SchemeSpec("jittered", 40, 15.0, theta=0.2, seed=5))
    with pytest.raises(np.linalg.LinAlgError, match=f"non-finite .* {family} probe"):
        max_stable_dimension(family, s, 3.0, d=d)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("kind", ["jittered", "log"])
@pytest.mark.parametrize("d", [0, 1, 3, 5])
def test_banded_spline_shift_bitwise_equal_to_dense_shift(kind, d):
    # W - sG on the d+1 diagonals of G's upper band: the upper triangle,
    # which is all that potrf reads, is that of the dense w - s * g
    s = generate(plan_scheme(kind, 30.0, seed=7))
    ev = _StabilityEvaluator("spline", s, d)
    shift = (1.0 + ev.delta) ** 2 / 9.0
    for l in (1, d + 1, 2 * d + 2, 40):
        w, g = ev._weighted(l), spaces._bspline_gram(d, l)
        got = experiments._shifted(w, spaces._bspline_band(d, l), shift)
        assert got.flags.f_contiguous
        assert _same_bits(np.triu(got), np.triu(w - shift * g)), l


@pytest.mark.parametrize("kind", ["jittered", "log"])
@pytest.mark.parametrize("family", ["trig", "legendre"])
def test_identity_shift_bitwise_equal_to_diagonal_shift(kind, family):
    # the identity is the band of one diagonal of ones
    s = generate(plan_scheme(kind, 30.0, seed=7))
    ev = _StabilityEvaluator(family, s)
    shift = (1.0 + ev.delta) ** 2 / 9.0
    for m in (1, 7, 20):
        w, band = ev._probe(m)
        want = w.copy(order="F")
        want[np.diag_indices_from(want)] -= shift
        got = experiments._shifted(w, band, shift)
        assert got.flags.f_contiguous and _same_bits(got, want), m


def test_spline_probes_build_the_dense_l2_gram_only_for_ratio(monkeypatch):
    calls = {"gram": 0, "lower": 0}
    gram, lower = spaces._bspline_gram, _StabilityEvaluator._lower

    def counted_gram(d, l):
        calls["gram"] += 1
        return gram(d, l)

    def counted_lower(self, m):
        calls["lower"] += 1
        return lower(self, m)

    monkeypatch.setattr(spaces, "_bspline_gram", counted_gram)
    monkeypatch.setattr(_StabilityEvaluator, "_lower", counted_lower)
    s = generate(plan_scheme("jittered", 30.0, seed=7))
    ev = _StabilityEvaluator("spline", s, 2)
    assert [ev.passes(l, 3.0) for l in (2, 30, 60)] == [True, True, False]
    assert calls == {"gram": 0, "lower": 0}
    # a search and a sweep cell, whose c_ratio is one more ratio
    max_stable_dimension("spline", s, d=2)
    scaling_table("spline", "jittered", [30.0], d=2, seed=7)
    assert calls["lower"] >= 2 and calls["gram"] == calls["lower"]


@pytest.mark.parametrize("family", ["trig", "legendre"])
@pytest.mark.parametrize("s", [generate(plan_scheme("log", 40.0, seed=1)), INTEGER_GRID],
                         ids=["log", "integers"])
def test_real_table_is_the_design_up_to_diagonal_phases(family, s):
    # A = diag(e^{-i pi w}) B D, D = I for trig and diag((-i)^j) for
    # Legendre, at negative frequencies and where w_n = j for trig
    m = 10
    a = solver.design_matrix(build_basis(family_space(family, m)), s)
    turn = 1.0 if family == "trig" else (-1j) ** np.arange(m + 1)
    if family == "trig":
        b = fourier._trig_factors(s.points, np.arange(-m, m + 1))[1]
    else:
        b = fourier._real_order_factors(s.points, np.ones(1), m + 1)[:, 0, :]
    assert b.dtype == float
    assert np.max(np.abs(np.exp(-1j * np.pi * s.points)[:, None] * b * turn - a)) <= 1e-14


@pytest.mark.parametrize("family, d, potrf", [("trig", 0, "dpotrf"), ("legendre", 0, "dpotrf"),
                                              ("spline", 2, "zpotrf")])
def test_probes_factor_in_the_pencil_dtype(monkeypatch, family, d, potrf):
    # trig and Legendre pencils are real: no complex design, zherk or
    # zpotrf, and no dense identity; spline pencils stay complex
    calls = []
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def counted(name, func):
        def call(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return call

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda names, arrays: [
        counted(f.typecode + name, f) for name, f in zip(names, get_lapack_funcs(names, arrays))])
    for module, name in ((scipy.linalg.blas, "zherk"), (scipy.linalg.lapack, "zpotrf"),
                         (solver, "design_matrix"), (np, "eye")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    [row] = scaling_table(family, "log", [20.0], d=d, seed=3)
    assert row.m > 1
    assert set(calls) == {potrf}


@pytest.mark.parametrize("kind", ["jittered", "log"])
@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 1),
                                       ("spline", 3)])
def test_search_evaluates_exactly_at_one_and_the_result(monkeypatch, kind, family, d):
    # every other probe is a Cholesky test; with no probe in the band the
    # only SVDs or eigensolves are those of ratio(1) and of the row's c_ratio
    sizes = []
    svd, eigh = np.linalg.svd, scipy.linalg.eigh

    def counted_svd(a, *args, **kwargs):
        sizes.append(a.shape[1])
        return svd(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    [row] = scaling_table(family, kind, [40.0], d=d, seed=2)
    assert row.m > 2
    assert sizes == [spaces.dimension(family_space(family, m, d)) for m in (1, row.m)]


def test_bandwidth_too_small_raises():
    s = generate(SchemeSpec("uniform", 4, 0.05))
    with pytest.raises(BandwidthTooSmallError, match="bandwidth too small"):
        max_stable_dimension("trig", s, 1.0001)


def test_hint_does_not_change_result():
    s = generate(SchemeSpec("jittered", 80, 30.0, theta=0.2, seed=9))
    base = max_stable_dimension("legendre", s, 3.0)
    for hint in (1, 3, base, base + 4, 60):
        ev = _StabilityEvaluator("legendre", s, 0)
        assert experiments._search_max(ev, 3.0, hint) == base


@pytest.mark.parametrize("kind, k, seed", [("jittered", 40.0, 3), ("log", 30.0, 5)])
@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 1),
                                       ("spline", 2), ("spline", 3)])
def test_search_start_does_not_change_selection(kind, k, seed, family, d):
    s = generate(plan_scheme(kind, k, seed=seed))
    m = max_stable_dimension(family, s, 3.0, d=d)
    cap = _StabilityEvaluator(family, s, d).cap
    assert m < cap
    for hint in (None, 1, 3, m, m + 1, m + 4, cap):
        assert experiments._search_max(_StabilityEvaluator(family, s, d), 3.0, hint) == m
    ev = _StabilityEvaluator(family, s, d)
    assert ev.ratio(m) <= 3.0 < ev.ratio(m + 1)


def test_failing_default_start_bounds_the_bisection():
    # spline d = 6 holds about 0.5 K cells, so the start at K = 60 fails
    s = generate(plan_scheme("jittered", 60.0, seed=21))
    assert not _StabilityEvaluator("spline", s, 6).passes(60, 3.0)
    assert max_stable_dimension("spline", s, 3.0, d=6) == 31
    for hint in (1, 3, 31, 32, 35, 60):
        assert experiments._search_max(_StabilityEvaluator("spline", s, 6), 3.0, hint) == 31


@pytest.mark.parametrize("family, d, m, probes", [("trig", 0, 99, 8), ("legendre", 0, 35, 7),
                                                  ("spline", 1, 194, 9), ("spline", 2, 150, 8),
                                                  ("spline", 3, 110, 9)])
def test_search_without_hint_starts_at_the_bandwidth_law(family, d, m, probes, monkeypatch):
    # a search doubling from index 1 makes 13, 11, 15, 15 and 13 probes here
    calls = []
    passes = _StabilityEvaluator.passes

    def counted(self, index, threshold):
        calls.append(index)
        return passes(self, index, threshold)

    monkeypatch.setattr(_StabilityEvaluator, "passes", counted)
    s = generate(plan_scheme("jittered", 100.0, seed=21))
    assert max_stable_dimension(family, s, 3.0, d=d) == m
    assert len(calls) == probes
    assert calls[0] == (10 if family == "legendre" else 100)


def test_plan_scheme_density_targets():
    for kind in ("uniform", "jittered", "log"):
        spec = plan_scheme(kind, 18.0, delta_max=0.9, seed=2)
        s = generate(spec)
        assert density(s) <= 0.9 + 1e-12
    # log counts grow beyond the fixed formula to actually meet the target
    assert plan_scheme("log", 18.0).n > plan_scheme("jittered", 18.0).n


@pytest.mark.parametrize("kind", ["uniform", "jittered", "log"])
@pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf")])
def test_plan_scheme_rejects_bad_bandwidth(kind, k):
    with pytest.raises(ValueError, match="k must be finite and positive"):
        plan_scheme(kind, k)


@pytest.mark.parametrize("kind", ["uniform", "jittered", "log"])
@pytest.mark.parametrize("delta_max", [0.0, -1.0, float("nan"), float("inf")])
def test_plan_scheme_rejects_bad_density(kind, delta_max):
    with pytest.raises(ValueError, match="delta_max must be finite and positive"):
        plan_scheme(kind, 10.0, delta_max=delta_max)


@pytest.mark.parametrize("kind", ["uniform", "jittered", "log"])
@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_plan_scheme_rejects_bad_seed_before_any_point_set(monkeypatch, kind, seed):
    # a density this small is never reached, so a late check would raise
    # "could not reach density" after 64 ever larger log sets
    def refuse(*args):
        raise AssertionError("built points before checking the seed")

    monkeypatch.setattr(sampling, "_log_points", refuse)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        plan_scheme(kind, 10.0, delta_max=1e-3, seed=seed)


@pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
def test_search_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be positive"):
        max_stable_dimension("trig", INTEGER_GRID, threshold)
    with pytest.raises(ValueError, match="threshold must be positive"):
        scaling_table("trig", "jittered", [10.0], threshold=threshold)


@pytest.mark.parametrize("threshold", [0.5, 0.999])
def test_search_rejects_unreachable_threshold(threshold):
    # (1 + delta) / sqrt(lower) >= 1 because lower <= (1 + delta)^2
    with pytest.raises(ValueError, match="threshold must be positive and at least 1"):
        max_stable_dimension("trig", INTEGER_GRID, threshold)
    with pytest.raises(ValueError, match="threshold must be positive and at least 1"):
        scaling_table("trig", "jittered", [10.0], threshold=threshold)


def test_search_threshold_one_passes_the_check():
    # 1 is reachable only at delta = 0 with lower = 1: the data, not the
    # argument, decides
    with pytest.raises(BandwidthTooSmallError):
        max_stable_dimension("trig", INTEGER_GRID, 1.0)


def test_trig_search_memory_stays_per_probe():
    # the probes' designs are N x (2m+1); a design for the count cap
    # (N x N, 16.6 MB at N = 1020) would alone exceed the bound
    s = generate(plan_scheme("log", 60.0, seed=7))
    assert len(s) == 1020
    tracemalloc.start()
    try:
        m = max_stable_dimension("trig", s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 60
    assert peak < 16 * 2**20


@pytest.mark.parametrize("args, name", [
    ((0.0, 10.0, 3), "kmin"), ((5.0, float("inf"), 3), "kmax"),
    ((5.0, 10.0, 0), "kcount"), ((5.0, 10.0, 2.0), "kcount"),
])
def test_default_k_grid_rejects_bad_arguments(args, name):
    with pytest.raises(ValueError, match=name):
        default_k_grid(*args)


@pytest.mark.parametrize("jobs", [0, -1, 1.5])
@pytest.mark.parametrize("sweep", [
    lambda jobs, out: scaling_table("trig", "jittered", [5.0], jobs=jobs),
    lambda jobs, out: error_curve(FunctionSpec.benchmark(), "trig", "jittered", [5.0], jobs=jobs),
    lambda jobs, out: run_figure_panels(out, k_grid=[5.0], jobs=jobs),
], ids=["scaling_table", "error_curve", "run_figure_panels"])
def test_sweeps_reject_bad_jobs(tmp_path, sweep, jobs):
    with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}"):
        sweep(jobs, tmp_path)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("sweep", [
    lambda out: scaling_table("trig", "jittered", []),
    lambda out: error_curve(FunctionSpec.benchmark(), "trig", "jittered", []),
    lambda out: run_figure_panels(out, k_grid=[]),
], ids=["scaling_table", "error_curve", "run_figure_panels"])
def test_sweeps_reject_an_empty_bandwidth_grid(tmp_path, sweep):
    with pytest.raises(ValueError, match="k_grid must hold at least one bandwidth"):
        sweep(tmp_path / "out")
    assert not list(tmp_path.iterdir())


def test_spline_scaling_needs_positive_degree():
    with pytest.raises(ValueError, match="d >= 1, got d=0"):
        scaling_table("spline", "jittered", [10.0], d=0)


@pytest.mark.parametrize("d", [-1, 2.5, True, "1"])
@pytest.mark.parametrize("call", [
    lambda d: max_stable_dimension("spline", generate(plan_scheme("jittered", 10.0)), d=d),
    lambda d: scaling_table("spline", "jittered", [10.0], d=d),
    lambda d: error_curve(FunctionSpec.benchmark(), "spline", "jittered", [10.0], d=d),
], ids=["max_stable_dimension", "scaling_table", "error_curve"])
def test_searches_reject_a_bad_degree_before_any_probe(monkeypatch, call, d):
    def refuse(*args):
        raise AssertionError("probed before checking d")

    monkeypatch.setattr(_StabilityEvaluator, "passes", refuse)
    monkeypatch.setattr(_StabilityEvaluator, "ratio", refuse)
    with pytest.raises(ValueError, match="d must be an integer >= 0"):
        call(d)


def test_family_space_construction():
    assert family_space("trig", 4) == SpaceSpec.trig(4)
    assert family_space("legendre", 4) == SpaceSpec.legendre(4)
    assert family_space("spline", 9, d=2) == SpaceSpec.spline(2, 9)
    with pytest.raises(ValueError):
        family_space("wavelet", 3)


def test_scaling_rows_flat_ratio_small_grid():
    ks = default_k_grid(8, 60, 5)
    rows = scaling_table("trig", "jittered", ks, seed=1)
    assert [r.k for r in rows] == list(ks)
    ratios = np.array([r.ratio for r in rows])
    assert ratios.std() / ratios.mean() <= 0.25
    assert all(r.c_ratio <= 3.0 for r in rows)
    # selection scales linearly: double bandwidth, double dimension
    ms = np.array([r.m for r in rows])
    slope = np.polyfit(np.log(ks), np.log(ms), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_scaling_deterministic_given_seed():
    ks = [10.0, 20.0]
    a = scaling_table("legendre", "jittered", ks, seed=7)
    b = scaling_table("legendre", "jittered", ks, seed=7)
    assert a == b
    c = scaling_table("legendre", "jittered", ks, seed=8)
    assert any(ra != rc for ra, rc in zip(a, c))


@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 2)])
def test_scaling_parallel_matches_serial(family, d):
    # serial cells start their search from the previous result, parallel
    # ones from scratch: c_ratio must not depend on the probes before it
    ks = [8.0, 16.0, 32.0]
    serial = scaling_table(family, "jittered", ks, d=d, seed=3, jobs=1)
    parallel = scaling_table(family, "jittered", ks, d=d, seed=3, jobs=2)
    assert serial == parallel
    f = FunctionSpec.benchmark()
    serial = error_curve(f, family, "jittered", ks, d=d, seed=3, jobs=1)
    parallel = error_curve(f, family, "jittered", ks, d=d, seed=3, jobs=2)
    assert serial == parallel


def test_error_curve_exact_for_member_function():
    f = FunctionSpec.from_coefficients(
        SpaceSpec.trig(5), np.r_[np.ones(5), 2.0, np.ones(5)] / np.sqrt(11 + 3))
    rows = error_curve(f, "trig", "jittered", [12.0, 20.0], seed=2)
    assert all(r.error <= 1e-8 for r in rows)


def test_error_curve_decreases_for_smooth_function():
    f = FunctionSpec.benchmark()
    rows = error_curve(f, "legendre", "jittered", [6.0, 25.0, 80.0], seed=1)
    errs = [r.error for r in rows]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-4


def test_jump_function_piecewise_beats_trig_plateau():
    # a step at 1/2: knot-aligned piecewise space converges immediately,
    # exponentials stall at the Gibbs plateau
    step = FunctionSpec.from_coefficients(SpaceSpec.piecewise_const(2), [0.5, 1.25])
    ks = [12.0, 30.0]
    trig_rows = error_curve(step, "trig", "jittered", ks, seed=4)
    assert all(r.error >= 0.01 for r in trig_rows)
    pp = SpaceSpec.piecewise_poly([0.5], [2, 2])
    basis = build_basis(pp)
    for k in ks:
        s = generate(plan_scheme("jittered", k, seed=4))
        rec = solver.reconstruct(basis, fourier.sample_function(step, s))
        assert fourier.l2_error(step, rec.coefficients, basis) <= 1e-8


def test_spline_ratio_flat_per_degree():
    ks = default_k_grid(8, 80, 5)
    for d in (1, 2, 3):
        rows = scaling_table("spline", "jittered", ks, d=d, seed=1)
        ratios = np.array([r.ratio for r in rows])
        assert ratios.std() / ratios.mean() <= 0.3


@pytest.mark.xfail(strict=True, reason="the frame-constant selection rule makes "
                   "the scaled cell-count ratio grow with the degree; the pooled "
                   "spread across d is ~0.5, not the claimed 0.3")
def test_spline_ratio_approximately_d_independent():
    ks = default_k_grid(8, 80, 5)
    pooled = []
    for d in (1, 2, 3):
        rows = scaling_table("spline", "jittered", ks, d=d, seed=1)
        pooled += [r.ratio for r in rows]
    pooled = np.array(pooled)
    assert pooled.std() / pooled.mean() <= 0.3


def test_error_curve_noise_bounded_decrease():
    # for a fixed seed the curve is nonincreasing up to a 2x jitter allowance
    f = FunctionSpec.benchmark()
    rows = error_curve(f, "legendre", "jittered", default_k_grid(6, 60, 5), seed=2)
    errs = [r.error for r in rows]
    assert all(b <= 2 * a for a, b in zip(errs, errs[1:]))


def test_csv_writers(tmp_path):
    rows = [ScalingRow("legendre", 10.0, 27, 9, 2.846, 2.5)]
    write_scaling_csv(tmp_path / "s.csv", rows)
    assert (tmp_path / "s.csv").read_text() == "k,n,m,ratio,c_ratio\n10.0,27,9,2.846,2.5\n"
    write_scaling_csv(tmp_path / "sf.csv", rows, with_family=True)
    assert (tmp_path / "sf.csv").read_text().splitlines()[0] == "family,k,n,m,ratio,c_ratio"
    erows = [ErrorRow("trig", 10.0, 27, 9, 1.5e-3)]
    write_error_csv(tmp_path / "e.csv", erows)
    assert (tmp_path / "e.csv").read_text() == "family,k,n,m,error\ntrig,10.0,27,9,0.0015\n"


def test_figure_panels_write_files(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_SPLINE_DEGREES", (1,))
    paths = run_figure_panels(tmp_path, seed=1, k_grid=[6.0, 12.0], jobs=1)
    assert len(paths) == 8
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()
    text = (tmp_path / "scaling_jittered.csv").read_text()
    assert text.splitlines()[0] == "family,k,n,m,ratio,c_ratio"
    assert "spline_d1" in text


@pytest.mark.parametrize("option, message", [
    ({"jobs": 0}, "jobs"), ({"threshold": 0.5}, "threshold"), ({"delta_max": -1.0}, "delta_max"),
    ({"k_grid": [6.0, np.nan]}, "k must be"),
], ids=["jobs", "threshold", "delta_max", "grid"])
def test_figure_panels_check_options_before_making_the_directory(tmp_path, option, message):
    with pytest.raises(ValueError, match=message):
        run_figure_panels(tmp_path / "out", seed=1, **{"k_grid": [6.0], **option})
    assert not (tmp_path / "out").exists()


def test_figure_panels_search_once_per_bandwidth(tmp_path, monkeypatch):
    calls = []

    def counted(ev, threshold, hint=None):
        calls.append((hint, search(ev, threshold, hint)))
        return calls[-1][1]

    search = experiments._search_max
    monkeypatch.setattr(experiments, "_search_max", counted)
    monkeypatch.setattr(experiments, "_SPLINE_DEGREES", (1,))
    run_figure_panels(tmp_path, seed=1, k_grid=[6.0, 12.0])
    # 2 schemes x 3 families x 2 bandwidths, each searched once; the second
    # bandwidth's search starts from the first one's selection
    assert len(calls) == 12
    assert all(calls[i][0] is None and calls[i + 1][0] == calls[i][1]
               for i in range(0, 12, 2))
    for kind in ("jittered", "log"):
        scaling = [line.split(",")[:4] for line in
                   (tmp_path / f"scaling_{kind}.csv").read_text().splitlines()]
        error = [line.split(",")[:4] for line in
                 (tmp_path / f"error_{kind}.csv").read_text().splitlines()]
        # family, k, n, m: the error rows reuse each bandwidth's selection
        assert error == scaling


def test_error_curve_accepts_spline_degree_zero():
    rows = error_curve(FunctionSpec.benchmark(), "spline", "jittered", [8.0], d=0, seed=1)
    assert len(rows) == 1 and rows[0].m >= 1 and np.isfinite(rows[0].error)


def test_csv_writer_bytes(tmp_path):
    # numpy scalars are written like Python numbers
    rows = [ScalingRow("legendre", 10.0, 27, 9, 2.846, 2.5),
            ScalingRow("spline_d1", np.float64(1e16), np.int64(3), 2, np.float64(0.1) * 3, 1e-7)]
    erows = [ErrorRow("trig", 10.0, 27, 9, 1.5e-3),
             ErrorRow("spline_d2", 6, 5, 1, np.float64(2) / 3)]
    write_scaling_csv(tmp_path / "s.csv", rows)
    write_scaling_csv(tmp_path / "sf.csv", rows, with_family=True)
    write_error_csv(tmp_path / "e.csv", erows)
    assert (tmp_path / "s.csv").read_bytes() == (
        b"k,n,m,ratio,c_ratio\n10.0,27,9,2.846,2.5\n1e+16,3,2,0.30000000000000004,1e-07\n")
    assert (tmp_path / "sf.csv").read_bytes() == (
        b"family,k,n,m,ratio,c_ratio\nlegendre,10.0,27,9,2.846,2.5\n"
        b"spline_d1,1e+16,3,2,0.30000000000000004,1e-07\n")
    assert (tmp_path / "e.csv").read_bytes() == (
        b"family,k,n,m,error\ntrig,10.0,27,9,0.0015\nspline_d2,6.0,5,1,0.6666666666666666\n")


@pytest.mark.parametrize("sweep, rounds", [
    (lambda out: scaling_table("trig", "jittered"), 1),
    (lambda out: error_curve(FunctionSpec.benchmark(), "legendre", "log"), 1),
    (lambda out: run_figure_panels(out), 10),
], ids=["scaling_table", "error_curve", "run_figure_panels"])
def test_sweep_without_grid_visits_the_default_grid(tmp_path, monkeypatch, sweep, rounds):
    visited = []

    def cell(f, family, kind, d, threshold, delta_max, theta, seed, k, hint=None):
        # the search and the error row are not run: only the arguments count
        visited.append((k, threshold, delta_max))
        return (ScalingRow(family, k, 10, 1, 0.5, 1.5),
                ErrorRow(family, k, 10, 1, 1e-3) if f is not None else None)

    monkeypatch.setattr(experiments, "_cell", cell)
    sweep(tmp_path)
    want = [(k, experiments._THRESHOLD, experiments._DELTA_MAX)
            for k in default_k_grid().tolist()]
    assert visited == want * rounds
