import numpy as np
import pytest
import scipy.linalg

from nugs.errors import BandwidthTooSmallError
from nugs.experiments import (ErrorRow, ScalingRow, _StabilityEvaluator, default_k_grid,
                              error_curve, family_space, max_stable_dimension, plan_scheme,
                              run_figure_panels, scaling_table, write_error_csv,
                              write_scaling_csv)
from nugs.fourier import FunctionSpec
from nugs.sampling import SampleSet, SchemeSpec, density, generate
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


def test_spline_eigensolver_failure_propagates(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    s = generate(SchemeSpec("jittered", 40, 15.0, theta=0.2, seed=5))
    with pytest.raises(scipy.linalg.LinAlgError, match="forced failure"):
        max_stable_dimension("spline", s, 3.0, d=2)


def test_bandwidth_too_small_raises():
    s = generate(SchemeSpec("uniform", 4, 0.05))
    with pytest.raises(BandwidthTooSmallError, match="bandwidth too small"):
        max_stable_dimension("trig", s, 1.0001)


def test_hint_does_not_change_result():
    s = generate(SchemeSpec("jittered", 80, 30.0, theta=0.2, seed=9))
    base = max_stable_dimension("legendre", s, 3.0)
    for hint in (1, 3, base, base + 4, 60):
        assert max_stable_dimension("legendre", s, 3.0, hint=hint) == base


def test_plan_scheme_density_targets():
    for kind in ("uniform", "jittered", "log"):
        spec = plan_scheme(kind, 18.0, delta_max=0.9, seed=2)
        s = generate(spec)
        assert density(s) <= 0.9 + 1e-12
    # log counts grow beyond the fixed formula to actually meet the target
    assert plan_scheme("log", 18.0).n > plan_scheme("jittered", 18.0).n


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


def test_scaling_parallel_matches_serial():
    ks = [8.0, 16.0, 32.0]
    serial = scaling_table("legendre", "jittered", ks, seed=3, jobs=1)
    parallel = scaling_table("legendre", "jittered", ks, seed=3, jobs=2)
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
    from nugs import fourier, solver

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
    assert (tmp_path / "e.csv").read_text() == "k,n,m,error\n10.0,27,9,0.0015\n"


def test_figure_panels_write_files(tmp_path):
    paths = run_figure_panels(tmp_path, seed=1, k_grid=[6.0, 12.0], jobs=1,
                              spline_degrees=(1,))
    assert len(paths) == 8
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()
    text = (tmp_path / "scaling_jittered.csv").read_text()
    assert text.splitlines()[0] == "family,k,n,m,ratio,c_ratio"
    assert "spline_d1" in text
