import numpy as np
import pytest

from nugs.errors import UnstableReconstructionError
from nugs.estimator import NonuniformFourierRegressor, parse_space
from nugs.fourier import basis_transform
from nugs.sampling import SampleSet, SchemeSpec, generate, weights
from nugs.spaces import SpaceSpec, build_basis, evaluate


def make_problem(spec=SpaceSpec.trig(4), k=9.0, n=40, seed=0):
    basis = build_basis(spec)
    s = generate(SchemeSpec("jittered", n, k, theta=0.3, seed=seed))
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    y = basis_transform(basis, s.points) @ coef
    return s.points, y, coef, basis


def test_parse_space_forms():
    assert parse_space("trig:8") == SpaceSpec.trig(8)
    assert parse_space("legendre:3") == SpaceSpec.legendre(3)
    assert parse_space("piecewise_const:16") == SpaceSpec.piecewise_const(16)
    assert parse_space("spline:3:8") == SpaceSpec.spline(3, 8)
    assert parse_space("piecewise_poly:0.3,0.7:3,3,3") == SpaceSpec.piecewise_poly(
        [0.3, 0.7], [3, 3, 3])
    for bad in ("trig", "spline:3", "legendre:x", "nope:1"):
        with pytest.raises(ValueError):
            parse_space(bad)


def test_fit_predict_round_trip():
    x, y, coef, basis = make_problem()
    est = NonuniformFourierRegressor(space="trig:4", bandwidth=9.0)
    est.fit(x, y)
    assert np.linalg.norm(est.coef_ - coef) / np.linalg.norm(coef) < 1e-9
    grid = np.linspace(0, 1, 33, endpoint=False)
    truth = coef @ evaluate(basis, grid)
    assert np.allclose(est.predict(grid), truth, atol=1e-8)


def test_fit_accepts_column_vector_and_unsorted_input():
    x, y, coef, _ = make_problem()
    perm = np.random.default_rng(1).permutation(len(x))
    est = NonuniformFourierRegressor(space="trig:4", bandwidth=9.0)
    est.fit(x[perm].reshape(-1, 1), y[perm])
    assert np.linalg.norm(est.coef_ - coef) / np.linalg.norm(coef) < 1e-9


def test_bandwidth_defaults_to_largest_frequency():
    x, y, _, _ = make_problem()
    est = NonuniformFourierRegressor(space="trig:4").fit(x, y)
    assert est.density_ > 0


def test_diagnostics_exposed():
    x, y, _, _ = make_problem()
    est = NonuniformFourierRegressor(space="trig:4", bandwidth=9.0).fit(x, y)
    assert est.sigma_min_ > 0
    assert est.stability_ratio_ == pytest.approx(
        (1 + est.density_) / est.sigma_min_)
    assert est.residual_ < 1e-9
    assert est.score(x, y) == pytest.approx(1.0, abs=1e-12)


def test_get_set_params_sklearn_contract():
    est = NonuniformFourierRegressor(space="legendre:5", bandwidth=3.0)
    params = est.get_params()
    assert params == {"space": "legendre:5", "bandwidth": 3.0}
    clone = NonuniformFourierRegressor(**params)
    assert clone.get_params() == params
    est.set_params(space="trig:2")
    assert est.get_params()["space"] == "trig:2"
    with pytest.raises(ValueError):
        est.set_params(nonsense=1)


def test_space_accepts_spec_instance():
    x, y, coef, _ = make_problem()
    est = NonuniformFourierRegressor(space=SpaceSpec.trig(4), bandwidth=9.0).fit(x, y)
    assert np.linalg.norm(est.coef_ - coef) < 1e-8


@pytest.mark.parametrize("space", [123, None, ["trig", 3]], ids=["int", "none", "list"])
def test_space_of_another_type_fails_at_the_boundary(space):
    # neither a compact string nor a SpaceSpec: a ValueError naming space,
    # through the constructor and through set_params
    x, y, _, _ = make_problem()
    for est in (NonuniformFourierRegressor(space=space, bandwidth=9.0),
                NonuniformFourierRegressor(bandwidth=9.0).set_params(space=space)):
        with pytest.raises(ValueError, match="space must be a compact string .* or a SpaceSpec"):
            est.fit(x, y)
        assert not hasattr(est, "coef_")


def test_unfitted_predict_raises():
    est = NonuniformFourierRegressor()
    with pytest.raises(ValueError, match="not fitted"):
        est.predict([0.1])
    with pytest.raises(ValueError, match="not fitted"):
        est.score([0.0], [1.0])


def test_underdetermined_fit_raises():
    est = NonuniformFourierRegressor(space="trig:8", bandwidth=5.0)
    with pytest.raises(UnstableReconstructionError):
        est.fit(np.linspace(-4, 4, 9), np.zeros(9, dtype=complex))


def test_validation_errors():
    est = NonuniformFourierRegressor(space="trig:1", bandwidth=2.0)
    with pytest.raises(ValueError):
        est.fit([0.0, np.inf, 1.0], [0, 0, 0])
    with pytest.raises(ValueError):
        est.fit([0.0, 0.5], [1.0])
    est.fit(np.array([-1.5, -0.5, 0.5, 1.5]), np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        est.predict([1.5])
    with pytest.raises(ValueError, match="X.*y"):
        est.score([0.0, 1.0, 2.0], [1.0, 2.0])


def test_sample_weight_length_checked_before_use():
    x, y, _, _ = make_problem()
    est = NonuniformFourierRegressor(space="trig:4", bandwidth=9.0)
    with pytest.raises(ValueError, match="sample_weight"):
        est.fit(x, y, sample_weight=np.ones(len(x) + 3))


def test_frame_lower_scales_linearly_in_weights():
    x, y, _, _ = make_problem(SpaceSpec.legendre(3), k=10.0, n=30, seed=3)
    mu = weights(SampleSet(points=x, bandwidth=10.0))
    est = NonuniformFourierRegressor(space="legendre:3", bandwidth=10.0)
    c1 = est.fit(x, y, sample_weight=mu).frame_lower_
    assert est.fit(x, y, sample_weight=2 * mu).frame_lower_ == pytest.approx(2 * c1, rel=1e-12)


@pytest.mark.parametrize("bad", ["30", [30], "abc", np.inf, True])
def test_bad_bandwidth_rejected_with_name(bad):
    x, y, _, _ = make_problem()
    with pytest.raises(ValueError, match="bandwidth"):
        NonuniformFourierRegressor(space="trig:4", bandwidth=bad).fit(x, y)


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_bad_sample_weight_rejected_before_solve(bad):
    x, y, _, _ = make_problem()
    mu = np.full(len(x), 0.5)
    mu[10] = bad
    est = NonuniformFourierRegressor(space="trig:4", bandwidth=9.0)
    with pytest.raises(ValueError, match="sample_weight"):
        est.fit(x, y, sample_weight=mu)


def test_score_on_constant_targets_is_zero():
    # y has no variance about its mean, so the R^2-style ratio is undefined
    x, y, _, _ = make_problem()
    est = NonuniformFourierRegressor(space="trig:4", bandwidth=9.0).fit(x, y)
    assert est.score(x, np.full(x.size, 2.0 - 1.0j)) == 0.0


@pytest.mark.parametrize("X, message", [(np.zeros((4, 2)), "X must be 1-dimensional"),
                                        (np.zeros(0), "X must be non-empty")])
def test_fit_rejects_bad_frequency_shape(X, message):
    with pytest.raises(ValueError, match=message):
        NonuniformFourierRegressor("legendre:1", bandwidth=5.0).fit(X, np.ones(len(X)))


def test_fit_accepts_column_vector_values():
    x, y, _, _ = make_problem(SpaceSpec.legendre(3), k=8.0, seed=2)
    flat = NonuniformFourierRegressor("legendre:3").fit(x, y)
    column = NonuniformFourierRegressor("legendre:3").fit(x, y[:, None])
    assert np.array_equal(flat.coef_, column.coef_)


@pytest.mark.parametrize("X, bandwidth, message", [
    ([1.0, 1.0, 2.0, 3.0], 5, "X repeats the frequency 1.0"),
    ([-4.0, -1.0, 2.0, 4.0], 1, "X exceeds bandwidth 1.0: |w| = 4.0"),
], ids=["repeated", "beyond_bandwidth"])
def test_fit_sample_errors_name_x_and_bandwidth(X, bandwidth, message):
    est = NonuniformFourierRegressor("legendre:2", bandwidth=bandwidth)
    with pytest.raises(ValueError) as info:
        est.fit(X, np.ones(4, dtype=complex))
    assert str(info.value) == message
