import json

import numpy as np
import pytest

from nugs.sampling import SampleSet, SchemeSpec, density, generate, weights


def test_uniform_midpoint_grid():
    s = generate(SchemeSpec("uniform", 4, 2.0))
    assert np.allclose(s.points, [-1.5, -0.5, 0.5, 1.5])
    assert density(s) == pytest.approx(1.0)
    assert np.allclose(weights(s), [1.0, 1.0, 1.0, 1.0])


def test_zero_jitter_degenerates_to_uniform():
    u = generate(SchemeSpec("uniform", 9, 3.0))
    j = generate(SchemeSpec("jittered", 9, 3.0, theta=0.0, seed=5))
    assert np.array_equal(u.points, j.points)


def test_log_points_match_scripted_progression():
    # independent oracle: m = N/2 magnitudes from K/N to K, ratio N**(2/(N-2))
    n, k = 6, 8.0
    rho = n ** (2.0 / (n - 2))
    side = [k / n * rho**j for j in range(n // 2)]
    expected = sorted([-v for v in side] + side)
    s = generate(SchemeSpec("log", n, k))
    assert np.allclose(s.points, expected, rtol=1e-14)
    assert s.points[-1] == k
    assert np.allclose(s.points, -s.points[::-1])


def test_log_larger_case_and_weight_total():
    s = generate(SchemeSpec("log", 40, 25.0))
    assert len(s) == 40
    assert np.allclose(s.points, -s.points[::-1])
    assert np.sum(weights(s)) == pytest.approx(50.0, rel=1e-14)


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        SchemeSpec("uniform", 1, 2.0)
    with pytest.raises(ValueError):
        SchemeSpec("uniform", 4, 0.0)
    with pytest.raises(ValueError):
        SchemeSpec("jittered", 4, 2.0, theta=1.0)
    with pytest.raises(ValueError):
        SchemeSpec("log", 5, 2.0)  # odd count cannot be mirrored
    with pytest.raises(ValueError):
        SchemeSpec("weird", 4, 2.0)


@pytest.mark.parametrize("n, k, match", [
    (2.5, 3.0, "n must be an integer"),
    (4.0, 3.0, "n must be an integer"),
    (True, 3.0, "n must be an integer"),
    (1, 3.0, "n must be an integer >= 2"),
    (-1, 3.0, "n must be an integer >= 2"),
    (4, float("nan"), "k must be finite and positive"),
    (4, float("inf"), "k must be finite and positive"),
    (4, -2.0, "k must be finite and positive"),
    (1, float("nan"), "k must be finite and positive"),  # k is checked first
])
def test_scheme_spec_rejects_bad_count_or_bandwidth(n, k, match):
    for kind in ("uniform", "jittered", "log"):
        with pytest.raises(ValueError, match=match):
            SchemeSpec(kind, n, k)


@pytest.mark.parametrize("theta", [None, "0.2"])
def test_scheme_spec_rejects_a_theta_that_is_not_a_number(theta):
    with pytest.raises(ValueError, match=f"theta: jitter fraction must lie in \\[0, 1\\), "
                                         f"got {theta!r}"):
        SchemeSpec("jittered", 4, 2.0, theta=theta)


def test_scheme_spec_accepts_numpy_scalars():
    s = generate(SchemeSpec("uniform", np.int64(4), np.float64(2.0)))
    assert np.allclose(s.points, [-1.5, -0.5, 0.5, 1.5])


def test_density_hand_cases():
    s = SampleSet(points=np.array([-1.0, 1.0]), bandwidth=2.0)
    assert density(s) == pytest.approx(2.0)
    s = SampleSet(points=np.array([0.0]), bandwidth=1.0)
    assert density(s) == pytest.approx(2.0)


def test_weights_hand_case():
    s = SampleSet(points=np.array([-1.0, 0.0, 2.0]), bandwidth=3.0)
    assert np.allclose(weights(s), [2.0, 1.5, 2.5])
    assert np.sum(weights(s)) == pytest.approx(6.0)
    s1 = SampleSet(points=np.array([0.0]), bandwidth=1.0)
    assert np.allclose(weights(s1), [2.0])


def test_weight_telescoping_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        k = float(rng.uniform(0.5, 50.0))
        pts = np.sort(rng.uniform(-k, k, size=n))
        pts = np.unique(pts)
        s = SampleSet(points=pts, bandwidth=k)
        mu = weights(s)
        assert np.all(mu > 0)
        assert abs(np.sum(mu) - 2 * k) <= 1e-12 * 2 * k


def test_uniform_density_formula():
    for n in (2, 5, 16, 61):
        for k in (0.5, 3.0, 120.0):
            s = generate(SchemeSpec("uniform", n, k))
            assert density(s) == pytest.approx(2 * k / n, rel=1e-14)


def test_density_invariant_under_negation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pts = np.sort(rng.uniform(-9, 9, size=12))
        s = SampleSet(points=pts, bandwidth=9.0)
        neg = SampleSet(points=np.sort(-pts), bandwidth=9.0)
        assert density(s) == pytest.approx(density(neg), rel=1e-14)


def test_jittered_strictly_increasing():
    for seed in range(25):
        s = generate(SchemeSpec("jittered", 30, 11.0, theta=0.97, seed=seed))
        assert np.all(np.diff(s.points) > 0)
        assert density(s) <= (1 + 2 * 0.97) * 2 * 11.0 / 30 + 1e-12


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(points=np.array([0.0, 0.0]), bandwidth=1.0)
    with pytest.raises(ValueError):
        SampleSet(points=np.array([2.0]), bandwidth=1.0)
    with pytest.raises(ValueError):
        SampleSet(points=np.array([0.0]), bandwidth=-1.0)


@pytest.mark.parametrize("bad", ["30", [30], "abc", np.inf, True])
def test_sample_set_rejects_bad_bandwidth_with_name(bad):
    with pytest.raises(ValueError, match="bandwidth"):
        SampleSet(points=np.array([0.0, 1.0]), bandwidth=bad)


def test_scheme_json_round_trip():
    spec = SchemeSpec("jittered", 10, 5.0, theta=0.4, seed=9)
    assert SchemeSpec.from_json(spec.to_json()) == spec


def test_log_scheme_at_two_points_is_the_band_edges():
    s = generate(SchemeSpec("log", 2, 7.5))
    assert np.array_equal(s.points, [-7.5, 7.5])
    assert weights(s).sum() == pytest.approx(15.0, abs=1e-15)


def test_sample_set_bandwidth_defaults_to_largest_magnitude():
    assert SampleSet(points=[-2.5, 0.5, 1.0]).bandwidth == 2.5
    with pytest.raises(ValueError, match="bandwidth must be finite and positive, got 0.0"):
        SampleSet(points=[0.0])


@pytest.mark.parametrize("change, message", [
    ({"n": 4.5}, "n must be an integer >= 2, got 4.5"),
    ({"k": "5"}, "k must be finite and positive, got '5'"),
])
def test_scheme_from_json_checks_counts_and_bandwidth(change, message):
    d = json.loads(SchemeSpec("uniform", 4, 5.0).to_json())
    with pytest.raises(ValueError, match=message):
        SchemeSpec.from_json(json.dumps({**d, **change}))


@pytest.mark.parametrize("key", ["kind", "n", "k"])
def test_scheme_from_json_names_the_missing_key(key):
    d = json.loads(SchemeSpec("uniform", 4, 5.0).to_json())
    del d[key]
    with pytest.raises(ValueError, match=f"expected a JSON object with the key '{key}'"):
        SchemeSpec.from_json(json.dumps(d))


@pytest.mark.parametrize("change, message", [
    ({"seed": 4.5}, "seed must be an integer >= 0, got 4.5"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": "4"}, "seed must be an integer >= 0, got '4'"),
    ({"theta": "0.3"}, "theta must be a number, got '0.3'"),
    ({"theta": None}, "theta must be a number, got None"),
    ({"theta": False}, "theta must be a number, got False"),
])
def test_scheme_from_json_checks_theta_and_seed(change, message):
    d = json.loads(SchemeSpec("jittered", 4, 5.0, theta=0.2, seed=3).to_json())
    with pytest.raises(ValueError, match=message):
        SchemeSpec.from_json(json.dumps({**d, **change}))


@pytest.mark.parametrize("seed", [-1, 2.0, True, None])
def test_scheme_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        SchemeSpec("jittered", 4, 5.0, theta=0.2, seed=seed)
