"""Property tests of the sampling weights and the estimator, on derandomized
examples (the B-spline transform properties sit with their oracle in
test_fourier.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nugs.estimator import NonuniformFourierRegressor
from nugs.sampling import SampleSet, weights

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def sample_sets(draw):
    """Strictly increasing points anywhere in [-K, K]."""
    k = draw(st.floats(min_value=0.5, max_value=500.0))
    fractions = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1,
                              max_size=60, unique=True))
    return SampleSet(points=np.unique(np.asarray(fractions) * k), bandwidth=k)


@st.composite
def separated_sample_sets(draw):
    """At least 12 points in [-K, K], at least K/1000 apart."""
    k = draw(st.floats(min_value=2.0, max_value=200.0))
    ticks = draw(st.lists(st.integers(-1000, 1000), min_size=12, max_size=60, unique=True))
    return SampleSet(points=np.sort(ticks) * (k / 1000.0), bandwidth=k)


@PROPERTY
@given(sample_sets())
def test_midpoint_weights_sum_to_twice_the_bandwidth(s):
    assert np.sum(weights(s)) == pytest.approx(2.0 * s.bandwidth, rel=1e-12, abs=0)


@PROPERTY
@given(separated_sample_sets(), st.randoms(use_true_random=False), st.booleans())
def test_fit_does_not_depend_on_sample_order(s, rnd, weighted):
    x = s.points
    y = np.exp(-2j * np.pi * 0.3 * x) * np.sinc(x / (2.0 * s.bandwidth))
    mu = weights(s) if weighted else None
    order = list(range(x.size))
    rnd.shuffle(order)
    a = NonuniformFourierRegressor("spline:1:3", s.bandwidth).fit(x, y, mu)
    b = NonuniformFourierRegressor("spline:1:3", s.bandwidth).fit(
        x[order], y[order], None if mu is None else mu[order])
    assert np.array_equal(a.coef_, b.coef_)
    assert a.stability_ratio_ == b.stability_ratio_
