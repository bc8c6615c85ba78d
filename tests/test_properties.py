"""Property tests of the sampling weights, the estimator, exact
reconstruction, the stability search's probe decisions and real pencils,
and the JSON and CSV round-trips, on derandomized examples
(the B-spline transform properties sit with their oracle in
test_fourier.py)."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nugs.estimator import NonuniformFourierRegressor
from nugs.experiments import (PROBE_BAND, _StabilityEvaluator, family_space,
                              max_stable_dimension, plan_scheme)
from nugs.fourier import (FourierData, FunctionSpec, basis_transform, load_data_csv,
                          save_data_csv)
from nugs.sampling import SampleSet, SchemeSpec, generate, weights
from nugs.solver import Reconstruction, reconstruct, stability_constant
from nugs.spaces import SpaceSpec, build_basis, dimension

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


@st.composite
def small_spaces(draw):
    """One of the five space kinds, at most 25 dimensions, knots on a 1/8 grid."""
    kind = draw(st.sampled_from(["trig", "legendre", "piecewise_poly", "spline",
                                 "piecewise_const"]))
    if kind == "trig":
        return SpaceSpec.trig(draw(st.integers(0, 12)))
    if kind == "legendre":
        return SpaceSpec.legendre(draw(st.integers(0, 24)))
    if kind == "spline":
        d = draw(st.integers(0, 3))
        return SpaceSpec.spline(d, draw(st.integers(1, 24 - d)))
    if kind == "piecewise_const":
        return SpaceSpec.piecewise_const(draw(st.integers(1, 24)))
    knots = draw(st.lists(st.integers(1, 7), max_size=3, unique=True))
    degrees = draw(st.lists(st.integers(0, 3), min_size=len(knots) + 1,
                            max_size=len(knots) + 1))
    return SpaceSpec.piecewise_poly([j / 8 for j in sorted(knots)], degrees)


@PROPERTY
@given(small_spaces(), st.sampled_from(["uniform", "jittered", "log"]),
       st.floats(min_value=2.0, max_value=40.0), st.integers(0, 2**32 - 1))
def test_exact_data_reconstructs_at_stable_ratio(space, kind, k, seed):
    s = generate(plan_scheme(kind, k, seed=seed))
    basis = build_basis(space)
    assume(stability_constant(basis, s).ratio <= 3.0)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    a /= np.linalg.norm(a)
    rec = reconstruct(basis, FourierData(s, basis_transform(basis, s.points) @ a, weights(s)))
    # criterion 1's bound on the coefficient error of a unit vector
    assert np.linalg.norm(rec.coefficients - a) <= 1e-8


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 1),
                                       ("spline", 3)])
@PROPERTY
@given(st.sampled_from(["jittered", "log"]),
       st.floats(min_value=2.0, max_value=30.0), st.integers(0, 2**32 - 1), UNIT, UNIT,
       st.one_of(st.tuples(st.just("factor"), st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12])),
                 st.tuples(st.just("threshold"),
                           st.floats(min_value=1.0, max_value=10.0) | st.just(float("inf")))))
def test_probe_decision_matches_exact_ratio(family, d, kind, k, seed, frac, wider, thr):
    # a factor on ratio(m) puts the cut inside the band, where the decision
    # is the exact ratio's; a probe at an index above m first grows the trig
    # or Legendre Gram, so that m reads a block of it
    s = generate(plan_scheme(kind, k, seed=seed))
    exact = _StabilityEvaluator(family, s, d)
    ev = _StabilityEvaluator(family, s, d)
    m = 1 + int(frac * (exact.cap - 2))
    above = m + 1 + int(wider * (exact.cap - m - 1))
    mode, x = thr
    threshold = exact.ratio(m) * x if mode == "factor" else x
    assert ev.passes(above, threshold) == (exact.ratio(above) <= threshold)
    assert ev.passes(m, threshold) == (exact.ratio(m) <= threshold)
    if mode == "factor" and np.isfinite(threshold):
        assert m in ev._cache  # the exact ratio decided


def complex_design_lower(family, m, s):
    """The reference: lambda_min of the Hermitian weighted Gram that zherk
    builds from the scaled complex design."""
    b = basis_transform(build_basis(family_space(family, m)), s.points)
    w = scipy.linalg.blas.zherk(1.0, (b * np.sqrt(weights(s))[:, None]).T)
    return scipy.linalg.eigh(w, lower=False, eigvals_only=True, subset_by_index=(0, 0))[0]


@pytest.mark.parametrize("family", ["trig", "legendre"])
@pytest.mark.parametrize("kind", ["jittered", "log", "integers"])
@pytest.mark.parametrize("k", [6.0, 20.0, 45.0])
def test_real_pencil_matches_complex_design(family, kind, k):
    # on integer frequencies w_n = j entries and negative frequencies occur;
    # up to the searched m the pencils are nested, so lambda_min stays above
    # ((1 + delta)/3)^2 and a relative bound is meaningful
    if kind == "integers":
        s = SampleSet(points=np.arange(-k, k + 1), bandwidth=k + 0.5)
    else:
        s = generate(plan_scheme(kind, k, seed=int(k)))
    top = max_stable_dimension(family, s, 3.0)
    ev = _StabilityEvaluator(family, s)
    for m in sorted({1, 2, top // 3, 2 * top // 3, top} - {0}):
        assert ev._lower(m) == pytest.approx(complex_design_lower(family, m, s), rel=1e-14, abs=0)


@pytest.mark.parametrize("family, d", [("trig", 0), ("legendre", 0), ("spline", 1),
                                       ("spline", 2), ("spline", 3)])
@settings(PROPERTY, max_examples=20)  # about 4K pencils an example
@given(st.sampled_from(["jittered", "log"]), st.floats(min_value=2.0, max_value=25.0),
       st.integers(0, 2**32 - 1))
def test_lower_frame_constant_falls_on_nested_spaces(family, d, kind, k, seed):
    # the nesting that lets the stability search start anywhere: trig orders
    # and Legendre degrees grow by one basis function, and a spline space
    # holds the one-cell space (polynomials of degree <= d) and its own
    # refinement at twice the cells.  Checked up to index 4K, twice the
    # largest stable index of any family, and above the probe band, below
    # which lambda_min is rounding (1e-17 on log trig at K = 21.5, index 28)
    s = generate(plan_scheme(kind, k, seed=seed))
    ev = _StabilityEvaluator(family, s, d)
    top = min(ev.cap, 4 * math.ceil(k))
    lower = {m: ev._lower(m) for m in range(1, top + 1)}
    if family == "spline":
        pairs = [(1, l) for l in lower] + [(l, 2 * l) for l in lower if 2 * l in lower]
    else:
        pairs = [(m, m + 1) for m in lower if m + 1 in lower]
    floor = PROBE_BAND * (1 + ev.delta) ** 2
    for small, large in pairs:
        if lower[small] > floor:
            assert lower[large] <= lower[small] * (1 + 1e-12), (small, large)


@st.composite
def space_specs(draw):
    """One of the five space kinds, at most about 30 dimensions."""
    kind = draw(st.sampled_from(["trig", "legendre", "piecewise_poly", "spline",
                                 "piecewise_const"]))
    if kind == "trig":
        return SpaceSpec.trig(draw(st.integers(0, 12)))
    if kind == "legendre":
        return SpaceSpec.legendre(draw(st.integers(0, 24)))
    if kind == "spline":
        return SpaceSpec.spline(draw(st.integers(0, 4)), draw(st.integers(1, 20)))
    if kind == "piecewise_const":
        return SpaceSpec.piecewise_const(draw(st.integers(1, 24)))
    knots = sorted(set(draw(st.lists(UNIT, max_size=4))))
    assume(all(b - a > 1e-14 for a, b in zip(knots, knots[1:])))
    degrees = draw(st.lists(st.integers(0, 5), min_size=len(knots) + 1,
                            max_size=len(knots) + 1))
    return SpaceSpec.piecewise_poly(knots, degrees)


def coefficient_vectors(space):
    return st.lists(COMPLEX, min_size=dimension(space), max_size=dimension(space))


LEAVES = st.one_of(st.just(("x",)), st.tuples(st.just("const"), FINITE))
EXPRESSIONS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.tuples(st.sampled_from(["neg", "sin", "cos", "exp"]), sub),
    st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub),
    st.tuples(st.just("pow"), sub, st.integers(0, 4))), max_leaves=8)


@st.composite
def function_specs(draw):
    if draw(st.booleans()):
        jumps = sorted(draw(st.lists(UNIT, max_size=3)))
        return FunctionSpec.from_expr(draw(EXPRESSIONS), jumps)
    space = draw(space_specs())
    return FunctionSpec.from_coefficients(space, draw(coefficient_vectors(space)))


@st.composite
def scheme_specs(draw):
    kind = draw(st.sampled_from(["uniform", "jittered", "log"]))
    n = 2 * draw(st.integers(1, 5000))
    # an int bandwidth is written as a float and a numpy count as an int
    k = draw(st.one_of(st.floats(min_value=1e-6, max_value=1e6), st.integers(1, 10**6)))
    return SchemeSpec(kind=kind, n=draw(st.sampled_from([n, np.int64(n)])), k=k,
                      theta=draw(st.floats(min_value=0.0, max_value=0.99)),
                      seed=draw(st.integers(0, 2**63)))


@st.composite
def reconstructions(draw):
    space = draw(space_specs())
    return Reconstruction(space=space, coefficients=np.array(draw(coefficient_vectors(space))),
                          residual=draw(NONNEGATIVE), sigma_min=draw(NONNEGATIVE),
                          sigma_max=draw(NONNEGATIVE))


def assert_json_round_trip(obj):
    text = obj.to_json()
    assert type(obj).from_json(text).to_json() == text


@PROPERTY
@given(space_specs())
def test_space_spec_json_round_trip(space):
    assert_json_round_trip(space)


@PROPERTY
@given(scheme_specs())
def test_scheme_spec_json_round_trip(spec):
    assert_json_round_trip(spec)


@PROPERTY
@given(function_specs())
def test_function_spec_json_round_trip(f):
    assert_json_round_trip(f)


@PROPERTY
@given(reconstructions())
def test_reconstruction_json_round_trip(rec):
    assert_json_round_trip(rec)


@PROPERTY
@given(sample_sets(), st.data())
def test_data_csv_round_trip(tmp_path_factory, s, data):
    n = len(s.points)
    values = data.draw(st.lists(COMPLEX, min_size=n, max_size=n))
    mu = data.draw(st.lists(NONNEGATIVE, min_size=n, max_size=n))
    first = tmp_path_factory.mktemp("data") / "a.csv"
    save_data_csv(first, FourierData(samples=s, values=values, weights=mu))
    loaded, had_weights = load_data_csv(first, bandwidth=s.bandwidth)
    assert had_weights
    second = first.with_name("b.csv")
    save_data_csv(second, loaded)
    assert second.read_bytes() == first.read_bytes()
