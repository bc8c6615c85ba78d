"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
full run takes about 40 seconds on a 2-vCPU machine; the scaling and
error-curve sweeps dominate.

Criterion 5's middle clause (the sqrt(2) M^2 derivative-growth bound for
every M up to 20) is asserted exactly as stated and is expected to fail:
the sharp constant at M = 1 is 2 sqrt(3), already 2.45x above the claimed
bound, with M = 2, 3 also in violation (see the companion test asserting
the bound from M = 4 up, which passes).  The test is marked strict-xfail
so the defect stays visible without masking other regressions.
"""

import time

import numpy as np
import pytest
from scipy.special import sici

from nugs import analysis, experiments, fourier, sampling, solver, spaces
from nugs.fourier import FourierData, FunctionSpec
from nugs.sampling import SampleSet, SchemeSpec, density, generate, weights
from nugs.spaces import SpaceSpec


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}{' - ' + detail if detail else ''}",
          flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


KINDS_AND_BANDWIDTHS = [
    (SpaceSpec.trig(8), 14.0),
    (SpaceSpec.legendre(8), 30.0),
    (SpaceSpec.piecewise_poly([0.3, 0.7], [3, 3, 3]), 30.0),
    (SpaceSpec.spline(3, 8), 14.0),
    (SpaceSpec.piecewise_const(16), 40.0),
]


def test_criterion_1_exactness_oracle():
    t0 = time.time()
    worst = 0.0
    for spec, k in KINDS_AND_BANDWIDTHS:
        basis = spaces.build_basis(spec)
        n = int(np.ceil(2 * k * 1.4 / 0.85))
        for scheme in (SchemeSpec("uniform", n, k),
                       SchemeSpec("jittered", n, k, theta=0.4, seed=1)):
            s = generate(scheme)
            assert solver.stability_constant(basis, s).ratio <= 3.0
            rng = np.random.default_rng(17)
            for _ in range(5):
                a = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
                a /= np.linalg.norm(a)
                data = FourierData(s, fourier.basis_transform(basis, s.points) @ a,
                                   weights(s))
                rec = solver.reconstruct(basis, data)
                worst = max(worst, float(np.linalg.norm(rec.coefficients - a)))
    elapsed = time.time() - t0
    report(1, "exactness oracle", worst <= 1e-8 and elapsed <= 60,
           f"worst relative coefficient error {worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_quasi_optimality_bound():
    t0 = time.time()
    eps = 0.5
    test_functions = [
        FunctionSpec.benchmark(),
        FunctionSpec.from_expr(("mul", ("exp", ("x",)),
                                ("sin", ("mul", ("const", 2 * np.pi), ("x",))))),
        FunctionSpec.from_coefficients(SpaceSpec.piecewise_const(2), [0.5, 1.25]),
    ]
    cases = [
        (SpaceSpec.trig(4), [7.0, 9.0, 12.0]),
        (SpaceSpec.legendre(6), [8.0, 11.0, 15.0]),
        (SpaceSpec.piecewise_poly([0.4], [2, 3]), [8.0, 11.0, 15.0]),
        (SpaceSpec.spline(2, 4), [6.0, 9.0, 12.0]),
        (SpaceSpec.piecewise_const(6), [7.0, 10.0, 14.0]),
    ]
    triples = 0
    min_slack = np.inf
    for spec, ks in cases:
        basis = spaces.build_basis(spec)
        for k in ks:
            tail = analysis.residual(spec, k - 0.5)
            assert tail**2 <= eps * (2 - eps)
            for theta, kind in ((0.0, "uniform"), (0.2, "jittered")):
                n = int(np.ceil(2 * k * (1 + theta) * 1.02 / 0.38))
                s = generate(SchemeSpec(kind, n, k, theta=theta, seed=triples))
                delta = density(s)
                assert delta <= 0.4
                bound = (1 + delta) / (1 - eps - delta)
                for f in test_functions:
                    data = fourier.sample_function(f, s)
                    rec = solver.reconstruct(basis, data)
                    err = fourier.l2_error(f, rec.coefficients, basis)
                    best = fourier.l2_error(f, fourier.project(f, basis), basis)
                    min_slack = min(min_slack, bound * best - err)
            triples += 1
    elapsed = time.time() - t0
    # 5 spaces x 3 bandwidths = 15 base cases, doubled over the two schemes
    report(2, "quasi-optimality bound", triples == 15 and min_slack >= -1e-8
           and elapsed <= 300,
           f"30 scheme/space/bandwidth triples, min slack {min_slack:.2e}, {elapsed:.0f}s")


def test_criterion_3_gap_bound_suite():
    pairs = [
        (SpaceSpec.legendre(1), 2),       # hand-verified case
        (SpaceSpec.legendre(1), 8),
        (SpaceSpec.legendre(2), 8),
        (SpaceSpec.legendre(3), 16),
        (SpaceSpec.legendre(4), 32),
        (SpaceSpec.trig(1), 4),
        (SpaceSpec.trig(2), 8),
        (SpaceSpec.trig(3), 16),
        (SpaceSpec.trig(5), 64),
        (SpaceSpec.piecewise_const(2), 2),
        (SpaceSpec.piecewise_const(2), 8),
        (SpaceSpec.piecewise_const(4), 8),
        (SpaceSpec.piecewise_const(8), 64),
        (SpaceSpec.piecewise_poly([1 / 3], [2, 2]), 9),
        (SpaceSpec.piecewise_poly([0.5], [1, 1]), 4),
        (SpaceSpec.piecewise_poly([0.25, 0.5], [2, 1, 2]), 16),
        (SpaceSpec.spline(1, 2), 2),
        (SpaceSpec.spline(1, 4), 16),
        (SpaceSpec.spline(2, 4), 32),
        (SpaceSpec.spline(3, 5), 40),
    ]
    assert len(pairs) == 20
    min_slack = np.inf
    for spec, cells in pairs:
        rep = analysis.verify_gap_bound(spec, cells)
        assert rep.precondition_ok, (spec, cells)
        min_slack = min(min_slack, rep.bound - rep.gap)
    hand = analysis.verify_gap_bound(SpaceSpec.legendre(1), 2)
    hand_ok = (abs(hand.gap - 0.5) <= 1e-10
               and hand.bound == pytest.approx(0.5513, abs=1e-4))
    report(3, "gap bound suite", min_slack >= 0 and hand_ok,
           f"20 pairs, min slack {min_slack:.3f}, hand case gap {hand.gap:.12f}")


def test_criterion_4_triangle_bound_suite():
    rng = np.random.default_rng(29)
    min_slack = np.inf
    for _ in range(20):
        kind = rng.choice(["trig", "legendre", "spline", "piecewise_poly"])
        if kind == "trig":
            t = SpaceSpec.trig(int(rng.integers(1, 6)))
        elif kind == "legendre":
            t = SpaceSpec.legendre(int(rng.integers(0, 7)))
        elif kind == "spline":
            t = SpaceSpec.spline(int(rng.integers(1, 4)), int(rng.integers(2, 7)))
        else:
            t = SpaceSpec.piecewise_poly([float(rng.uniform(0.2, 0.8))],
                                         [int(rng.integers(0, 4)), int(rng.integers(0, 4))])
        cells = int(rng.integers(6, 48))
        z = float(rng.uniform(1.5, 24.0))
        rep = analysis.verify_triangle_bound(t, cells, z)
        min_slack = min(min_slack, rep.slack)
    report(4, "triangle bound suite", min_slack >= -1e-10,
           f"20 randomized triples, min slack {min_slack:.3e}")


def test_criterion_5_growth_constants_trig_and_sup():
    worst_trig = max(abs(spaces.derivative_growth(SpaceSpec.trig(m)) - 2 * np.pi * m)
                     / (2 * np.pi * m) for m in range(1, 17))
    worst_sup = max(abs(spaces.sup_growth(SpaceSpec.legendre(m)) - (m + 1)) / (m + 1)
                    for m in range(0, 21))
    report(5, "growth constants (exponential derivative, polynomial sup)",
           worst_trig <= 1e-8 and worst_sup <= 1e-8,
           f"worst relative errors {worst_trig:.2e} / {worst_sup:.2e}")


@pytest.mark.xfail(strict=True, reason="the sqrt(2) M^2 bound is provably violated "
                   "by the sharp constant for M in {1, 2, 3}; see module docstring")
def test_criterion_5_markov_bound_as_stated():
    violations = [m for m in range(1, 21)
                  if spaces.derivative_growth(SpaceSpec.legendre(m)) > np.sqrt(2) * m * m]
    report(5, "polynomial derivative bound, M = 1..20", not violations,
           f"violated at M = {violations}" if violations else "")


def test_criterion_5_markov_bound_valid_range():
    violations = [m for m in range(4, 21)
                  if spaces.derivative_growth(SpaceSpec.legendre(m)) > np.sqrt(2) * m * m]
    report(5, "polynomial derivative bound, M = 4..20", not violations,
           f"violated at M = {violations}" if violations else "18 orders within bound")


def test_criterion_6_scaling_slopes():
    t0 = time.time()
    ks = experiments.default_k_grid(5.0, 200.0, 12)
    slopes = {}
    for family, d, lo, hi in (("trig", 0, 0.85, 1.15),
                              ("legendre", 0, 0.35, 0.65),
                              ("spline", 1, 0.85, 1.15),
                              ("spline", 2, 0.85, 1.15),
                              ("spline", 3, 0.85, 1.15)):
        rows = experiments.scaling_table(family, "jittered", ks, d=d, threshold=3.0,
                                         seed=1)
        slope = float(np.polyfit(np.log([r.k for r in rows]),
                                 np.log([r.m for r in rows]), 1)[0])
        slopes[f"{family}{d or ''}"] = (slope, lo <= slope <= hi)
    elapsed = time.time() - t0
    ok = all(good for _, good in slopes.values()) and elapsed <= 600
    detail = ", ".join(f"{k}={v:.3f}" for k, (v, _) in slopes.items())
    report(6, "scaling-law slopes", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_7_error_curve_reproduction():
    f = FunctionSpec.benchmark()
    ks = experiments.default_k_grid(5.0, 200.0, 10)
    ok = True
    details = []
    for kind in ("jittered", "log"):
        leg = experiments.error_curve(f, "legendre", kind, ks, seed=1)
        spl = experiments.error_curve(f, "spline", kind, ks, d=3, seed=1)
        e_leg = np.array([r.error for r in leg])
        e_spl = np.array([r.error for r in spl])
        crossover = e_spl[0] < e_leg[0] and e_leg[-1] < e_spl[-1]
        decay = (e_leg[0] / e_leg.min() >= 1e3) and (e_spl[0] / e_spl.min() >= 1e3)
        ok = ok and crossover and decay
        details.append(f"{kind}: spline first {e_spl[0]:.2e} < {e_leg[0]:.2e}, "
                       f"legendre last {e_leg[-1]:.2e} < {e_spl[-1]:.2e}")
    report(7, "error-curve crossover and decay", ok, "; ".join(details))


def test_criterion_8_residual_closed_form_pin():
    oracle = np.sqrt(1 - (2 / np.pi) * (sici(np.pi)[0] - 2 / np.pi))
    value = analysis.residual(SpaceSpec.piecewise_const(1), 0.5)
    report(8, "residual closed-form pin",
           abs(value - 0.4757) <= 5e-4 and abs(value - oracle) <= 1e-10,
           f"residual {value:.6f}, sine-integral oracle {oracle:.6f}")


def test_criterion_9_weight_telescoping():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 60))
        k = float(rng.uniform(0.2, 150.0))
        pts = np.unique(rng.uniform(-k, k, size=n))
        s = SampleSet(points=pts, bandwidth=k)
        worst = max(worst, abs(float(np.sum(weights(s))) - 2 * k) / (2 * k))
    report(9, "weight telescoping", worst <= 1e-12,
           f"worst relative deviation {worst:.2e} over 100 sets")
