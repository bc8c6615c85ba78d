"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, hands out one
round of operations at a time in ``round_ops`` (every round attempts the
same operations, so failures are a fixed share of attempts), and checks
the outputs of the timed rounds in ``check`` against ``oracles``, which
never imports nugs.  Operations call only the package's public module
functions, with ``jobs=1`` throughout.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from nugs import analysis, cli, experiments, fourier, sampling
from nugs.estimator import NonuniformFourierRegressor
from nugs.fourier import FunctionSpec
from nugs.spaces import SpaceSpec

THRESHOLD = 3.0


@dataclass
class Op:
    """One timed operation of a round.

    ``kind`` groups operations for the workload's own rates; ``work`` is
    the units of work it does (sweep cells, residuals, requests, checks);
    ``known_fault`` names the program fault that makes it fail today, if
    it is one of the kept-failing validation requests.
    """

    kind: str
    label: str
    fn: Callable[[], Any]
    work: int = 1
    known_fault: str | None = None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# bandwidth sweeps


SWEEP_FAMILIES = (("trig", 0), ("legendre", 0), ("spline", 1), ("spline", 2),
                  ("spline", 3))
ERROR_FAMILIES = (("legendre", 0), ("spline", 3))
# criterion-6 bands on the log-log slope of m against K
SLOPE_BANDS = {"trig": (0.85, 1.15), "legendre": (0.35, 0.65), "spline": (0.85, 1.15)}


def _label(family: str, d: int) -> str:
    return family if family != "spline" else f"spline_d{d}"


class Sweep:
    """Figure-1 panels on a reduced bandwidth grid for one sampling scheme.

    The grid is ``geomspace(5, kmax, count)``, each point scaled by a
    seed-drawn factor in [0.99, 1.01]; the seed also drives the jitter.
    """

    def __init__(self, kind: str, kmax: float, count: int):
        self.kind, self.kmax, self.count = kind, kmax, count

    def setup(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.ks = np.geomspace(5.0, self.kmax, self.count) \
            * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, self.count))
        self.f = FunctionSpec.benchmark()
        # warm-up: one small cell of every call, filling the package's caches
        for family, d in SWEEP_FAMILIES:
            experiments.scaling_table(family, self.kind, [5.0], d=d, seed=seed, jobs=1)
        for family, d in ERROR_FAMILIES:
            experiments.error_curve(self.f, family, self.kind, [5.0], d=d, seed=seed, jobs=1)

    def round_ops(self) -> list[Op]:
        """One call per cell, family by family, so that each cell is timed;
        a one-point grid gives the search no hint from the previous K,
        which changes its probes but not the m it selects."""
        ops = [Op("scaling", f"scaling/{_label(fam, d)}/{i}",
                  partial(experiments.scaling_table, fam, self.kind, [k], d=d,
                          threshold=THRESHOLD, seed=self.seed, jobs=1))
               for fam, d in SWEEP_FAMILIES for i, k in enumerate(self.ks)]
        ops += [Op("error", f"error/{_label(fam, d)}/{i}",
                   partial(experiments.error_curve, self.f, fam, self.kind, [k],
                           d=d, threshold=THRESHOLD, seed=self.seed, jobs=1))
                for fam, d in ERROR_FAMILIES for i, k in enumerate(self.ks)]
        return ops

    def rates(self, stats) -> dict:
        return {"scaling_cells_per_s": (stats.work_rate("scaling"), "cells/s"),
                "error_cells_per_s": (stats.work_rate("error"), "cells/s")}

    # -- checks ---------------------------------------------------------------

    def _sample_set(self, k: float):
        spec = experiments.plan_scheme(self.kind, k, seed=self.seed)
        return spec, sampling.generate(spec)

    def _check_set(self, spec, s) -> list[str]:
        """Points follow the scheme; density and weight sum recomputed."""
        errs = []
        pts, k, n = np.asarray(s.points), s.bandwidth, len(s)
        if self.kind == "jittered":
            grid = -k + (np.arange(1, n + 1) - 0.5) * (2.0 * k / n)
            if np.max(np.abs(pts - grid)) > spec.theta * k / n * (1 + 1e-12):
                errs.append(f"K={k:g}: jitter exceeds theta*K/N")
        else:
            m = n // 2
            side = np.exp(np.log(k / n) + np.arange(m) * (2.0 * np.log(n) / (n - 2)))
            side[-1] = k
            if np.max(np.abs(pts - np.concatenate((-side[::-1], side)))) > 1e-12 * k:
                errs.append(f"K={k:g}: log points off the geometric progression")
        if not (np.all(np.diff(pts) > 0) and np.all(np.abs(pts) <= k)):
            errs.append(f"K={k:g}: points not increasing inside [-K, K]")
        delta = oracles.ghost_density(pts, k)
        if _rel(sampling.density(s), delta) > 1e-12:
            errs.append(f"K={k:g}: density {sampling.density(s)!r} != {delta!r}")
        wsum = float(np.sum(oracles.midpoint_weights(pts, k)))
        if _rel(wsum, 2 * k) > 1e-12 or _rel(float(np.sum(sampling.weights(s))), 2 * k) > 1e-12:
            errs.append(f"K={k:g}: weights do not sum to 2K")
        return errs

    def check(self, outputs: dict) -> list[str]:
        errs: list[str] = []
        sets = {}
        for k in self.ks:
            spec, s = self._sample_set(float(k))
            sets[float(k)] = s
            errs += self._check_set(spec, s)
        ms = {}
        for fam, d in SWEEP_FAMILIES:
            label = _label(fam, d)
            rows = [outputs[f"scaling/{label}/{i}"][0] for i in range(len(self.ks))]
            ms[label] = [r.m for r in rows]
            for r in rows:
                s = sets[float(r.k)]
                if r.n != len(s):
                    errs.append(f"{label} K={r.k:g}: n={r.n} but the set has {len(s)}")
                    continue
                errs += self._check_selected(fam, d, r, s)
            slope = float(np.polyfit(np.log(self.ks), np.log(ms[label]), 1)[0])
            lo, hi = SLOPE_BANDS[fam]
            if not lo <= slope <= hi:
                errs.append(f"{label}: slope {slope:.3f} outside [{lo}, {hi}]")
        curves = {}
        for fam, d in ERROR_FAMILIES:
            label = _label(fam, d)
            rows = [outputs[f"error/{label}/{i}"][0] for i in range(len(self.ks))]
            if [r.m for r in rows] != ms[label]:
                errs.append(f"{label}: error-curve dimensions differ from the scaling table")
            e = np.array([r.error for r in rows])
            curves[fam] = e
            if not e[0] / e.min() >= 1e3:
                errs.append(f"{label}: error decays only by {e[0] / e.min():.3g}")
        leg, spl = curves["legendre"], curves["spline"]
        if not (spl[0] < leg[0] and leg[-1] < spl[-1]):
            errs.append("spline and legendre error curves do not cross over")
        return errs

    def _check_selected(self, fam, d, row, s) -> list[str]:
        """ratio(m) <= 3 and (m is the cap or ratio(m+1) > 3), from a design
        built here for trig and legendre; splines are held to ratio <= 3."""
        pts, k, n = np.asarray(s.points), s.bandwidth, len(s)
        tag = f"{_label(fam, d)} K={k:g}"
        if fam == "spline":
            ok = row.c_ratio <= THRESHOLD and 1 <= row.m <= n - d
            return [] if ok else [f"{tag}: m={row.m} ratio {row.c_ratio:g}"]
        design = oracles.trig_design if fam == "trig" else oracles.legendre_design
        cap = (n - 1) // 2 if fam == "trig" else n - 1
        ratio = oracles.stability_ratio(design(pts, row.m), pts, k)
        errs = []
        if not ratio <= THRESHOLD * (1 + 1e-9):
            errs.append(f"{tag}: ratio({row.m}) = {ratio:g} > 3")
        if _rel(row.c_ratio, ratio) > 1e-7:
            errs.append(f"{tag}: program ratio {row.c_ratio!r} != {ratio!r}")
        if row.m < cap:
            nxt = oracles.stability_ratio(design(pts, row.m + 1), pts, k)
            if not nxt > THRESHOLD * (1 - 1e-9):
                errs.append(f"{tag}: m={row.m} not maximal, ratio({row.m + 1}) = {nxt:g}")
        return errs


# ---------------------------------------------------------------------------
# reconstruction stream


def _jittered(n: int, k: float, rng) -> np.ndarray:
    return -k + (np.arange(1, n + 1) - 0.5 + 0.2 * rng.uniform(-1.0, 1.0, n)) * (2.0 * k / n)


def _log(n: int, k: float) -> np.ndarray:
    m = n // 2
    side = np.exp(np.log(k / n) + np.arange(m) * (2.0 * np.log(n) / (n - 2)))
    side[-1] = k
    return np.concatenate((-side[::-1], side))


# (set, space, pass sample_weight) for fit + predict + score
HOT_ESTIMATOR = [
    ("j100", "trig:12", False), ("j100", "legendre:10", False),
    ("j100", "piecewise_const:16", False), ("j100", "spline:3:10", False),
    ("j100", "piecewise_poly:0.3,0.6:3,2,3", False),
    ("j400", "trig:40", False), ("j400", "legendre:20", False),
    ("j400", "piecewise_const:60", False), ("j400", "spline:2:30", True),
    ("j2000", "piecewise_poly:0.25,0.5,0.75:3,3,3,3", True),
    ("j2000", "legendre:24", False),
    ("l112", "trig:4", False), ("l112", "legendre:6", False),
    ("l112", "spline:1:6", True),
    ("l698", "piecewise_const:20", False), ("l698", "spline:3:12", False),
    ("l698", "trig:16", False),
    ("l1860", "legendre:15", False),
]
# (set, space) through ``nugs reconstruct --input CSV``
HOT_CLI = [
    ("j100", "trig:12"), ("j100", "piecewise_poly:0.3,0.6:3,2,3"),
    ("j400", "legendre:20"), ("l112", "spline:1:6"),
    ("l698", "piecewise_const:20"), ("l1860", "legendre:15"),
]
COLD_PER_ROUND = 4
# more distinct cold spaces than fourier.cached_basis holds (128), cycled in
# order, so each one has been evicted before it comes round again
COLD_POOL = 128
GRID = (np.arange(64) + 0.5) / 64
PREDICT_RTOL = 1e-8


class Stream:
    """Closed loop, one client, independent single-shot reconstructions."""

    def setup(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        self.sets = {
            "j100": (_jittered(100, 36.0, rng), 36.0),
            "j400": (_jittered(400, 140.0, rng), 140.0),
            "j2000": (_jittered(2000, 150.0, rng), 150.0),
            "l112": (_log(112, 10.0), 10.0),
            "l698": (_log(698, 40.0), 40.0),
            "l1860": (_log(1860, 110.0), 110.0),
        }
        self.members = {}
        for set_name, space, _ in HOT_ESTIMATOR:
            self._add(("hot", set_name, space), set_name, space, rng)
        self.cli_files = []
        for i, (set_name, space) in enumerate(HOT_CLI):
            key = ("hot", set_name, space)
            if key not in self.members:
                self._add(key, set_name, space, rng)
            pts, k = self.sets[set_name]
            y = self.members[key]["y"]
            path = tmp / f"data-{i}.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("omega,re,im,weight\n")
                for w, v, mu in zip(pts, y, oracles.midpoint_weights(pts, k)):
                    fh.write(f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r},{float(mu)!r}\n")
            self.cli_files.append((key, path, tmp / f"out-{i}"))
        self.cold = []
        for i in range(COLD_POOL):
            while True:
                a, b = np.sort(rng.uniform(0.15, 0.85, 2))
                if b - a >= 0.1:
                    break
            space = f"piecewise_poly:{float(a)!r},{float(b)!r}:2,3,2"
            self._add(("cold", i), "j100", space, rng)
            self.cold.append(("cold", i))
        # the validation requests use fixed inputs, whatever the seed
        fixed = np.random.default_rng(0)
        pts = _jittered(100, 36.0, fixed)
        y = oracles.Member("legendre:6", fixed).transform(pts)
        mu = oracles.midpoint_weights(pts, 36.0)
        negative = mu.copy()
        negative[10] = -negative[10]
        self.invalid = [
            ("sample_weight longer than X is accepted silently",
             pts, y, np.concatenate((mu, mu[:3]))),
            ("negative sample_weight reaches the SVD as NaN",
             pts, y, negative),
        ]
        self.next_cold = 0
        self.warm()

    def _add(self, key, set_name, space, rng) -> None:
        pts, k = self.sets[set_name]
        m = oracles.Member(space, rng)
        self.members[key] = {"set": set_name, "space": space, "member": m,
                             "y": m.transform(pts)}

    def warm(self) -> None:
        """One untimed round: fills the basis cache with the hot spaces."""
        for op in self.round_ops():
            try:
                op.fn()
            except Exception:  # noqa: BLE001 - the kept-failing requests
                if op.known_fault is None:
                    raise

    def round_ops(self) -> list[Op]:
        ops = [Op("request", f"est/{s}/{sp}", partial(self._estimate, ("hot", s, sp), w))
               for s, sp, w in HOT_ESTIMATOR]
        ops += [Op("request", f"cli/{i}", partial(self._cli, i))
                for i in range(len(self.cli_files))]
        for slot in range(COLD_PER_ROUND):
            key = self.cold[self.next_cold % COLD_POOL]
            self.next_cold += 1
            ops.append(Op("request", f"cold/{slot}", partial(self._estimate, key, False)))
        ops += [Op("request", f"invalid/{i}", partial(self._invalid, i), known_fault=why)
                for i, (why, *_rest) in enumerate(self.invalid)]
        return ops

    def _estimate(self, key, with_weight: bool):
        entry = self.members[key]
        pts, k = self.sets[entry["set"]]
        sw = oracles.midpoint_weights(pts, k) if with_weight else None
        est = NonuniformFourierRegressor(space=entry["space"], bandwidth=k)
        est.fit(pts, entry["y"], sample_weight=sw)
        return key, est.predict(GRID), est.score(pts, entry["y"])

    def _cli(self, i: int):
        key, path, out = self.cli_files[i]
        k = self.sets[self.members[key]["set"]][1]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reconstruct", "--input", str(path), "--k", repr(k),
                             "--space", self.members[key]["space"], "--out-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"nugs reconstruct exited with {code}")
        return code

    def _invalid(self, i: int):
        why, pts, y, weights = self.invalid[i]
        try:
            NonuniformFourierRegressor(space="legendre:6", bandwidth=36.0).fit(
                pts, y, sample_weight=weights)
        except ValueError as exc:
            if "sample_weight" in str(exc):
                return "rejected"
            raise
        raise RuntimeError(f"accepted: {why}")

    def rates(self, stats) -> dict:
        out = {"requests_per_s": (stats.attempted / stats.busy, "1/s"),
               "request_p50_ms": (stats.percentile_ms(50), "ms")}
        if stats.ok_count() >= 1000:  # at least ten samples beyond the 99th percentile
            out["request_p99_ms"] = (stats.percentile_ms(99), "ms")
        return out

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for label, out in outputs.items():
            if label.startswith(("est/", "cold/")):
                errs += self._check_member(label, out)
        for i, (key, _, out_dir) in enumerate(self.cli_files):
            errs += self._check_cli(i, key, out_dir)
        return errs

    def _check_member(self, label, out) -> list[str]:
        key, pred, score = out
        truth = self.members[key]["member"].values(GRID)
        err = float(np.max(np.abs(pred - truth)) / np.max(np.abs(truth)))
        errs = []
        if not err <= PREDICT_RTOL:
            errs.append(f"{label}: predict off the member by {err:.2e}")
        if not score >= 1.0 - 1e-9:
            errs.append(f"{label}: score {score!r} on exact data")
        return errs

    def _check_cli(self, i, key, out_dir) -> list[str]:
        entry = self.members[key]
        rows = np.loadtxt(out_dir / "reconstruction.csv", delimiter=",", skiprows=1)
        truth = entry["member"].values(rows[:, 0])
        err = float(np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - truth))
                    / np.max(np.abs(truth)))
        errs = []
        if not err <= PREDICT_RTOL:
            errs.append(f"cli/{i}: reconstruction off the member by {err:.2e}")
        diag = json.loads((out_dir / "diagnostics.json").read_text(encoding="utf-8"))
        pts, k = self.sets[entry["set"]]
        est = NonuniformFourierRegressor(space=entry["space"], bandwidth=k).fit(
            pts, entry["y"], sample_weight=oracles.midpoint_weights(pts, k))
        if _rel(diag["c_ratio"], est.stability_ratio_) > 1e-9:
            errs.append(f"cli/{i}: c_ratio {diag['c_ratio']!r} != estimator "
                        f"{est.stability_ratio_!r}")
        return errs


# ---------------------------------------------------------------------------
# band analysis


RESIDUAL_SPACES = [
    SpaceSpec.piecewise_const(4), SpaceSpec.piecewise_const(16),
    SpaceSpec.piecewise_const(64), SpaceSpec.spline(1, 16), SpaceSpec.spline(3, 8),
    SpaceSpec.legendre(8), SpaceSpec.legendre(16), SpaceSpec.trig(5),
    SpaceSpec.trig(12), SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 3]),
]
Z_GRID = np.geomspace(0.5, 200.0, 6)
# (space, reference cells, z) for the gap and triangle bounds; the last two
# leave the gap-bound precondition (1/L <= knot spacing) unmet
BOUND_TRIPLES = [
    (SpaceSpec.legendre(1), 2, 4.0), (SpaceSpec.legendre(3), 16, 12.0),
    (SpaceSpec.legendre(6), 32, 24.0), (SpaceSpec.trig(2), 8, 6.0),
    (SpaceSpec.trig(5), 64, 30.0), (SpaceSpec.piecewise_const(4), 8, 10.0),
    (SpaceSpec.piecewise_const(8), 64, 40.0),
    (SpaceSpec.piecewise_poly([1 / 3], [2, 2]), 9, 8.0),
    (SpaceSpec.piecewise_poly([0.25, 0.5], [2, 1, 2]), 16, 16.0),
    (SpaceSpec.spline(1, 4), 16, 10.0), (SpaceSpec.spline(2, 4), 32, 20.0),
    (SpaceSpec.spline(3, 5), 40, 30.0),
    (SpaceSpec.spline(3, 8), 6, 12.0), (SpaceSpec.piecewise_const(16), 8, 20.0),
]
# (u, v) with v inside u: the gap must be 0
CONTAINED = [
    (SpaceSpec.piecewise_const(8), SpaceSpec.piecewise_const(4)),
    (SpaceSpec.legendre(5), SpaceSpec.legendre(2)),
    (SpaceSpec.trig(5), SpaceSpec.trig(2)),
    (SpaceSpec.piecewise_poly([0.5], [3, 3]), SpaceSpec.spline(1, 2)),
    (SpaceSpec.spline(3, 4), SpaceSpec.legendre(3)),
]


class Bands:
    """Residual curves and bound checks; z values scaled by a seed-drawn
    factor in [0.97, 1.03]."""

    def setup(self, seed: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        self.zs = [np.sort(Z_GRID * (1.0 + 0.03 * rng.uniform(-1.0, 1.0, Z_GRID.size)))
                   for _ in RESIDUAL_SPACES]
        self.triples = [(sp, cells, z * (1.0 + 0.03 * rng.uniform(-1.0, 1.0)))
                        for sp, cells, z in BOUND_TRIPLES]
        for sp in RESIDUAL_SPACES:  # warm-up: the bases the curves look up
            fourier.cached_basis(sp)

    def round_ops(self) -> list[Op]:
        ops = [Op("residual", f"residual/{i}",
                  partial(analysis.residual_curve, sp, self.zs[i]), work=self.zs[i].size)
               for i, sp in enumerate(RESIDUAL_SPACES)]
        for i, (sp, cells, z) in enumerate(self.triples):
            ops.append(Op("bound", f"gap/{i}", partial(analysis.verify_gap_bound, sp, cells)))
            ops.append(Op("bound", f"triangle/{i}",
                          partial(analysis.verify_triangle_bound, sp, cells, z)))
        return ops

    def rates(self, stats) -> dict:
        return {"residuals_per_s": (stats.work_rate("residual"), "1/s"),
                "bound_checks_per_s": (stats.work_rate("bound"), "1/s")}

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for i, sp in enumerate(RESIDUAL_SPACES):
            e = outputs[f"residual/{i}"].e
            if not (np.all(e >= 0.0) and np.all(e <= 1.0)):
                errs.append(f"residual/{i}: values outside [0, 1]")
            if np.any(np.diff(e) > 1e-9):
                errs.append(f"residual/{i}: increases with z")
            if sp.kind == "piecewise_const":
                ref = [oracles.pconst_residual(sp.cells, float(z)) for z in self.zs[i]]
                dev = float(np.max(np.abs(e - ref)))
                if dev > 1e-9:
                    errs.append(f"residual/{i}: off the sine-integral form by {dev:.2e}")
        for i, (sp, cells, z) in enumerate(self.triples):
            rep = outputs[f"gap/{i}"]
            if rep.precondition_ok != (1.0 / cells <= _min_spacing(sp) * (1 + 1e-12)):
                errs.append(f"gap/{i}: precondition misjudged")
            if rep.precondition_ok and rep.holds is not True:
                errs.append(f"gap/{i}: gap {rep.gap:g} above bound {rep.bound:g}")
            if not rep.precondition_ok and rep.holds is not None:
                errs.append(f"gap/{i}: verdict given without the precondition")
            if outputs[f"triangle/{i}"].holds is not True:
                errs.append(f"triangle/{i}: triangle bound violated")
        for u, v in CONTAINED:
            g = analysis.gap(u, v)
            if g > 1e-10:
                errs.append(f"gap({u.kind}, {v.kind}) = {g:.2e} for a contained space")
        half = analysis.gap(SpaceSpec.piecewise_const(2), SpaceSpec.legendre(1))
        if abs(half - 0.5) > 1e-10:
            errs.append(f"gap(piecewise_const(2), legendre(1)) = {half!r}, not 0.5")
        return errs


def _min_spacing(sp: SpaceSpec) -> float:
    if sp.kind == "piecewise_poly":
        return float(np.min(np.diff([0.0, *sp.knots, 1.0])))
    if sp.kind in ("spline", "piecewise_const"):
        return 1.0 / sp.cells
    return 1.0


WORKLOADS = {
    "sweep_jittered": lambda: Sweep("jittered", 100.0, 6),
    "sweep_log": lambda: Sweep("log", 48.0, 6),
    "reconstruct_stream": Stream,
    "analysis_bounds": Bands,
}
