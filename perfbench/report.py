"""Summaries and comparisons of run records.

    python3 perfbench/run.py summary FILE...
    python3 perfbench/run.py compare BASE CHANGE

A record file holds one JSON record per line, as ``--record`` writes it;
lines of captured standard output that start with ``RECORD `` are read
too, and a directory stands for every file in it.  ``compare`` pairs the
i-th run of a workload in BASE with the i-th run in CHANGE, so BASE and
CHANGE should come from alternating runs with the same seeds.

Verdicts follow the benchmark's bounds (BENCHMARK.json):

* better     -- the change wins at least 9 of 10 pairs and its median beats
  the base median by more than the base's interquartile range;
* unresolved -- otherwise, when the base's interquartile range exceeds the
  bound (as a share of its median);
* worse      -- otherwise, when the change's median is worse than the base
  median by more than the bound;
* unchanged  -- otherwise.

Metrics outside BENCHMARK.json (the workload's own rates and latencies)
use the bound of ``call_gmean_ms`` when measured in ms and of ``work_per_s``
otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list[dict]:
    records = []
    for p in map(Path, paths):
        for f in sorted(p.iterdir()) if p.is_dir() else [p]:
            for line in f.read_text(encoding="utf-8").splitlines():
                line = line.removeprefix("RECORD ").strip()
                if line.startswith("{"):
                    rec = json.loads(line)
                    if "workload" in rec:
                        records.append(rec)
    return records


def _series(records):
    """{(workload, trace): {metric: [values in run order]}} plus units and
    failed shares."""
    values = defaultdict(lambda: defaultdict(list))
    units, shares = {}, defaultdict(set)
    for rec in records:
        key = (rec["workload"], rec["trace"])
        shares[key].add(str(Fraction(rec["failed"], rec["attempted"])))
        for name, m in rec["metrics"].items():
            values[key][name].append(m["value"])
            units[name] = m["unit"]
    return values, units, shares


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _bounds():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def _rule(name, unit, bounds):
    if name in bounds:
        return bounds[name]
    ref = "call_gmean_ms" if unit == "ms" else "work_per_s"
    better = "lower" if unit in ("ms", "s", "MB") else "higher"
    return better, bounds[ref][1]


def summary(paths) -> int:
    values, units, shares = _series(load(paths))
    bounds = _bounds()
    for (workload, trace), metrics in sorted(values.items()):
        runs = len(next(iter(metrics.values())))
        share = ", ".join(sorted(shares[(workload, trace)]))
        print(f"{workload} (trace {trace}, {runs} runs, failed {share})")
        print(f"  {'metric':40s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'bound':>6s}")
        for name, xs in metrics.items():
            q1, med, q3 = quartiles(xs)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name, (None, None))[1] if not trace else None
            btxt = f"{bound:6.2f}" if bound is not None else ""
            print(f"  {name:40s} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {btxt} {units[name]}")
    return 0


def verdict(base, change, better, bound) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs) / len(pairs)
    q1, med, q3 = quartiles(base)
    cmed = quartiles(change)[1]
    gain = sign * (cmed - med)
    if wins >= 0.9 and gain > q3 - q1:
        return "better", wins
    if (q3 - q1) / med > bound:
        return "unresolved", wins
    if -gain / med > bound:
        return "worse", wins
    return "unchanged", wins


def compare(base_path, change_path) -> int:
    base, units, base_shares = _series(load([base_path]))
    change, _, change_shares = _series(load([change_path]))
    bounds = _bounds()
    worst = 0
    for key in sorted(base):
        if key not in change or key[1]:
            continue
        workload = key[0]
        print(f"{workload}: failed share base {sorted(base_shares[key])}, "
              f"change {sorted(change_shares[key])}")
        print(f"  {'metric':24s} {'base q1/med/q3':>34s} {'change q1/med/q3':>34s} "
              f"{'won':>5s}  verdict")
        for name, bvals in base[key].items():
            cvals = change[key].get(name)
            if not cvals:
                continue
            better, bound = _rule(name, units[name], bounds)
            v, wins = verdict(bvals, cvals, better, bound)
            worst = max(worst, v == "worse")
            bq = "/".join(f"{x:.4g}" for x in quartiles(bvals))
            cq = "/".join(f"{x:.4g}" for x in quartiles(cvals))
            print(f"  {name:24s} {bq:>34s} {cq:>34s} {wins:5.0%}  {v} "
                  f"(bound {bound:.0%}, {units[name]})")
    return worst


def main(argv) -> int:
    if argv[0] == "summary" and len(argv) > 1:
        return summary(argv[1:])
    if argv[0] == "compare" and len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2
