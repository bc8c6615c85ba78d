"""Benchmark of nugs: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py summary FILE...
    python3 perfbench/run.py compare BASE CHANGE

Run from the root of a source checkout; nugs is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The line before it, ``RECORD {...}``, holds every metric the
run measured plus the machine facts; ``--record FILE`` appends it to FILE
for ``summary`` and ``compare``.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

# a fixed BLAS thread count, set before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Stats:
    """Operation times of one measured phase.

    ``records`` holds ``(op, raw seconds, scaled seconds, error)``; with
    ``scaled`` the times are those at the clock's reference speed.
    """

    def __init__(self, records, scaled=True):
        self.records = [(op, sc if scaled else raw, err) for op, raw, sc, err in records]
        self.attempted = len(records)
        self.failed = sum(err is not None for _, _, err in self.records)
        self.busy = sum(dt for _, dt, _ in self.records)

    def ok_times(self):
        return [dt for _, dt, err in self.records if err is None]

    def ok_count(self) -> int:
        return len(self.ok_times())

    def _typical(self, kind=None):
        """(work, seconds) of a typical round: each operation at its median
        time over the rounds, which discounts a slow spell in one round."""
        times = defaultdict(list)
        work = {}
        for op, dt, _ in self.records:
            if kind is None or op.kind == kind:
                times[op.label].append(dt)
                work[op.label] = op.work
        return (sum(work.values()),
                sum(statistics.median(ts) for ts in times.values()))

    def work_rate(self, kind=None) -> float:
        """Units of work per second of a typical round (of one kind of
        operation, if given)."""
        work, seconds = self._typical(kind)
        return work / seconds

    def gmean_ms(self) -> float:
        """Geometric mean of the times of the operations that succeeded."""
        return 1e3 * statistics.geometric_mean(self.ok_times())

    def percentile_ms(self, q) -> float:
        times = sorted(self.ok_times())
        if q == 50:
            return 1e3 * statistics.median(times)
        return 1e3 * statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def measure(wl, *, seconds=None, rounds=None, clock=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed (at least one round)
    or for exactly ``rounds`` rounds.  With a clock, the calibration kernel
    runs before the first operation, after the last, and between two
    operations once ``clock.INTERVAL_S`` has passed.

    Returns the records, the outputs of the last round, the failures that
    no known fault explains, the rounds run and the phase's wall time."""
    pending, outputs, unexpected = [], {}, []
    start = time.perf_counter()
    before = clock.sample() if clock else 0
    done = 0
    while True:
        for op in wl.round_ops():
            if tracer is not None:
                tracer.op += 1
            t = time.perf_counter()
            try:
                out, err = op.fn(), None
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                out, err = None, exc
                if op.known_fault is None:
                    unexpected.append((op.label, traceback.format_exc()))
            pending.append((op, time.perf_counter() - t, before, err))
            if err is None:
                outputs[op.label] = out
            if clock and clock.due():
                before = clock.sample()
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    last = clock.sample() if clock else 0
    records = []
    for i, (op, dt, b, err) in enumerate(pending):
        # the first sample taken after this operation brackets it
        a = next((p[2] for p in pending[i + 1:] if p[2] != b), last)
        records.append((op, dt, clock.scale(dt, b, a) if clock else dt, err))
    return records, outputs, unexpected, done, time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Start a fresh interpreter that imports nugs and the workloads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nugs, workloads"], env=env, check=True)
    return time.perf_counter() - t


def end_to_end(wl, records, setups, clock, scaled):
    """End-to-end metrics, plus the workload's own rates and latencies."""
    stats = Stats(records, scaled)
    setup = [clock.scale(dt, b, a) if scaled else dt for dt, b, a in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "work_per_s": (stats.work_rate(), "1/s"),
        "call_gmean_ms": (stats.gmean_ms(), "ms"),
    }
    metrics.update(wl.rates(stats))
    return metrics


def run(args) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nugs" / "__init__.py").is_file():
        return fail(f"no nugs sources under {ROOT / 'src'}; run from a source checkout")
    if not bench_file.is_file():
        return fail(f"{bench_file} is missing")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import nugs
    if Path(nugs.__file__).resolve().parent != (ROOT / "src" / "nugs").resolve():
        return fail(f"imported nugs from {nugs.__file__}, not from {ROOT / 'src'}")
    import workloads
    from clock import Clock

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]()
    clock = Clock()
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        setups = []
        before = clock.sample()
        for _ in range(SETUP_REPEATS):
            dt = import_seconds()
            t = time.perf_counter()
            wl.setup(args.seed, tmp)
            dt += time.perf_counter() - t
            after = clock.sample()
            setups.append((dt, before, after))
            before = after
        if args.trace:
            records, outputs, unexpected, metrics = traced(wl, args)
            shown = [m["name"] for m in bench["per_layer"]]
            for m in bench["per_layer"]:  # a layer this workload never reached
                metrics.setdefault(m["name"], (0, m["unit"]))
            raw, rounds = {}, None
        else:
            records, outputs, unexpected, rounds, _ = measure(
                wl, seconds=args.seconds, clock=clock)
            metrics = end_to_end(wl, records, setups, clock, True)
            raw = end_to_end(wl, records, setups, clock, False)
            shown = [m["name"] for m in bench["end_to_end"]]
        errors = wl.check(outputs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stats = Stats(records)
    for label, tb in unexpected:
        print(f"perfbench: {label} failed unexpectedly\n{tb}", file=sys.stderr)
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    correct = not unexpected and not errors
    for fault in sorted({op.known_fault for op, _, err in stats.records
                         if err is not None and op.known_fault}):
        print(f"known fault (counted as failed): {fault}")
    if not args.trace:
        print(f"{'metric':28s} {'reference speed':>16s} {'wall clock':>14s}")
        for name, (value, unit) in metrics.items():
            print(f"{name:28s} {value:16.6g} {raw[name][0]:14.6g} {unit}")
    print(f"attempted {stats.attempted}, failed {stats.failed}, correct {correct}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "correct": correct,
              "attempted": stats.attempted, "failed": stats.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
              "wall_clock_metrics": {n: v for n, (v, _) in raw.items()},
              "rounds": rounds, "calibration_kernel_s": clock.median_kernel_s(),
              "env": environment()}
    line = json.dumps(record)
    print("RECORD " + line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(json.dumps({"correct": correct, "attempted": stats.attempted,
                      "failed": stats.failed,
                      "metrics": {n: record["metrics"][n] for n in shown}}))
    return 0 if correct else 1


def traced(wl, args):
    """One warm-up round, untraced rounds for half the run time, then the
    same number of rounds with every traced function wrapped.  Times here
    are wall-clock times, not scaled."""
    from nugs import fourier
    from tracing import Tracer
    measure(wl, rounds=1)
    _, _, _, rounds, plain_wall = measure(wl, seconds=args.seconds / 2)
    tracer = Tracer()
    before = fourier.cached_basis.cache_info()
    tracer.install()
    try:
        records, outputs, unexpected, _, _ = tracer.call(
            "bench", measure, (wl,), {"rounds": rounds, "tracer": tracer})
    finally:
        tracer.uninstall()
    after = fourier.cached_basis.cache_info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    wall = tracer.spans[-1][4]  # the root span closes last
    layers = tracer.layer_metrics()
    layers["fourier.cached_basis.hit_ratio"] = hits / max(hits + misses, 1)
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - plain_wall
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path)

    total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    print(f"traced {rounds} round(s): wall {wall:.4f} s, untraced {plain_wall:.4f} s, "
          f"overhead {wall - plain_wall:.4f} s; self times sum to {total_self:.4f} s; "
          f"cached_basis hits {hits} of {hits + misses}; spans in {path.relative_to(ROOT)}")
    print(f"{'layer':36s} {'calls':>8s} {'self_s':>10s} {'share':>7s}  "
          "counts computed from argument shapes")
    for name in sorted(tracer.calls, key=lambda n: -tracer.self_s[n]):
        counts = ", ".join(f"{k.rsplit('.', 1)[1]}={v}" for k, v in tracer.counts.items()
                           if k.rsplit(".", 1)[0] == name)
        print(f"{name:36s} {tracer.calls[name]:8d} {tracer.self_s[name]:10.4f} "
              f"{tracer.self_s[name] / wall:7.1%}  {counts}")
    units = {"self_s": "s", "hit_ratio": "ratio", "wall_s": "s", "overhead_s": "s"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "count"))
               for name, value in layers.items()}
    return records, outputs, unexpected, metrics


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ("summary", "compare"):
        sys.path.insert(0, str(HERE))
        import report
        return report.main(argv)
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the run record to this file")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
