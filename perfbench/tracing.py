"""Span tracing of nugs' public functions, for the traced run only.

``Tracer.install()`` replaces each traced function at its module attribute,
in every other nugs module that imported it by name, and (for estimator
methods) on its class; ``uninstall()`` restores the originals.  Spans are
kept in memory and written as JSONL at the end.  Each span's self time is
its duration minus the durations of its direct children, so the self times
of all spans under one root add up to the root's duration.

Counts such as ``entries`` are computed from argument shapes, not measured
inside the program; the report labels them so.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# (module, function, computed-count name, counter from the call's arguments)
TRACED = [
    ("sampling", "generate", None, None),
    ("sampling", "density", None, None),
    ("spaces", "build_basis", None, None),
    ("spaces", "evaluate", "entries",
     lambda a, k: _arg(a, k, 0, "basis").dim * np.size(_arg(a, k, 1, "x"))),
    ("spaces", "growth_constants", None, None),
    ("quadrature", "panel_nodes", "nodes",
     lambda a, k: (len(_arg(a, k, 0, "edges")) - 1) * _arg(a, k, 1, "n")),
    ("fourier", "cell_transforms", "entries",
     lambda a, k: (len(_arg(a, k, 0, "breaks")) - 1) * _arg(a, k, 1, "p")
     * np.size(_arg(a, k, 2, "omegas"))),
    ("fourier", "basis_transform", "entries",
     lambda a, k: _arg(a, k, 0, "basis").dim * np.size(_arg(a, k, 1, "omega"))),
    ("fourier", "transform_integrals", "freqs",
     lambda a, k: np.size(_arg(a, k, 1, "omegas"))),
    ("fourier", "sample_function", None, None),
    ("fourier", "l2_error", None, None),
    ("solver", "reconstruct", "design_entries",
     lambda a, k: len(_arg(a, k, 1, "data").samples) * _arg(a, k, 0, "basis").dim),
    ("solver", "stability_constant", None, None),
    ("analysis", "concentration_matrix", None, None),
    ("analysis", "residual_from_basis", None, None),
    ("analysis", "residual_curve", None, None),
    ("analysis", "gap", None, None),
    ("analysis", "verify_gap_bound", None, None),
    ("analysis", "verify_triangle_bound", None, None),
    ("experiments", "plan_scheme", None, None),
    ("experiments", "max_stable_dimension", None, None),
    ("experiments", "scaling_table", None, None),
    ("experiments", "error_curve", None, None),
    ("cli", "main", None, None),
]
# methods of estimator.NonuniformFourierRegressor, reported as estimator.<name>
TRACED_METHODS = ("fit", "predict", "score")


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []
        self.op = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- spans --------------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, count_name=None, counter=None):
        """Run ``fn`` inside a span named ``name``."""
        kwargs = kwargs or {}
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            own = dur - frame[0]
            count = counter(args, kwargs) if counter is not None else None
            self.spans.append((self.op, name, len(stack), start, dur, own,
                               count_name, count))
            self.calls[name] += 1
            self.self_s[name] += own
            if count is not None:
                self.counts[f"{name}.{count_name}"] += count

    def _wrap(self, name, fn, count_name=None, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count_name, counter)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "nugs" or n.startswith("nugs.")}
        for mod_name, fn_name, count_name, counter in TRACED:
            original = getattr(modules[f"nugs.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count_name, counter)
            for mod in modules.values():
                if getattr(mod, fn_name, None) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        cls = modules["nugs.estimator"].NonuniformFourierRegressor
        for meth in TRACED_METHODS:
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"estimator.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, depth, start, dur, own, cname, count in self.spans:
                rec = {"op": op, "name": name, "depth": depth, "start": start,
                       "dur_s": dur, "self_s": own}
                if cname is not None:
                    rec["computed"] = {cname: count}
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_s`` and computed counts for every
        span name seen."""
        out: dict[str, float] = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        return out
