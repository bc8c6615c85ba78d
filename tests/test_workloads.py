"""The benchmark's own correctness check, one round per workload: a change
that breaks a call the benchmark makes (a renamed keyword, a changed row
or message) fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_NAMES = ("sweep_jittered", "sweep_log", "reconstruct_stream", "analysis_bounds")


def _load(module_name, file_name, monkeypatch):
    spec = importlib.util.spec_from_file_location(module_name, _PERFBENCH / file_name)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, module_name, module)
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    # the workloads import their oracles by this top-level name
    _load("oracles", "oracles.py", monkeypatch)
    return _load("perfbench_workloads", "workloads.py", monkeypatch)


def test_every_workload_is_checked(monkeypatch):
    assert sorted(_workloads(monkeypatch).WORKLOADS) == sorted(_NAMES)


@pytest.mark.parametrize("name", _NAMES)
def test_workload_round_passes_its_check(tmp_path, monkeypatch, name):
    wl = _workloads(monkeypatch).WORKLOADS[name]()
    wl.setup(21, tmp_path)
    outputs = {}
    for op in wl.round_ops():
        try:
            outputs[op.label] = op.fn()
        except Exception:
            if op.known_fault is None:
                raise
    assert wl.check(outputs) == []
