"""The benchmark's traced run patches every layer it names; a layer that is
renamed or deleted must fail here, not only in the traced benchmark run."""

import importlib.util
from pathlib import Path

import nugs
import nugs.cli  # noqa: F401  (the tracer patches cli.main)
from nugs import fourier
from nugs.fourier import FunctionSpec

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_layer_and_uninstalls():
    tracing = _load_tracing()
    originals = {(m, f): getattr(getattr(nugs, m), f) for m, f, _, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, f), original in originals.items():
            assert getattr(getattr(nugs, m), f) is not original, f"{m}.{f} not traced"
        fourier.transform_integrals(FunctionSpec.benchmark(), [0.0, 2.0])
    finally:
        tracer.uninstall()
    for (m, f), original in originals.items():
        assert getattr(getattr(nugs, m), f) is original
    assert tracer.calls["fourier.transform_integrals"] == 1
    assert tracer.counts["fourier.transform_integrals.freqs"] == 2
