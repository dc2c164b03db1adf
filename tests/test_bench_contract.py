"""The benchmark's tracer must still find every function it wraps.

`bench/run.py --trace 1` wraps the callables named by
`bench/tracer.targets()` and reads the per-layer metrics of
BENCHMARK.json from their spans; a renamed or deleted function makes
it raise KeyError.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    missing = [name for name, owner, attr, _, _ in _tracer().targets()
               if not callable(vars(owner).get(attr))]
    assert not missing


def test_every_per_layer_metric_has_a_rule():
    tracer = _tracer().Tracer()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer.install()
    try:
        for metric in spec["per_layer"]:
            if metric["name"] != "tracing.overhead":
                tracer.value(metric["name"])
    finally:
        tracer.uninstall()
