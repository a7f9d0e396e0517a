"""The traced benchmark run's contract with the package.

`perfbench/tracing.py` wraps package functions from outside and reads what
they are called with and return by name: the parameters of
`exactlin.select_rows` and the `meta` of `build_complex`.  A rename there
breaks no other test, but makes the traced benchmark run raise.  So one
traced cold assembly runs here, and every per-layer metric that
BENCHMARK.json declares must come out of it (the `trace.*` ones are the
runner's own).
"""

import importlib.util
import json
from pathlib import Path

from elacomplex import elasticity_assembly as ea

ROOT = Path(__file__).resolve().parent.parent
# functions LAYERS names that the package no longer has
ABSENT = {"exactlin.certified_rank", "exactlin.modmul"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_assembly_emits_every_per_layer_metric():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ea.build_complex(4, "X0", use_cache=False)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert set(tracer.missing) <= ABSENT
    metrics = tracing.per_layer_metrics(tracer.spans, 1, 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared if not m["name"].startswith("trace.")}
    assert wanted <= set(metrics)
