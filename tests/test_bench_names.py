"""The benchmark's per-layer metrics name functions that still exist.

A traced run charges a span to each public zok function it wraps by name,
so a metric whose function was renamed or folded away reads 0 on every
workload.  This reads BENCHMARK.json and bench/spec.py and changes neither.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Functions that per-layer metrics still name but that no longer exist.
# A name leaves this list when its metric is renamed or removed.
GONE = {"zoomout.subscene_bbox", "zoomout.neighbors_within_radius",
        "learner.backprop", "weaksup.image_loss_and_grad", "weaksup.train_localizer"}

# metric prefixes that sum whole layers or describe the tracer, not a function
NOT_FUNCTIONS = ("layer.", "setup.", "trace.")


def span_groups():
    spec = importlib.util.spec_from_file_location("bench_spec", ROOT / "bench" / "spec.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_GROUPS


def named_functions():
    """Every function a per-layer .s, .incl_s or .calls metric names."""
    groups = span_groups()
    names = set()
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = metric["name"]
        if name.startswith(NOT_FUNCTIONS):
            continue
        for suffix in (".incl_s", ".calls", ".s"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                names.update(groups.get(base, (base,)))
                break
    return sorted(names)


def resolves(name):
    """Whether layer.attr is a public function defined in zok.layer."""
    layer, attr = name.split(".")
    module = importlib.import_module(f"zok.{layer}")
    fn = getattr(module, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__)


@pytest.mark.parametrize("name", named_functions())
def test_metric_names_a_public_function(name):
    if name in GONE:
        assert not resolves(name), f"{name} exists again; take it out of GONE"
    else:
        assert resolves(name), f"no public function {name}: its metric reads 0"


def test_gone_names_are_still_named():
    assert GONE <= set(named_functions())
