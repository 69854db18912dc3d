"""The names the benchmark reads off the package.

perfbench/run.py indexes every per-layer metric that BENCHMARK.json
lists, and perfbench/tracing.py wraps public functions and reads tables
by name, so deleting one of them breaks every traced benchmark run.
Both files are only read here."""

import importlib
import importlib.util
import inspect
import json
import os

from collinext import _kernels
from collinext.gf import make_field
from collinext.projgeom import ProjSpace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def wrapped_spans(tracing):
    """Span names tracing.install gives the package: its public module
    functions, and the class entry points."""
    names = {span for _, _, _, span in tracing.CLASS_ENTRIES}
    for m in tracing.MODULES:
        mod = importlib.import_module("collinext." + m)
        names.update("%s.%s" % (m.lstrip("_"), attr)
                     for attr, obj in vars(mod).items()
                     if not attr.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == mod.__name__)
    return names


def test_per_layer_spans_name_traced_functions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracing = _tracing()
    spans = wrapped_spans(tracing)
    pinned = [m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
              if m["name"].endswith((".s", ".calls"))]
    assert pinned and "projgeom.desargues_admissible" in pinned
    assert sorted(set(pinned) - spans) == []
    for m, cls, meth, _ in tracing.CLASS_ENTRIES:
        klass = getattr(importlib.import_module("collinext." + m), cls)
        assert callable(getattr(klass, meth)), (cls, meth)


def test_space_tables_and_kernel_flag_exist():
    S = ProjSpace(make_field(2), 3)
    for name in _tracing().SPACE_TABLES:
        assert hasattr(S, name), name
    assert isinstance(_kernels.USE_NUMBA, bool)
