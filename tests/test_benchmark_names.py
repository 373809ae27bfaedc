"""The benchmark's per-layer metrics name functions that still exist.

A traced benchmark run looks every ``<layer>.<function>.{calls,total_s,
self_s}`` metric of BENCHMARK.json up among the functions it wraps, so a
refactor that renames or deletes one of them breaks the traced run.
"""

import importlib
import inspect
import json
from pathlib import Path

from ksmode import acceptance

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPAN_KEYS = ("calls", "total_s", "self_s")


def function_metrics():
    spec = json.loads(BENCHMARK.read_text())
    out = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in SPAN_KEYS:
            try:
                importlib.import_module(f"ksmode.{parts[0]}")
            except ModuleNotFoundError as err:
                if err.name != f"ksmode.{parts[0]}":
                    raise
                continue  # lapack: not a ksmode module
            out.append(metric["name"])
    return out


def test_named_functions_exist():
    names = function_metrics()
    assert "operators.assemble_Ll.calls" in names
    for name in names:
        layer, func, _ = name.split(".")
        if layer == "acceptance":
            # root spans are named after the criterion keys
            assert func in acceptance.CRITERIA, name
            continue
        module = importlib.import_module(f"ksmode.{layer}")
        obj = getattr(module, func, None)
        assert inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name
