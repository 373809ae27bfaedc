"""The benchmark's per-layer metrics name functions that still exist, and
its set-up and probes still read the library as it is.

A traced benchmark run looks every ``<layer>.<function>.{calls,total_s,
self_s}`` metric of BENCHMARK.json up among the functions it wraps, so a
refactor that renames or deletes one of them breaks the traced run.  Its
probes read the results of the functions they wrap, so a changed return
type breaks it too.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from ksmode import acceptance, operators, spectra
from ksmode.radial import make_grid

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
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


def load_ksbench(name, monkeypatch):
    """A module of ksbench/, imported by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location(
        f"ksbench_{name}", ROOT / "ksbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def bindings():
    """{(module, name): id} of every callable the traced run may replace."""
    mods = [m for name, m in sys.modules.items()
            if name == "ksmode" or name.startswith("ksmode.")]
    return {(m.__name__, attr): id(obj) for m in mods + [scipy.linalg]
            for attr, obj in vars(m).items() if callable(obj)}


def test_workload_setup_and_probes_read_the_library(monkeypatch):
    workloads = load_ksbench("workloads", monkeypatch)
    spans = load_ksbench("spans", monkeypatch)
    for workload in workloads.WORKLOADS.values():
        workload.setup(1)
    before = bindings()
    rec = spans.Recorder()
    ladder = spectra.refinement_ladder(n0=100, rmax0=20.0)
    grid = make_grid(50, 10.0)
    with spans.installed(rec):
        # threshold 0.5 leaves class 2 one candidate and no accepted mode,
        # so the scan probe must read the candidates, not the accepted set
        scan = spectra.unstable_scan_detailed(2, threshold=0.5, ladder=ladder)
        keys = set(rec.assemble_keys)
        operators.assemble_Ll(0, grid)
        n3, vectors = rec.eig_n3, rec.eig_vectors
        scipy.linalg.eig(np.diag([1.0, 2.0, 3.0]))
    assert bindings() == before
    assert rec.scan_candidates == len(scan.candidates) == 1
    assert scan.accepted == []
    assert rec.assemble_keys - keys == {
        (0, False, 50, 10.0, hash(grid.nodes.tobytes()))}
    assert (rec.eig_n3 - n3, rec.eig_vectors - vectors) == (27, 3)
    assert any(span[0] == "spectra.unstable_scan_detailed" for span in rec.spans)
