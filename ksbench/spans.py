"""Span recorder and complete function wrapping for the traced run.

The traced run replaces each layer function with a wrapper that records one
span per call: its name, start, end and the span that was open when it was
called.  Spans stay in memory for one pass and are reduced to per-function
and per-layer tables when the pass ends.

A function is replaced in *every* module namespace that binds it, because
``spectra`` and ``evolution`` import ``assemble_Ll`` and
``cumulative_power_integral`` by name; replacing only the defining module
would miss those calls.  The ``lapack`` layer is the ``scipy.linalg``
namespace, through which every module reaches LAPACK; scipy's own internal
calls bind the functions in private submodules and stay untraced.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from contextlib import contextmanager

# Layer name -> module whose functions form the layer.  ``profile`` and
# ``cli`` are deliberately not layers: ``profile`` closed forms take a few
# milliseconds per run and ``cli`` only formats reports around the criteria.
LAYER_MODULES = {
    "operators": "ksmode.operators",
    "spectra": "ksmode.spectra",
    "evolution": "ksmode.evolution",
    "radial": "ksmode.radial",
    "ggmt": "ksmode.ggmt",
    "waveop": "ksmode.waveop",
}
LAPACK_FUNCTIONS = ("eig", "eigvals", "eigh", "eigvalsh", "eig_banded",
                    "eigvals_banded", "lu_factor", "lu_solve", "solve",
                    "solve_banded", "solve_triangular", "inv", "lstsq", "svd",
                    "qr", "schur", "hessenberg", "cho_factor", "cho_solve")
ROOT_LAYER = "acceptance"
# Helpers called once per row, panel or quadrature node inside one caller's
# loop (tens of thousands of calls per pass).  Wrapping them would add more
# overhead than they take; their time shows as their caller's self time.
INNER_LOOP = frozenset({"radial.deriv_stencil", "radial.power_moment",
                        "radial.panel_coefficients", "radial._origin_exponent",
                        "ggmt.w1_potential"})


class Recorder:
    """In-memory span list for one pass, plus the counters probes fill."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index or -1)
        self._stack: list = []
        self.assemble_keys: set = set()
        self.eig_n3 = 0
        self.eig_vectors = 0
        self.scan_candidates = 0

    @contextmanager
    def root(self, key: str):
        """Root span of one acceptance criterion."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, f"{ROOT_LAYER}.{key}", start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, probe=None):
        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced


# -- probes: counters measured where the work happens -------------------------

def _probe_assemble(rec, args, kwargs, result):
    grid = result.grid
    zero = bool(kwargs.get("zero_profile", args[2] if len(args) > 2 else False))
    rec.assemble_keys.add((result.l, zero, grid.n, float(grid.rmax),
                           hash(grid.nodes.tobytes())))


def _probe_eig(rec, args, kwargs, result):
    n = len(args[0]) if args else len(kwargs["a"])
    rec.eig_n3 += n ** 3
    want_right = kwargs.get("right", True)
    want_left = kwargs.get("left", False)
    rec.eig_vectors += n * (int(bool(want_right)) + int(bool(want_left)))


def _probe_scan(rec, args, kwargs, result):
    rec.scan_candidates += len(result[1])


PROBES = {
    "operators.assemble_Ll": _probe_assemble,
    "lapack.eig": _probe_eig,
    "spectra.unstable_scan_detailed": _probe_scan,
}


# -- installation ---------------------------------------------------------------

def _namespaces():
    """Every module whose globals may bind a traced function."""
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "ksmode" or name.startswith("ksmode."))]
    mods.append(sys.modules["scipy.linalg"])
    return mods


def traced_functions() -> dict:
    """{span name: original function} for every function of every layer."""
    import scipy.linalg
    found = {}
    for layer, modname in LAYER_MODULES.items():
        mod = sys.modules[modname]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and name not in INNER_LOOP):
                found[name] = obj
    for attr in LAPACK_FUNCTIONS:
        found[f"lapack.{attr}"] = getattr(scipy.linalg, attr)
    return found


@contextmanager
def installed(rec: Recorder):
    """Replace every binding of every traced function; restore on exit."""
    originals = traced_functions()
    wrappers = {id(fn): (fn, rec.wrap(name, fn, PROBES.get(name)))
                for name, fn in originals.items()}
    replaced = []
    try:
        for mod in _namespaces():
            for attr, obj in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(obj), (None, None))
                if fn is obj:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, obj))
        yield
    finally:
        for mod, attr, obj in reversed(replaced):
            setattr(mod, attr, obj)


# -- reduction ------------------------------------------------------------------

def _inside(spans, parent: int, name: str) -> bool:
    """Whether ``parent`` or one of its ancestors is a span called ``name``."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def function_table(spans) -> dict:
    """{name: {"calls", "total_s", "self_s"}} for one pass.

    Self time is a span's duration minus its child spans' durations; total
    time skips spans nested inside a span of the same name, so recursion is
    not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        if not _inside(spans, parent, name):
            row["total_s"] += end - start
    return table


def pass_metrics(rec: Recorder, wall_s: float) -> dict:
    """Per-layer metric values of one traced pass (before the medians)."""
    spans = rec.spans
    table = function_table(spans)
    out = {f"{layer}.self_s": 0.0
           for layer in (ROOT_LAYER, *LAYER_MODULES, "lapack")}
    for name, row in table.items():
        for key, val in row.items():
            out[f"{name}.{key}"] = val
        out[f"{name.split('.', 1)[0]}.self_s"] += row["self_s"]

    calls = table.get("operators.assemble_Ll", {}).get("calls", 0)
    out["operators.assemble_Ll.distinct_ratio"] = (
        len(rec.assemble_keys) / calls if calls else 0.0)
    out["lapack.eig.n3_sum"] = rec.eig_n3
    out["lapack.eig.vectors"] = rec.eig_vectors
    out["spectra.vector_use_ratio"] = (
        rec.scan_candidates / rec.eig_vectors if rec.eig_vectors else 0.0)

    is_root = [s[3] < 0 for s in spans]
    covered = sum(end - start for name, start, end, parent in spans
                  if parent >= 0 and is_root[parent])
    out["trace.coverage_frac"] = covered / wall_s

    out["evolution.shoot.runs"] = sum(
        _inside(spans, parent, "evolution.shoot_stable_manifold")
        for name, _, _, parent in spans
        if name == "evolution.nonlinear_radial_evolve")
    return out


SPECIAL_METRICS = ("operators.assemble_Ll.distinct_ratio", "lapack.eig.n3_sum",
                   "lapack.eig.vectors", "spectra.vector_use_ratio",
                   "evolution.shoot.runs", "trace.coverage_frac",
                   "trace.overhead_frac")


def metric_names(criteria) -> set:
    """Every per-layer metric a traced pass can report (absent ones read 0)."""
    spans = {f"{ROOT_LAYER}.{key}" for key in criteria} | set(traced_functions())
    names = {f"{s}.{key}" for s in spans for key in ("calls", "total_s", "self_s")}
    names |= {f"{layer}.self_s" for layer in (ROOT_LAYER, *LAYER_MODULES, "lapack")}
    return names | set(SPECIAL_METRICS)


def call_counts(spans) -> dict:
    counts = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes (absent reads as 0)."""
    names = set().union(*per_pass)
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass)
            for name in names}
