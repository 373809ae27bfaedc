"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one pass/fail line for its criterion; the CLI
``verify-all`` subcommand runs the same functions.  A check the benchmark
records a reference value for must also stay within the benchmark's drift
tolerance of it, so a drift the benchmark would grade as incorrect fails
here first.
"""

import importlib.util
from pathlib import Path

import pytest

from ksmode import acceptance

ROOT = Path(__file__).resolve().parent.parent


def _load_reference():
    """ksbench/reference.py, imported by path (ksbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "ksbench_reference", ROOT / "ksbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _load_reference()
# tag -> reference value, over every workload
REFERENCE_VALUES = {tag: ref for refs in REFERENCE.REFERENCE.values()
                    for tag, ref in refs.items()}


def _report(key, checks):
    ok = all(c.passed for c in checks)
    print(f"\ncriterion {key}: {'PASS' if ok else 'FAIL'}")
    for c in checks:
        state = "pass" if c.passed else "FAIL"
        print(f"  [{state}] {c.name}: value={c.value:.6g} tol={c.tolerance:.6g}")
    return ok


def _drifted(checks):
    """(tag, value, reference, tolerance) of every check past its drift
    tolerance."""
    out = []
    for c in checks:
        if c.tag in REFERENCE_VALUES:
            ref = REFERENCE_VALUES[c.tag]
            tol = REFERENCE.drift_tolerance(c.tag, ref)
            if not abs(c.value - ref) <= tol:
                out.append((c.tag, c.value, ref, tol))
    return out


@pytest.mark.parametrize("key", list(acceptance.CRITERIA))
def test_criterion(key):
    checks = acceptance.CRITERIA[key]()
    assert _report(key, checks), f"criterion {key} failed"
    assert _drifted(checks) == [], f"criterion {key} drifted from the benchmark"
