"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one pass/fail line for its criterion; the CLI
``verify-all`` subcommand runs the same functions.
"""

import pytest

from ksmode import acceptance


def _report(key, checks):
    ok = all(c.passed for c in checks)
    print(f"\ncriterion {key}: {'PASS' if ok else 'FAIL'}")
    for c in checks:
        state = "pass" if c.passed else "FAIL"
        print(f"  [{state}] {c.name}: value={c.value:.6g} tol={c.tolerance:.6g}")
    return ok


@pytest.mark.parametrize("key", list(acceptance.CRITERIA))
def test_criterion(key):
    checks = acceptance.CRITERIA[key]()
    assert _report(key, checks), f"criterion {key} failed"
