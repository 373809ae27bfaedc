"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(call, n, warmup=None):
    """Run ``call`` under tracemalloc, after one untraced warm-up call
    (``warmup``, or ``call`` itself) that takes the first-call imports and
    caches.  Returns ``(result, kept, peak)``: the memory still held when
    the call returns and the most held during it, in units of 8 n^2 bytes,
    one n x n float matrix."""
    (warmup or call)()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = 8 * n * n
    return result, kept / unit, peak / unit


@pytest.fixture
def traced_peak():
    """``_traced_peak``: the peak memory of a call in units of 8 n^2."""
    return _traced_peak
