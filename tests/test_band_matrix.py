"""BandMatrix on random bands of every width the package could use.

The local operators have one subdiagonal and one or two superdiagonals;
these draws cover kl, ku in 0..3, so the band layout, the DIA product and
the gbtrf/gbtrs pair are checked beyond the widths the operators happen
to have.
"""

import numpy as np
import pytest
import scipy.linalg

from ksmode.operators import BandMatrix

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def band_cases(draw):
    """A diagonally dominant band matrix, a vector and a stack of three."""
    kl, ku = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    n = draw(st.integers(16, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    band = rng.standard_normal((kl + ku + 1, n))
    # a diagonal above the sum of its row's other entries keeps the solve
    # well conditioned
    band[ku] = np.sign(band[ku]) * (kl + ku + 1.0 + np.abs(band[ku]))
    return BandMatrix(band, kl, ku), rng.standard_normal(n), \
        rng.standard_normal((3, n))


class TestBandMatrix:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(band_cases())
    def test_band_product_and_solve(self, case):
        b, y, stack = case
        dense = b.toarray()
        lower, upper = scipy.linalg.bandwidth(dense)
        assert lower <= b.kl and upper <= b.ku
        ref = dense @ y
        assert np.max(np.abs(b @ y - ref)) <= 1e-13 * np.max(np.abs(ref))
        # a stack is multiplied and solved row by row, with each row's bits
        b.factor()
        for got, row in zip(b @ stack, stack):
            assert got.tobytes() == (b @ row).tobytes()
        for got, row in zip(b.solve(stack), stack):
            assert got.tobytes() == b.solve(row).tobytes()
        x = b.solve(b @ y)
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(band_cases())
    def test_eye_plus_and_norm_match_the_dense_matrix(self, case):
        b = case[0]
        shifted = b.eye_plus(-0.3)
        dense = np.eye(b.n) - 0.3 * b.toarray()
        assert np.array_equal(shifted.toarray(), dense)
        norm = np.linalg.norm(dense, np.inf)
        assert abs(shifted.norm_inf() - norm) <= 1e-15 * norm
