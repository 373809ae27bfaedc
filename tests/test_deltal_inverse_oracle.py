"""The two forms of Delta_l^{-1} agree on random grids, classes and data.

``kernel_deltal_inv_matrix`` applies the explicit Green's kernel and
``factorized_deltal_inv_matrix`` composes the two first-order inverses
D_{-l}^{-1} D_{l+2}^{-1}.  Both integrate the same piecewise-linear
interpolant exactly, so they must agree to round-off on any grid.
"""

import numpy as np
import pytest

from ksmode.operators import factorized_deltal_inv_matrix, kernel_deltal_inv_matrix
from ksmode.radial import make_grid

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def deltal_cases(draw):
    """A uniform or geometric grid, a class index l and a seeded vector."""
    n = draw(st.integers(16, 200))
    rmax = draw(st.floats(5.0, 40.0))
    stretch = draw(st.one_of(
        st.just("uniform"), st.tuples(st.just("geometric"), st.floats(1.001, 1.05))))
    l = draw(st.integers(0, 6))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(n)
    return make_grid(n, rmax, stretch), l, x


class TestDeltaLInverseTwins:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(deltal_cases())
    def test_kernel_and_factorized_forms_agree(self, case):
        # round-off agreement, 1e-10 of max |Delta_l^{-1} x|; the worst case
        # seen on these draws is below 1e-11
        grid, l, x = case
        kern = kernel_deltal_inv_matrix(grid, l) @ x
        fact = factorized_deltal_inv_matrix(grid, l) @ x
        assert np.max(np.abs(kern - fact)) <= 1e-10 * np.max(np.abs(kern))
