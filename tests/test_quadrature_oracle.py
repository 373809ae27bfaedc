"""Exact product integration against an independent high-precision oracle.

The prefix integral (with a power-law origin model) and the suffix integral
(zero beyond rmax) integrate the piecewise-linear interpolant of nodal data
against s^a in closed form.  mpmath.quad of the same interpolant, panel by
panel at 30 digits, must agree to round-off on random grids and data.  The
piecewise-cubic rule's panel moments int_0^delta t^m (t + u)^a dt must
agree to round-off with mpmath.quad at 40 digits, on narrow panels far from
the origin and on the wide panels next to it.
"""

import numpy as np
import pytest

from ksmode.radial import (_panel_moments, cumulative_power_integral,
                           make_grid, suffix_power_integral)

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def quadrature_cases(draw):
    """A uniform or geometric grid, nodal data (integer or float), an
    exponent a and an origin power p with p + a + 1 > 0."""
    n = draw(st.integers(16, 48))
    rmax = draw(st.floats(0.5, 50.0))
    stretch = draw(st.one_of(
        st.just("uniform"), st.tuples(st.just("geometric"), st.floats(1.01, 1.2))))
    integer = draw(st.booleans())
    elems = st.integers(-5, 5) if integer else st.floats(-10.0, 10.0)
    values = np.array(draw(st.lists(elems, min_size=n, max_size=n)))
    a = draw(st.sampled_from([-2, -1, 0, 1, 2, 3]))
    p = draw(st.sampled_from([p for p in (1, 2, 3) if p + a + 1 > 0]))
    return make_grid(n, rmax, stretch), values, float(a), float(p)


def mpmath_prefix_suffix(grid, values, a, p):
    """int_0^{r_i} and int_{r_i}^{rmax} of f s^a by mpmath.quad, with f the
    piecewise-linear interpolant and f_1 (s/r_1)^p on the origin panel."""
    mpmath.mp.dps = 30
    r = [mpmath.mpf(float(x)) for x in grid.nodes]
    f = [mpmath.mpf(float(x)) for x in values]

    def panel(u, v, fu, fv):
        return mpmath.quad(lambda s: (fu + (fv - fu) * (s - u) / (v - u)) * s ** a,
                           [u, v], method="gauss-legendre")

    panels = [panel(r[j], r[j + 1], f[j], f[j + 1]) for j in range(len(r) - 1)]
    origin = mpmath.quad(lambda s: f[0] * (s / r[0]) ** p * s ** a, [0, r[0]],
                         method="gauss-legendre")
    prefix = np.array([float(x) for x in np.cumsum([origin] + panels)])
    suffix = np.array([float(x) for x in np.cumsum([mpmath.mpf(0)] + panels[::-1])])
    return prefix, suffix[::-1]


class TestQuadratureOracle:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(quadrature_cases())
    def test_prefix_and_suffix_match_mpmath(self, case):
        # exact product integration of the interpolant: equal to the
        # high-precision integral up to round-off, 1e-12 of max |integral|
        grid, values, a, p = case
        prefix, suffix = mpmath_prefix_suffix(grid, values, a, p)
        got_prefix = cumulative_power_integral(values, grid, a, p)
        got_suffix = suffix_power_integral(values, grid, a, tail=False)
        for got, want in ((got_prefix, prefix), (got_suffix, suffix)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestCubicMomentOracle:
    @pytest.mark.parametrize("a", [0, 2, 3])
    @pytest.mark.parametrize("u, delta", [
        (1.0, 1e-6), (37.5, 3.75e-5),   # narrow: delta/u = 1e-6
        (0.1, 0.1),                      # first panel past r_1, uniform grid
        (2e-3, 6e-2),                    # wider than its distance to 0
    ])
    def test_moments_match_mpmath(self, a, u, delta):
        # every term of the finite binomial sum is positive: no cancellation,
        # so each moment is right to a few ulps whatever delta/u
        got = _panel_moments(a, np.array([u]), np.array([delta]))[:, 0]
        with mpmath.workdps(40):
            mu, md = mpmath.mpf(u), mpmath.mpf(delta)
            for m in range(4):
                want = mpmath.quad(lambda t: t ** m * (t + mu) ** a, [0, md])
                assert abs(got[m] - float(want)) <= 1e-15 * float(want)
