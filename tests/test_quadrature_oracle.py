"""Exact product integration against an independent high-precision oracle.

The prefix integral (with a power-law origin model) and the suffix-integral
matrix of the dense operators (zero beyond rmax) integrate the
piecewise-linear interpolant of nodal data against s^a in closed form.
mpmath.quad of the same interpolant, panel by panel at 30 digits, must
agree to round-off on random grids and data.  So must the piecewise-cubic
rule, against mpmath.quad of the cubic interpolants it integrates.  Its
panel moments int_0^delta t^m (t + u)^a dt must agree to round-off with
mpmath.quad at 40 digits, on narrow panels far from the origin and on the
wide panels next to it.
"""

import numpy as np
import pytest

from ksmode.operators import _suffix_matrix
from ksmode.radial import (_panel_moments, cumulative_power_integral,
                           cumulative_power_integral_cubic, make_grid)

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
        got_suffix = _suffix_matrix(grid, a) @ values
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


@st.composite
def cubic_cases(draw):
    """A uniform or geometric grid, float nodal data and an exponent a."""
    n = draw(st.integers(16, 40))
    rmax = draw(st.floats(0.5, 50.0))
    stretch = draw(st.one_of(
        st.just("uniform"), st.tuples(st.just("geometric"), st.floats(1.01, 1.2))))
    values = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    a = draw(st.sampled_from([0, 1, 2, 3]))
    return make_grid(n, rmax, stretch), values, a


def mpmath_cubic_prefix(grid, values, a):
    """int_0^{r_i} p(s) s^a ds by mpmath.quad at 30 digits, with p on the
    panel [r_j, r_{j+1}] the cubic through nodes s0..s0+3, s0 = j - 1
    clipped to [0, n - 4], and on [0, r_1] the cubic through the first four
    nodes; each cubic in Lagrange form."""
    mpmath.mp.dps = 30
    r = [mpmath.mpf(float(x)) for x in grid.nodes]
    f = [mpmath.mpf(float(x)) for x in values]
    n = len(r)

    def integral(s0, lo, hi):
        xs, fs = r[s0:s0 + 4], f[s0:s0 + 4]

        def integrand(s):
            total = mpmath.mpf(0)
            for k in range(4):
                term = fs[k]
                for i in range(4):
                    if i != k:
                        term *= (s - xs[i]) / (xs[k] - xs[i])
                total += term
            return total * s ** a

        return mpmath.quad(integrand, [lo, hi], method="gauss-legendre")

    parts = [integral(0, mpmath.mpf(0), r[0])]
    parts += [integral(min(max(j - 1, 0), n - 4), r[j], r[j + 1])
              for j in range(n - 1)]
    return np.array([float(x) for x in np.cumsum(parts)])


class TestCubicRuleOracle:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(cubic_cases())
    def test_cubic_rule_matches_mpmath(self, case):
        # the whole rule, origin cubic included: the closed-form Lagrange
        # weights integrate the interpolant up to round-off
        grid, values, a = case
        want = mpmath_cubic_prefix(grid, values, a)
        got = cumulative_power_integral_cubic(values, grid, a)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
