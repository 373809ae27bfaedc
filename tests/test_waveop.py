"""The intertwining map, its commutator identity and the conjugations."""

import numpy as np
import pytest

from ksmode import profile, waveop
from ksmode.radial import make_grid

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def t_grids(draw):
    """A uniform or geometric grid of 200-3000 nodes out to rmax in 15-60."""
    n = draw(st.integers(200, 3000))
    rmax = draw(st.floats(15.0, 60.0))
    stretch = draw(st.one_of(
        st.just("uniform"),
        st.tuples(st.just("geometric"), st.floats(1.0001, 1.01))))
    return make_grid(n, rmax, stretch)


class TestApplyT:
    def test_annihilates_translation_mode(self):
        g = make_grid(8000, 60.0, "uniform")
        dq = profile.q_deriv(g.nodes, 1)
        ratio = g.norm(waveop.apply_T(dq, g)) / g.norm(dq)
        assert ratio <= 1e-6

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(t_grids())
    def test_annihilates_translation_mode_on_random_grids(self, g):
        # second order in the largest spacing: 150 random grids of this
        # kind gave at most 0.022 h_max^2 in L^2(r^2 dr)
        r = g.nodes
        dq = profile.q_deriv(r, 1)
        ratio = g.norm(waveop.apply_T(dq, g)) / g.norm(dq)
        h_max = np.max(np.diff(r, prepend=0.0))
        assert ratio <= 0.1 * h_max ** 2

    def test_identity_on_linear_data(self):
        g = make_grid(4000, 60.0, "uniform")
        r = g.nodes
        t = waveop.apply_T(r, g)
        assert np.max(np.abs(t - 4.0 * r ** 3 / (5.0 * (r * r + 2.0)))) < 1e-12

    def test_zero(self):
        g = make_grid(100, 20.0)
        assert np.max(np.abs(waveop.apply_T(np.zeros(100), g))) == 0.0

    def test_linearity(self):
        g = make_grid(500, 30.0)
        r = g.nodes
        f1 = r * np.exp(-r)
        f2 = r / (1.0 + r * r)
        lhs = waveop.apply_T(2.0 * f1 - 3.0 * f2, g)
        rhs = 2.0 * waveop.apply_T(f1, g) - 3.0 * waveop.apply_T(f2, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))

    def test_weight_form_cross_check(self):
        # the rearranged path carries the s^3 factor in its data, so its
        # origin panels are only approximate; compare away from the first
        # nodes where the two independent arrangements must coincide
        g = make_grid(8000, 40.0, "uniform")
        r = g.nodes
        for f in (r * np.exp(-r * r / 4.0), profile.q_deriv(r, 1)):
            main = waveop.apply_T(f, g)
            alt = waveop.apply_T_weight_form(f, g)
            assert np.max(np.abs(main - alt)[r >= 0.1]) < 1e-6

    def test_origin_exponent_raised_by_one(self):
        # class-1 data f ~ r maps to Tf ~ r^2-behaviour at the origin
        g = make_grid(4000, 40.0, ("geometric", 30.0 ** (1.0 / 3999.0)))
        r = g.nodes
        f = r * np.exp(-r * r / 4.0)
        t = waveop.apply_T(f, g)
        mask = (r > 2.0 * r[0]) & (r < 0.1)
        slope = np.polyfit(np.log(r[mask]), np.log(np.abs(t[mask])), 1)[0]
        assert slope >= 2.0 - 0.3


class TestCommutator:
    @pytest.mark.parametrize("fn", [
        lambda r: r * np.exp(-r * r / 4.0),
        lambda r: r / (1.0 + r * r) ** 3,
    ])
    def test_residual_converges_quadratically(self, fn):
        res = [waveop.commutator_residual(fn(make_grid(n, 40.0).nodes),
                                          make_grid(n, 40.0))
               for n in (2000, 4000, 8000)]
        orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
        assert np.all(orders >= 1.8)

    def test_translation_mode_both_sides_small(self):
        g = make_grid(8000, 40.0, "uniform")
        f = profile.q_deriv(g.nodes, 1)
        # T L_1 Q' = -(1/2) T Q' = 0; the residual measures two nearly-zero
        # sides whose difference is amplified by the 12/r^2 coefficient
        assert waveop.commutator_residual(f, g) < 1e-2


class TestPotentialMin:
    def test_location_and_value(self):
        argmin, vmin = waveop.potential_min_tilde_L1_prime()
        assert abs(vmin - 0.408) < 2e-3
        assert abs(argmin - 3.2) < 0.1
        assert vmin >= 0.4  # the 2/5 spectral floor holds pointwise

    def test_spot_value(self):
        assert np.isclose(float(profile.tilde_L1_prime_potential(2.0)),
                          7.0 / 6.0, atol=1e-15)


class TestNonvanishing:
    def test_profile_gradient_passes(self):
        res = waveop.nonvanishing_check(lambda r: profile.q_deriv(r, 1))
        assert res.passed and res.sign == -1 and res.bracket is None
        # |D_3^{-1} Q'|/r^2 runs from 2 at the origin down to 8/9 at r = 1
        assert abs(res.origin_margin - 8.0 / 9.0) < 1e-3

    def test_scaled_sampler_passes(self):
        res = waveop.nonvanishing_check(lambda r: 2.0 * profile.q_deriv(r, 1))
        assert res.passed

    def test_sign_flip_detected_with_bracket(self):
        def flipped(r):
            return profile.q_deriv(r, 1) + 30.0 * np.exp(-(r - 10.0) ** 2)
        res = waveop.nonvanishing_check(flipped)
        assert not res.passed
        assert res.bracket is not None
        assert 5.0 < res.bracket[0] < 12.0


class TestCoefficientIdentities:
    def test_pointwise_residuals(self):
        ids = waveop.coefficient_identity_residuals(np.linspace(0.05, 50.0, 3000))
        assert ids["drift"] <= 1e-8
        assert ids["potential"] <= 1e-8
        assert ids["conjugation"] <= 1e-8

    def test_conjugation_residual_sees_a_wrong_potential(self, monkeypatch):
        # the residual reads profile's potential, so a wrong one shows
        real = profile.tilde_L1_prime_potential
        monkeypatch.setattr(profile, "tilde_L1_prime_potential",
                            lambda r: real(r) + 1e-6 * r)
        ids = waveop.coefficient_identity_residuals(np.linspace(0.05, 50.0, 2000))
        assert ids["conjugation"] > 1e-5 and ids["drift"] <= 1e-8
