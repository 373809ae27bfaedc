"""Scalar estimates: interpolation constants, the nonlocality functional,
the eigenvalue-count bound, coercivity and the exact rationals."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad

from ksmode import ggmt, profile
from ksmode.radial import RadialFunction, make_grid, weighted_inner


def geometric_grid(n, rmax, growth=30.0):
    return make_grid(n, rmax, ("geometric", growth ** (1.0 / (n - 1))))


def adaptive_mu(l, alpha, W):
    """Oracle for mu in the primary order (outer in s): adaptive ``quad`` on
    each of the library's 145 log-spaced segments, with I(s) = int_0^s K as
    whole-segment prefix sums plus one inner ``quad`` per outer node, and
    the library's analytic tails beyond S."""
    beta = 2.0 * l + 2.0 * alpha
    lma = l - alpha
    k_inner = lambda r: profile.v2(r) ** 2 / ggmt.w1_potential(lma, r) * r ** beta
    k_outer = lambda s: s ** (-beta) / float(W.fn(s))
    k_inf = 64.0 / (8.0 * lma + 4.0)
    S = ggmt._S_CUT
    breaks = np.concatenate(([0.0], np.logspace(-4, math.log10(S), 145)))
    whole = [quad(k_inner, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
             for lo, hi in zip(breaks[:-1], breaks[1:])]
    prefix = np.concatenate(([0.0], np.cumsum(whole)))

    def inner(s):
        j = min(max(np.searchsorted(breaks, s) - 1, 0), len(breaks) - 2)
        part, _ = quad(k_inner, breaks[j], s, epsabs=1e-13, epsrel=1e-11)
        return prefix[j] + part

    total = sum(quad(lambda s: k_outer(s) * inner(s), lo, hi, epsabs=1e-12,
                     epsrel=1e-9, limit=200)[0]
                for lo, hi in zip(breaks[:-1], breaks[1:]))
    tail = (1.0 / W.w_inf) * (
        prefix[-1] * S ** (1.0 - beta) / (beta - 1.0)
        + k_inf / (beta - 3.0) * (S ** -2.0 / 2.0 - S ** -2.0 / (beta - 1.0)))
    return 0.25 * (total + tail)


class TestAlphaBeta:
    def test_reference_values(self):
        a4, b4 = ggmt.alpha_beta(4.0)
        assert b4 == 1.0 / 36.0
        assert abs(a4 - (1.0 / 18.0 + math.log(3.0) - 0.5)) < 1e-15
        assert abs(a4 - 0.65417) < 1e-5
        assert a4 < 2.0 / 3.0

    def test_small_radius_limits(self):
        a, b = ggmt.alpha_beta(1e-5)
        assert abs(a) < 1e-9
        assert abs(b - 0.25) < 1e-9

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_quadrature_cross_validation(self, R):
        # alpha_beta raises internally beyond 1e-10; recheck independently
        a, b = ggmt.alpha_beta(R)
        aq, _ = quad(lambda r: r ** 3 / (2.0 + r * r) ** 2, 0.0, R)
        bq, _ = quad(lambda r: r / (2.0 + r * r) ** 2, R, np.inf)
        assert abs(a - aq) < 1e-10 and abs(b - bq) < 1e-10

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            ggmt.alpha_beta(0.0)

    def test_cross_checks_run_once_per_radius(self, monkeypatch):
        calls = []

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)
        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        ggmt.alpha_beta.cache_clear()
        first = ggmt.alpha_beta(4.0)
        assert ggmt.alpha_beta(4.0) == first
        assert len(calls) == 2


class TestW1Potential:
    def test_value_at_origin(self):
        assert np.isclose(float(ggmt.w1_potential(1.8, 0.0)), 8.6, atol=1e-14)

    def test_far_field(self):
        r = 1e3
        lead = (8.0 * 1.8 + 4.0) / r ** 4
        assert abs(float(ggmt.w1_potential(1.8, r)) / lead - 1.0) < 1e-2

    def test_positivity_boundary(self):
        with pytest.raises(ValueError):
            ggmt.w1_potential(-0.5, 1.0)


class TestMu:
    def test_reference_value(self):
        mu = ggmt.mu_functional(2, 0.2, ggmt.paper_weight())
        assert abs(mu - 1.9137) < 5e-3

    def test_linearity_in_inverse_weight(self):
        w = ggmt.paper_weight()
        doubled = ggmt.WeightSpec(fn=lambda r: 2.0 * w.fn(r),
                                  w_inf=2.0 * w.w_inf, label="2*paper")
        mu1 = ggmt.mu_functional(2, 0.2, w)
        mu2 = ggmt.mu_functional(2, 0.2, doubled)
        # on fixed nodes doubling W halves every term exactly
        assert abs(mu1 - 2.0 * mu2) < 1e-14 * mu1

    def test_constant_weight_finite(self):
        const = ggmt.WeightSpec(
            fn=lambda r: np.ones_like(np.asarray(r, dtype=float)), w_inf=1.0,
            label="const(1)")
        mu = ggmt.mu_functional(2, 0.2, const)
        assert 0.0 < mu < np.inf

    def test_nan_weight_rejected(self):
        # (-1 + r^2)^{-1.2} is NaN for r < 1
        with pytest.raises(ValueError, match="strictly positive"):
            ggmt.paper_weight(eps=-1.0).check_mu(2, 0.2)

    def test_weak_tail_rejected(self):
        bad = ggmt.WeightSpec(fn=lambda r: np.asarray(r, dtype=float) ** -3.0,
                              w_inf=0.0, label="weak")
        with pytest.raises(ValueError):
            ggmt.mu_functional(2, 0.2, bad)

    @pytest.mark.parametrize("l,alpha,weight", [
        (3, 0.3, ggmt.paper_weight()),
        (2, 0.2, ggmt.paper_weight(eps=1e-8)),
        (2, 0.2, ggmt.paper_weight(eps=100.0)),
    ], ids=["l3-a0.3", "w_eps-1e-8", "w_eps-100"])
    def test_matches_adaptive_quadrature_oracle(self, l, alpha, weight):
        # the mpmath oracle below covers the reference setting
        mu = ggmt.mu_functional(l, alpha, weight)
        assert abs(mu - adaptive_mu(l, alpha, weight)) <= 1e-12 * mu

    def test_weight_jump_inside_a_segment_is_caught(self):
        # a jump at 0.5017 lies inside one log-spaced segment, where no
        # fixed rule converges; the 21- and 15-node rules then disagree
        jump = ggmt.WeightSpec(
            fn=lambda r: np.where(np.asarray(r, dtype=float) > 0.5017,
                                  1.0, 100.0),
            w_inf=1.0, label="jump")
        with pytest.raises(RuntimeError, match="rules disagree"):
            ggmt.mu_functional(2, 0.2, jump)

    def test_no_scalar_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("mu fell back to scalar quadrature")
        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        assert abs(ggmt.mu_functional(2, 0.2, ggmt.paper_weight())
                   - 1.9137) < 5e-3

    def test_reference_value_matches_mpmath_oracle(self):
        # independent reference for mu(2, 0.2) in order A,
        # (1/4) int_0^inf K(r) J(r) dr with J(r) = int_r^inf W^-1 s^-beta ds,
        # from the closed forms of V2, W1 and W: J's suffix sums on the
        # breakpoints 0, 1/4, 1/2, 1, 2, ..., 256, inf, then one short inner
        # tanh-sinh quadrature per outer node, at 15 digits.  Measured gap:
        # 1.6e-15 relative; the bar is the benchmark's round-off bar.
        mpmath = pytest.importorskip("mpmath")
        mu = ggmt.mu_functional(2, 0.2, ggmt.paper_weight())
        with mpmath.workdps(15):
            beta, lma = mpmath.mpf("4.4"), mpmath.mpf("1.8")

            def k_outer(s):
                w = (mpmath.mpf("0.01") + s * s) ** mpmath.mpf("-1.2") \
                    + mpmath.mpf("0.02")
                return s ** -beta / w

            def k_inner(r):
                x = r * r + 2
                v2 = 8 * (x + 8) / x ** 3
                w1 = (8 * lma + 4) / x ** 2 + 32 / x ** 3
                return v2 ** 2 / w1 * r ** beta

            breaks = [mpmath.mpf(0), mpmath.mpf(1) / 4, mpmath.mpf(1) / 2] \
                + [mpmath.mpf(2) ** j for j in range(9)] + [mpmath.inf]
            suffix = [mpmath.mpf(0)] * len(breaks)
            for j in range(len(breaks) - 2, 0, -1):
                suffix[j] = mpmath.quad(k_outer, breaks[j:j + 2]) + suffix[j + 1]
            total = sum(
                mpmath.quad(lambda r: k_inner(r) * (
                    mpmath.quad(k_outer, [r, hi]) + tail), [lo, hi])
                for lo, hi, tail in zip(breaks, breaks[1:], suffix[1:]))
            oracle = float(total / 4)
        assert abs(oracle - mu) <= 1e-10 * mu


def count(V, l=1.0):
    """N_{4,l}(V) over the wells that bracketing V finds."""
    return ggmt.ggmt_count(4.0, l, V, ggmt.negative_part_bracket(V))


class TestCount:
    def test_prefactor(self):
        assert ggmt.ggmt_prefactor(4.0, 0.0) == pytest.approx(14.765625, abs=1e-12)

    def test_nonnegative_potential_counts_zero(self):
        assert count(lambda r: 1.0 / (1.0 + r * r)) == 0.0

    def test_log_space_integrand_matches_the_power_form(self):
        from scipy.integrate import quad

        def well(r):
            return (r - 1.0) * (r - 3.0)

        power = quad(lambda r: r ** 7.0 * abs(well(r)) ** 4.0, 1.0, 3.0,
                     epsabs=0.0, epsrel=1e-13)[0]
        got = ggmt.ggmt_count(4.0, 0.0, well, ((1.0, 3.0),))
        assert got == pytest.approx(ggmt.ggmt_prefactor(4.0, 0.0) * power,
                                    rel=1e-12)

    def test_count_that_overflows_raises(self):
        # N itself, not only its factors, exceeds a float here
        with pytest.raises(RuntimeError, match="overflows a float at p = 300"):
            ggmt.ggmt_count(300.0, 0.0, lambda r: (r - 1.0) * (r - 3.0),
                            ((1.0, 3.0),))

    def test_reference_pipeline_value(self):
        rep = ggmt.l2_pipeline()
        assert abs(rep.bigN - 0.8687) < 5e-3
        assert rep.bigN < 1.0

    def test_monotone_in_angular_index(self):
        rep = ggmt.l2_pipeline()
        u, _ = ggmt.schrodinger_potential(2, 0.2, 0.5, rep.mu,
                                          ggmt.paper_weight())
        values = [count(u, l)
                  for l in (rep.l_eff - 0.5, rep.l_eff, rep.l_eff + 0.5)]
        assert values[0] > values[1] > values[2]

    def test_reference_value_matches_mpmath_oracle(self):
        # independent reference for N(4, l_eff): the prefactor from
        # mpmath.gamma and r^{2p-1}|U_-|^p integrated over the well by
        # tanh-sinh quadrature at 30 digits
        mpmath = pytest.importorskip("mpmath")
        rep = ggmt.l2_pipeline()
        u, _ = ggmt.schrodinger_potential(rep.l, rep.alpha, rep.theta, rep.mu,
                                          ggmt.paper_weight())
        with mpmath.workdps(30):
            p = mpmath.mpf(rep.p)
            l = mpmath.mpf(rep.l_eff)
            pref = ((p - 1) ** (p - 1) * mpmath.gamma(2 * p)
                    / (p ** p * mpmath.gamma(p) ** 2) * (2 * l + 1) ** (1 - 2 * p))
            well = mpmath.quad(
                lambda r: r ** (2 * p - 1)
                * mpmath.mpf(max(-float(u(float(r))), 0.0)) ** p,
                [mpmath.mpf(rep.well[0]), mpmath.mpf(rep.well[1])])
            big_n = float(pref * well)
        assert abs(big_n - rep.bigN) <= 1e-12 * rep.bigN

    def test_non_compact_negative_part_rejected(self):
        with pytest.raises(ValueError):
            count(lambda r: -1.0)

    def test_scan_takes_a_constant_potential(self):
        # the scan evaluates V on all its radii in one call, and a callable
        # that returns one number for them all is a constant potential
        assert ggmt.negative_part_bracket(lambda r: 1.0) == ()
        assert count(lambda r: 1.0) == 0.0

    def test_pipeline_brackets_the_well_once(self, monkeypatch):
        # a bracketing is one scan, one call of U on an array of radii;
        # the pipeline's well check and its count share one
        scans = []
        potential = ggmt.schrodinger_potential
        big_n = ggmt.l2_pipeline().bigN

        def counted(*args):
            U, big_l = potential(*args)

            def scanned(r):
                scans.append(np.ndim(r))
                return U(r)
            return scanned, big_l

        monkeypatch.setattr(ggmt, "schrodinger_potential", counted)
        for _ in range(2):
            scans.clear()
            rep = ggmt.l2_pipeline()
            assert scans.count(1) == 1
            assert rep.bigN == big_n


class TestPipeline:
    def test_all_scalars(self):
        rep = ggmt.l2_pipeline()
        assert rep.big_l == pytest.approx(11.36)
        assert rep.l_eff == pytest.approx(math.sqrt(0.25 + 5.68) - 0.5, abs=1e-12)
        assert abs(rep.l_eff - 1.9352) < 1e-4
        assert rep.u_infinity == pytest.approx(0.15 - 2.0 * rep.mu * 0.02)
        assert rep.u_infinity > 0.07  # consistent with the essential-spectrum floor
        assert (1.0 - rep.theta) * rep.big_l > 0.75
        assert 0.1 < rep.well[0] < 0.2 and 10.0 < rep.well[1] < 12.0

    def test_check_pipeline_refuses_every_earlier_refusal(self):
        # the earlier rules: alpha in [-l, l + 1/2), p > 1, theta in [0, 1]
        # and the preconditions of mu; every setting they refused is refused
        w = ggmt.paper_weight()
        for l in range(-1, 7):
            for alpha in np.linspace(-8.0, 8.0, 65):
                for p, theta in ((4.0, 0.5), (1.0, 0.5), (4.0, -0.1),
                                 (4.0, 1.0)):
                    try:
                        w.check_mu(l, alpha)
                        earlier = (-l <= alpha < l + 0.5 and p > 1.0
                                   and 0.0 <= theta <= 1.0)
                    except ValueError:
                        earlier = False
                    if not earlier:
                        with pytest.raises(ValueError):
                            ggmt.check_pipeline(l, alpha, p, theta, w)

    def test_limit_not_positive_fails_without_a_count(self, monkeypatch):
        # w_floor = 0.2 passes check_pipeline but gives u_inf = -0.119: the
        # certification has failed, so no well is bracketed and no N formed
        def no_count(*args):
            raise AssertionError("counted a potential with no positive limit")
        monkeypatch.setattr(ggmt, "negative_part_bracket", no_count)
        rep = ggmt.l2_pipeline(W=ggmt.paper_weight(floor=0.2))
        assert rep.u_infinity < -0.1
        assert rep.bigN is None and rep.well == ()

    def test_report_serialization(self):
        d = dataclasses.asdict(ggmt.l2_pipeline())
        assert set(d) == {"l", "alpha", "p", "theta", "alphaR", "betaR", "mu",
                          "prefactor", "bigN", "l_eff", "u_infinity", "big_l",
                          "well"}


class TestCoercivityForm:
    def test_zero_function(self):
        grid = geometric_grid(200, 40.0)
        f = RadialFunction(grid, np.zeros(grid.n))
        assert ggmt.coercivity_form(f, 3) == 0.0

    def test_reference_bump_has_margin(self):
        grid = geometric_grid(400, 40.0)
        r = grid.nodes
        f = RadialFunction(grid, r ** 3 * np.exp(-r * r))
        form = ggmt.coercivity_form(f, 3)
        norm2 = float(weighted_inner(f, f, "r2"))
        assert form >= norm2 / 8.0

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_random_bumps_bounded_below(self, l):
        from ksmode.acceptance import random_class_function
        grid = geometric_grid(400, 40.0)
        rng = np.random.default_rng(100 + l)
        for _ in range(10):
            f = random_class_function(rng, grid, l)
            form = ggmt.coercivity_form(f, l)
            norm2 = float(weighted_inner(f, f, "r2"))
            assert form >= norm2 / 8.0


    @pytest.mark.parametrize("l", [3, 6])
    def test_grid_weights_give_the_bits_of_the_profile_callables(self, l):
        # the six terms and the interpolation lhs written out with the
        # profile weights evaluated afresh at the nodes
        from ksmode.acceptance import random_class_function
        from ksmode.radial import deltal_inverse, fd_deriv
        grid = geometric_grid(400, 40.0)
        r = grid.nodes
        f = random_class_function(np.random.default_rng(l), grid, l)
        df = RadialFunction(grid, fd_deriv(f.values, grid, 1))
        w, dw = deltal_inverse(l, f)
        convexity = (profile.q_deriv(r, 2)
                     - 2.0 / r * profile.q_deriv(r, 1)) * r * r
        form = (weighted_inner(df, df, "r2")
                + l * (l + 1) * weighted_inner(f, f, "flat")
                + 0.25 * weighted_inner(f, f, "r2")
                - 1.5 * weighted_inner(f, f, profile.q(r) * r * r)
                + 0.5 * weighted_inner(dw, dw, convexity)
                - 0.5 * l * (l + 1) * weighted_inner(
                    w, w, profile.q_deriv(r, 2)))
        lhs = weighted_inner(w, w, 1.0 / (2.0 + r * r) ** 2)
        for _ in range(2):   # cold, then from the grid's memo
            assert ggmt.coercivity_form(f, l) == form
            assert ggmt.interpolation_check(f, l, 4.0)[0] == lhs


class TestInterpolation:
    def test_l2_reference_function(self):
        grid = geometric_grid(600, 60.0)
        r = grid.nodes
        f = RadialFunction(grid, r * r * np.exp(-r))
        lhs, rhs, ok = ggmt.interpolation_check(f, 2, 4.0)
        assert ok and lhs <= rhs

    def test_random_l3(self):
        from ksmode.acceptance import random_class_function
        grid = geometric_grid(400, 40.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_class_function(rng, grid, 3)
            _, _, ok = ggmt.interpolation_check(f, 3, 4.0)
            assert ok

    def test_zero_function(self):
        grid = geometric_grid(200, 40.0)
        f = RadialFunction(grid, np.zeros(grid.n))
        lhs, rhs, ok = ggmt.interpolation_check(f, 2, 4.0)
        assert lhs == rhs == 0.0 and ok

    def test_low_class_rejected(self):
        grid = geometric_grid(200, 40.0)
        f = RadialFunction(grid, np.zeros(grid.n))
        with pytest.raises(ValueError):
            ggmt.interpolation_check(f, 1, 4.0)


class TestRationals:
    def test_exact_values(self):
        consts = ggmt.l3_rational_constants()
        assert consts.frac1 == Fraction(499, 10584)
        assert consts.frac2 == Fraction(1, 8) + Fraction(29, 17640)
        assert consts.frac1 > 0
        assert consts.frac2 > Fraction(1, 8)
        assert consts.frac1_with_angular_factor == 12 * consts.frac1
        assert consts.angular_factor_discrepancy


def test_pointwise_q_bounds():
    assert ggmt.pointwise_q_bounds(make_grid(500, 60.0))
    # spot value of the convexity combination at r = 1
    conv = profile.q_deriv(1.0, 2) - 2.0 * profile.q_deriv(1.0, 1)
    assert np.isclose(conv, 8.0 * 93.0 / 81.0, atol=1e-13)
    # the bounds are attained at the analytic critical points
    assert np.isclose(profile.q(np.sqrt(6.0)) * 6.0, 4.5, atol=1e-14)
    assert np.isclose(profile.q_deriv(2.0, 2) * 36.0, 136.0 / 3.0, atol=1e-12)
