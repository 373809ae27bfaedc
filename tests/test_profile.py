"""Closed-form profile quantities against independent quadrature/difference
oracles."""

import numpy as np
import pytest
from scipy.optimize import brentq

from ksmode import profile
from ksmode.radial import make_grid


def test_q_values():
    assert profile.q(0.0) == 6.0
    assert np.isclose(profile.q(1.0), 28.0 / 9.0, rtol=0, atol=1e-15)
    r = 1e3
    assert abs(r * r * profile.q(r) / 4.0 - 1.0) < 0.01


def test_q_deriv_values():
    assert np.isclose(profile.q_deriv(1.0, 1), -88.0 / 27.0, atol=1e-15)
    assert profile.q_deriv(0.0, 1) == 0.0
    assert np.isclose(profile.q_deriv(0.0, 2), -10.0, atol=1e-14)
    with pytest.raises(ValueError):
        profile.q_deriv(1.0, 3)


@pytest.mark.parametrize("order", [1, 2])
def test_q_deriv_matches_finite_differences(order):
    r = np.linspace(0.3, 20.0, 50)
    h = 1e-4
    lower = profile.q(r - h) if order == 1 else profile.q_deriv(r - h, order - 1)
    upper = profile.q(r + h) if order == 1 else profile.q_deriv(r + h, order - 1)
    fd = (upper - lower) / (2.0 * h)
    assert np.max(np.abs(fd - profile.q_deriv(r, order))) < 1e-5


def test_lambda_q_values_and_root():
    assert profile.lambda_q(0.0) == 12.0
    root = brentq(lambda r: float(profile.lambda_q(r)), 1.0, 4.0)
    assert abs(root - np.sqrt(6.0)) < 1e-12
    # simplified rational form
    r = np.linspace(0.1, 60.0, 500)
    simplified = 16.0 * (6.0 - r * r) / (2.0 + r * r) ** 3
    assert np.max(np.abs(profile.lambda_q(r) - simplified)) < 1e-13


def test_lambda_q_asymptotic_exponent():
    r = np.linspace(50.0, 200.0, 60)
    vals = -profile.lambda_q(r)
    assert np.all(vals > 0.0)
    # fitted amplitude of the r^{-4} tail within 5% of 16
    coef = np.exp(np.mean(np.log(vals) + 4.0 * np.log(r)))
    assert abs(coef / 16.0 - 1.0) < 0.05


def test_d2inv_q_quadrature_oracle():
    assert abs(profile.d2inv_q(1.0) - 4.0 / 3.0) < 1e-10
    assert abs(profile.d2inv_q(100.0) - 400.0 / 10002.0) < 1e-6 * (400.0 / 10002.0)
    # linear vanishing at the origin
    small = profile.d2inv_q(1e-4)
    assert abs(small / 1e-4 - 2.0) < 1e-4


@pytest.mark.parametrize("r", [1e-3, 0.1, 1.0, 10.0, 1e3])
def test_d2inv_q_closed_form_agreement(r):
    assert abs(profile.d2inv_q(r) - profile.d2inv_q_closed(r)) \
        <= 1e-8 * abs(profile.d2inv_q_closed(r))


def test_aux_potentials_values():
    assert np.isclose(profile.v2(1.0), 88.0 / 27.0, atol=1e-15)
    assert np.isclose(profile.big_g(1.0), -8.0 / 9.0, atol=1e-14)
    assert np.isclose(profile.d2inv_q_closed(1.0), 4.0 / 3.0, atol=1e-15)
    assert np.isclose(profile.v2(1e-8), 10.0, atol=1e-6)


def test_big_g_quadrature_and_simplified_form():
    for r in (0.5, 1.0, 5.0, 20.0):
        simplified = -8.0 * r ** 5 / (2.0 + r * r) ** 2
        assert abs(profile.big_g(r) - simplified) < 1e-12 * abs(simplified)
        assert abs(profile.big_g_quad(r) - simplified) < 1e-8 * abs(simplified)


def test_big_g_negative():
    r = np.logspace(-3, 3, 200)
    assert np.all(profile.big_g(r) < 0.0)


def test_profile_residual_exact():
    grid = make_grid(400, 60.0, "uniform")
    assert profile.profile_residual(grid) <= 1e-10


def test_profile_residual_detects_scaling_perturbation():
    # 1.01 Q breaks the quadratic balance pointwise
    r = make_grid(400, 60.0, "uniform").nodes
    s = 1.01
    lap = s * (profile.q_deriv(r, 2) + 2.0 / r * profile.q_deriv(r, 1))
    res = (-lap + 0.5 * s * profile.lambda_q(r) - (s * profile.q(r)) ** 2
           - s * s * profile.q_deriv(r, 1) * profile.d2inv_q_closed(r))
    assert np.max(np.abs(res)) >= 1e-3


def test_profile_residual_scaling_invariance():
    # Q(lambda r) lambda^2 with lambda = 1 is the same exact solution
    grid = make_grid(400, 60.0, "uniform")
    assert profile.profile_residual(grid) <= 1e-10


def test_identity_residuals():
    grid = make_grid(2000, 60.0, "uniform")
    ids = profile.identity_residuals(grid)
    assert ids["first_integral"] <= 1e-9
    assert ids["g_over_g_ode"] <= 1e-6
    # once-integrated identity across the whole stated window
    r = np.linspace(0.01, 50.0, 5000)
    assert np.max(np.abs(profile.first_integral_residual(r))) <= 1e-9


def test_g_over_g_derivatives_match_finite_differences():
    r = np.linspace(0.3, 20.0, 40)
    h = 1e-5
    d1 = (profile.g_over_g(r + h) - profile.g_over_g(r - h)) / (2.0 * h)
    d2 = (profile.g_over_g_deriv(r + h) - profile.g_over_g_deriv(r - h)) / (2.0 * h)
    assert np.max(np.abs(d1 - profile.g_over_g_deriv(r))
                  / np.abs(profile.g_over_g_deriv(r))) < 1e-7
    assert np.max(np.abs(d2 - profile.g_over_g_deriv2(r))
                  / np.abs(profile.g_over_g_deriv2(r))) < 1e-7


def test_coef_a_value():
    assert np.isclose(profile.coef_a(1.0), -17.0 / 6.0, atol=1e-14)


def test_coef_b_finite_with_origin_pole_structure():
    r = np.logspace(-3, 2, 200)
    b = profile.coef_b(r)
    assert np.all(np.isfinite(b))
    # 12/r^2 pole in total: r^2 B -> 12 at the origin
    small = np.logspace(-5, -4, 10)
    assert np.max(np.abs(small ** 2 * profile.coef_b(small) - 12.0)) < 1e-6


def test_half_d_d2inv_q_closed_form_vs_quadrature():
    # (1/2) D_{2a-4} D_2^{-1} Q via quadrature of D_2^{-1}Q and differencing
    alpha = 0.2
    h = 1e-5
    for r in (0.5, 1.0, 3.0):
        d2q = profile.d2inv_q(r)
        ddr = (profile.d2inv_q(r + h) - profile.d2inv_q(r - h)) / (2.0 * h)
        oracle = 0.5 * (ddr + (2.0 * alpha - 4.0) / r * d2q)
        assert abs(profile.half_d_d2inv_q(r, alpha) - oracle) < 1e-8
    assert np.isclose(profile.half_d_d2inv_q(0.0, 0.2), -2.6, atol=1e-14)


def test_first_integral_identity_from_quadrature():
    # independent check of the once-integrated equation with the quadrature
    # oracle for D_2^{-1} Q
    for r in (0.5, 1.0, 4.0):
        d2q = profile.d2inv_q(r)
        res = (-profile.q_deriv(r, 1) + 0.5 * r * profile.q(r)
               - 0.5 * d2q - profile.q(r) * d2q)
        assert abs(res) < 1e-9
