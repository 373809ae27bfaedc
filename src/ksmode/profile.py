"""Closed-form blowup profile Q and derived radial quantities.

The explicit self-similar profile of the 3D parabolic-elliptic Keller-Segel
system is

    Q(r) = 4 (6 + r^2) / (2 + r^2)^2,

a positive, strictly decreasing steady state of the renormalized flow.  This
module evaluates Q, its radial derivatives, the scaling mode Lambda Q, the
auxiliary potential V2, the weight G = r^3 D3^{-1} Q' that enters the
l = 1 wave operator, and the coefficient functions of the localized l = 1
operator.  Everything here is an explicit rational expression; the only
quadrature in this file lives in the `*_quad` oracle functions, which
deliberately avoid the closed forms so that tests can cross-validate
provenance-separated implementations.

All functions accept scalars or numpy arrays and are vectorized.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "q", "q_deriv", "lambda_q", "d2inv_q", "d2inv_q_closed",
    "v2", "big_g", "big_g_quad",
    "g_over_g", "g_over_g_deriv", "g_over_g_deriv2",
    "coef_a", "coef_b", "tilde_L1_prime_potential", "half_d_d2inv_q",
    "profile_residual", "identity_residuals",
]


def q(r):
    """Profile value Q(r) = 4(6+r^2)/(2+r^2)^2, defined for r >= 0."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    return 4.0 * (6.0 + r2) / (2.0 + r2) ** 2


def q_deriv(r, order=1):
    """Closed-form radial derivative of Q of the given order (1 or 2)."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    if order == 1:
        return -8.0 * r * (r2 + 10.0) / (2.0 + r2) ** 3
    if order == 2:
        return 8.0 * (3.0 * r2 * r2 + 44.0 * r2 - 20.0) / (2.0 + r2) ** 4
    raise ValueError(f"unsupported derivative order {order!r} (expected 1 or 2)")


def lambda_q(r):
    """Scaling mode (Lambda Q)(r) = r Q'(r) + 2 Q(r).

    Vanishes at r = sqrt(6) and behaves like -16/r^4 at infinity; the
    simplified rational form 16(6-r^2)/(2+r^2)^3 is checked in the tests.
    """
    r = np.asarray(r, dtype=float)
    return r * q_deriv(r, 1) + 2.0 * q(r)


def d2inv_q(r):
    """Quadrature oracle for D_2^{-1} Q (r) = r^{-2} \\int_0^r Q(s) s^2 ds.

    Scalar-only, adaptive quadrature; never calls the closed form.  Use
    :func:`d2inv_q_closed` in assembled operators.
    """
    from scipy.integrate import quad

    r = float(r)
    if r <= 0.0:
        return 0.0
    val, _ = quad(lambda s: q(s) * s * s, 0.0, r, epsabs=1e-13, epsrel=1e-12)
    return val / (r * r)


def d2inv_q_closed(r):
    """Closed form of D_2^{-1} Q: 4r/(2+r^2) (continuous extension 0 at r=0)."""
    r = np.asarray(r, dtype=float)
    return 4.0 * r / (2.0 + r * r)


def v2(r):
    """Potential V2(r) = -Q'(r)/r = 8(r^2+10)/(r^2+2)^3."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    return 8.0 * (r2 + 10.0) / (r2 + 2.0) ** 3


def big_g(r):
    """G(r) = Q r^3 - 3 r^2 D_2^{-1} Q = r^3 D_3^{-1} Q'; negative for r > 0."""
    r = np.asarray(r, dtype=float)
    return q(r) * r ** 3 - 3.0 * r ** 2 * d2inv_q_closed(r)


def big_g_quad(r):
    """Quadrature oracle for G(r) = \\int_0^r Q'(s) s^3 ds (scalar only)."""
    from scipy.integrate import quad

    r = float(r)
    if r <= 0.0:
        return 0.0
    val, _ = quad(lambda s: q_deriv(s, 1) * s ** 3, 0.0, r,
                  epsabs=1e-13, epsrel=1e-12)
    return val


def g_over_g(r):
    """Wave-operator density Q'(r)/G(r) = (r^2+10)/(r^4(r^2+2)), positive."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    return (r2 + 10.0) / (r2 * r2 * (r2 + 2.0))


def g_over_g_deriv(r):
    """First derivative of Q'/G: -4(r^4+16r^2+20)/(r^5(r^2+2)^2)."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    return -4.0 * (r2 * r2 + 16.0 * r2 + 20.0) / (r ** 5 * (r2 + 2.0) ** 2)


def g_over_g_deriv2(r):
    """Second derivative of Q'/G: 4(5r^6+114r^4+276r^2+200)/(r^6(r^2+2)^3)."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    num = 5.0 * r2 ** 3 + 114.0 * r2 * r2 + 276.0 * r2 + 200.0
    return 4.0 * num / (r ** 6 * (r2 + 2.0) ** 3)


def coef_a(r):
    """Drift coefficient A(r) = -2/r + r/2 - D_2^{-1}Q of the localized l=1 operator."""
    r = np.asarray(r, dtype=float)
    return -2.0 / r + 0.5 * r - d2inv_q_closed(r)


def coef_b(r):
    """Zeroth-order coefficient B(r) = 2/r^2 + 1 - 2Q - 2 d/dr(r^3 Q'/G).

    d/dr (r^3 Q'/G) = -(r^4 + 28 r^2 + 20)/(r^2 (r^2+2)^2) in closed form.
    """
    r = np.asarray(r, dtype=float)
    r2 = r * r
    ddr_r3gg = -(r2 * r2 + 28.0 * r2 + 20.0) / (r2 * (r2 + 2.0) ** 2)
    return 2.0 / r2 + 1.0 - 2.0 * q(r) - 2.0 * ddr_r3gg


def tilde_L1_prime_potential(r):
    """Potential 12/r^2 + r^2/16 - 8/(2+r^2) - 3/4 of the symmetric l=1 form."""
    r = np.asarray(r, dtype=float)
    return 12.0 / (r * r) + r * r / 16.0 - 8.0 / (2.0 + r * r) - 0.75


def half_d_d2inv_q(r, alpha):
    """(1/2) D_{2a-4} D_2^{-1} Q = 2(2-r^2)/(2+r^2)^2 + 2(2a-4)/(2+r^2)."""
    r = np.asarray(r, dtype=float)
    r2 = r * r
    return 2.0 * (2.0 - r2) / (2.0 + r2) ** 2 + 2.0 * (2.0 * alpha - 4.0) / (2.0 + r2)


def profile_residual(grid):
    """Max-norm residual of the elliptic profile equation on the grid nodes.

    Evaluates -Delta Q + (1/2) Lambda Q - Q^2 - Q' D_2^{-1} Q with all terms
    in closed form; the result is pure round-off for the exact profile.
    """
    r = np.asarray(grid.nodes, dtype=float)
    lap = q_deriv(r, 2) + 2.0 / r * q_deriv(r, 1)
    res = -lap + 0.5 * lambda_q(r) - q(r) ** 2 - q_deriv(r, 1) * d2inv_q_closed(r)
    return float(np.max(np.abs(res)))


def first_integral_residual(r):
    """Residual of -Q' + (r/2)Q - (1/2)D_2^{-1}Q - Q D_2^{-1}Q (zero identically)."""
    r = np.asarray(r, dtype=float)
    dq = d2inv_q_closed(r)
    return -q_deriv(r, 1) + 0.5 * r * q(r) - 0.5 * dq - q(r) * dq


def g_over_g_ode_residual(r):
    """Residual of (-d^2/dr^2 + A d/dr + B + 1 + (2/r) D_2^{-1}Q)(Q'/G).

    Closed-form derivatives throughout; (2/r) D_2^{-1} Q = 8/(2+r^2).
    """
    r = np.asarray(r, dtype=float)
    u = g_over_g(r)
    return (-g_over_g_deriv2(r) + coef_a(r) * g_over_g_deriv(r)
            + (coef_b(r) + 1.0 + 8.0 / (2.0 + r * r)) * u)


def identity_residuals(grid):
    """Residuals of the two closed-form structural identities of the profile.

    Returns a dict with keys:
      ``first_integral``  - max-norm pointwise residual of the once-
                            integrated profile equation
                            -Q' + (r/2)Q - (1/2+Q) D_2^{-1}Q = 0;
      ``g_over_g_ode``    - max-norm pointwise residual of the second-order
                            ODE satisfied by Q'/G, restricted to nodes in
                            [0.1, 20] (cancellation of 1/r^6 poles limits
                            double precision below r ~ 0.1).
    """
    r = np.asarray(grid.nodes, dtype=float)
    mask = (r >= 0.1) & (r <= 20.0)
    return {
        "first_integral": float(np.max(np.abs(first_integral_residual(r)))),
        "g_over_g_ode": float(np.max(np.abs(g_over_g_ode_residual(r[mask])))),
    }
