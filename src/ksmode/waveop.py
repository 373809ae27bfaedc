"""The l = 1 intertwining map T and the localized operator it produces.

T f = f - (Q'/G) int_0^r f s^3 ds annihilates the translation mode Q' and
conjugates the nonlocal class-1 operator into the purely local

    tilde L_1 = -d_r^2 + A(r) d_r + B(r),

which a further conjugation by U_1 = exp(r^2/8)/(r(2+r^2)) turns into the
symmetric Schroedinger operator with potential 12/r^2 + r^2/16 - 8/(2+r^2)
- 3/4.  This module applies T and tilde L_1 to nodal data, measures the
residual of the intertwining identity, and checks the coefficient
identities of both steps pointwise; the closed-form coefficients live in
profile.py.

Cumulative integrals against s^3 model the first panel with the class-1
origin behaviour f ~ c r (the s^3 weight would otherwise lose an order of
accuracy there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators, profile
from .radial import (RadialGrid, cumulative_power_integral,
                     cumulative_power_integral_cubic, fd_deriv, make_grid)

__all__ = [
    "apply_T", "apply_T_weight_form", "apply_tilde_L1", "commutator_residual",
    "potential_min_tilde_L1_prime", "nonvanishing_check", "NonvanishingResult",
    "coefficient_identity_residuals",
]


def apply_T(values, grid: RadialGrid) -> np.ndarray:
    """T f = f - (Q'/G) int_0^r f s^3 ds on nodal data.

    The cumulative uses piecewise-cubic product integration: Q'/G grows like
    10/r^4 at the origin, which would amplify piecewise-linear quadrature
    error there to first order.
    """
    f = np.asarray(values)
    cum = cumulative_power_integral_cubic(f, grid, 3)
    return f - profile.g_over_g(grid.nodes) * cum


def apply_T_weight_form(values, grid: RadialGrid) -> np.ndarray:
    """Weighted-projection form of T: alternate code path for cross-checking.

    T = I - S with S f = [ (f, Q')_{w,[0,r]} / (Q', Q')_{w,[0,r]} ] Q' and
    w = -r^3/Q'; the numerator and denominator integrals are both computed
    by quadrature (the denominator never uses the closed form of G), so a
    sign or arrangement error in Q'/G cannot cancel.
    """
    r = grid.nodes
    f = np.asarray(values)
    g = profile.q_deriv(r, 1)
    w = -r ** 3 / g
    numer = cumulative_power_integral_cubic(f * g * w, grid, 0)
    denom = cumulative_power_integral_cubic(g * g * w, grid, 0)
    return f - g * numer / denom


def apply_tilde_L1(values, grid: RadialGrid) -> np.ndarray:
    """Pointwise application of tilde L_1 = -d_r^2 + A d_r + B."""
    r = grid.nodes
    f = np.asarray(values)
    return (-fd_deriv(f, grid, 2) + profile.coef_a(r) * fd_deriv(f, grid, 1)
            + profile.coef_b(r) * f)


def commutator_residual(values, grid: RadialGrid) -> float:
    """Max-norm of T(L_1 f) - tilde L_1 (T f) over interior nodes with r >= 0.1.

    Exact in the continuum for class-1 data; the discrete residual decays at
    O(h^2) under refinement.  Pointwise residuals at r -> 0 pick up an extra
    1/r from the singular drift coefficient, so the fixed inner cutoff keeps
    the max-norm measurement h^2-clean (the identity is still checked from
    r = 0.1 on down to the origin scale of the coefficients).
    """
    f = np.asarray(values)
    lhs = apply_T(operators.apply_Ll(1, grid, f), grid)
    rhs = apply_tilde_L1(apply_T(f, grid), grid)
    res = np.abs(lhs - rhs)[2:-2]
    mask = grid.nodes[2:-2] >= 0.1
    return float(np.max(res[mask]))


def potential_min_tilde_L1_prime():
    """Golden-section minimum of the tilde L_1' potential, scan-checked
    unimodal on [0.1, 50].

    Returns (argmin, min value); the minimum sits near r = 3.18 at ~0.408,
    slightly above the 2/5 bound carried by the spectrum.
    """
    from scipy.optimize import minimize_scalar

    r = np.linspace(0.1, 50.0, 512)
    v = profile.tilde_L1_prime_potential(r)
    falls = np.diff(v) < 0
    flips = np.count_nonzero(np.diff(falls.astype(int)) != 0)
    if flips != 1:
        raise RuntimeError("potential scan is not unimodal on the window")
    i = int(np.argmin(v))
    res = minimize_scalar(profile.tilde_L1_prime_potential,
                          bracket=(r[i - 1], r[i], r[i + 1]), method="golden",
                          options={"xtol": 1e-12})
    return float(res.x), float(res.fun)


@dataclass(frozen=True)
class NonvanishingResult:
    passed: bool
    sign: int
    origin_margin: float
    bracket: tuple | None


def nonvanishing_check(sampler) -> NonvanishingResult:
    """Check that D_3^{-1}(sampler) keeps one sign on (0, 50], sampled on a
    uniform 4000-node grid.

    This is the well-definedness condition for the intertwining map built
    from a profile-gradient-like function, class-1 data: the origin panel
    uses the power model f ~ c r.  ``origin_margin`` is the minimum
    of |D_3^{-1} s| / r^2 over r <= 1 (the local behaviour near the origin
    is quadratic); on failure the first sign-change bracket is returned.
    """
    grid = make_grid(4000, 50.0, "uniform")
    r = grid.nodes
    f = np.asarray(sampler(r), dtype=float)
    cum = cumulative_power_integral(f, grid, 3.0, 1.0)
    v = cum / r ** 3
    signs = np.sign(v)
    lead = signs[np.nonzero(signs)[0][0]]
    bad = np.nonzero(signs == -lead)[0]
    if bad.size:
        i = bad[0]
        return NonvanishingResult(False, int(lead), 0.0,
                                  (float(r[max(i - 1, 0)]), float(r[i])))
    near = r <= 1.0
    margin = float(np.min(np.abs(v[near]) / r[near] ** 2)) if near.any() else 0.0
    return NonvanishingResult(bool(margin > 0.0), int(lead), margin, None)


def coefficient_identity_residuals(r) -> dict:
    """Pointwise residuals of the coefficient identities of T and U_1.

    The intertwined operator forces A_0 = A + r^3 Q'/G and
    B_0 = B + 2 (Q'/G)' r^3 + 3 r^2 Q'/G - A (Q'/G) r^3.  Since
    (log U_1)' = A/2, U_1^{-1} tilde L_1 U_1 = -d_r^2 + B - A'/2 + A^2/4,
    so that potential must equal the one of tilde L_1'.  All three
    residuals are round-off for the closed forms.
    """
    r = np.asarray(r, dtype=float)
    gg = profile.g_over_g(r)
    ggp = profile.g_over_g_deriv(r)
    a = profile.coef_a(r)
    b = profile.coef_b(r)
    d2q = profile.d2inv_q_closed(r)
    a0 = -2.0 / r + 0.5 * r + gg * r ** 3 - d2q
    b0 = (2.0 / (r * r) + 1.0 - 2.0 * profile.q(r)
          + gg * (-r * r - 0.5 * r ** 4 + d2q * r ** 3))
    res_a = r ** 3 * gg + a - a0
    res_b = 2.0 * ggp * r ** 3 + 3.0 * r * r * gg - a * gg * r ** 3 + b - b0
    # A' = 2/r^2 + 1/2 - (D_2^{-1}Q)', with (4r/(2+r^2))' = 4(2-r^2)/(2+r^2)^2
    da = 2.0 / (r * r) + 0.5 - 4.0 * (2.0 - r * r) / (2.0 + r * r) ** 2
    res_c = b - 0.5 * da + 0.25 * a * a - profile.tilde_L1_prime_potential(r)
    return {"drift": float(np.max(np.abs(res_a))),
            "potential": float(np.max(np.abs(res_b))),
            "conjugation": float(np.max(np.abs(res_c)))}
