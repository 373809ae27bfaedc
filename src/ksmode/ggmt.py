"""Scalar estimates for the l >= 2 coercivity analysis.

Covers the interpolation constants alpha(R)/beta(R), the symmetrized
potential W1, the nonlocality functional mu, the eigenvalue-count bound
N_{p,l}(V) with its Gamma-function prefactor, the full l = 2 pipeline that
combines them into a single report, the six-term coercivity quadratic form,
the quantitative interpolation inequality, the exact rational constants of
the l >= 3 estimate, and the pointwise profile bounds they rest on.

The mu functional is a double integral over a triangle.  It is evaluated
with one nested Gauss-Legendre rule on log-spaced breakpoint segments plus
analytic power-law tails beyond S = 1e4, in both orders of integration (a
Fubini consistency check at relative 1e-4), and a lower-order rule on the
same segments guards the fixed rule at relative 1e-10.  The other improper
integrals use adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import profile
from .radial import RadialFunction, deltal_inverse, fd_deriv, weighted_inner

__all__ = [
    "alpha_beta", "w1_potential", "WeightSpec", "paper_weight",
    "mu_functional", "ggmt_prefactor", "ggmt_count", "CountOverflowError",
    "check_pipeline", "l2_pipeline", "GgmtReport", "coercivity_form",
    "interpolation_check",
    "l3_rational_constants", "L3Constants", "pointwise_q_bounds",
]

_S_CUT = 1.0e4  # analytic power-law tails take over beyond this radius
_FUBINI_RTOL = 1e-4  # agreement required of the two integration orders of mu
_GL_NODES = 21  # Gauss-Legendre nodes per segment of mu's nested rule
_GL_GUARD_NODES = 15  # the lower-order rule that must agree with it ...
_GUARD_RTOL = 1e-10  # ... to this relative tolerance
_GL_BLOCK = 16  # segments per block of mu's (block, n, n) node arrays


@lru_cache
def alpha_beta(R: float):
    """Closed-form interpolation constants

        alpha(R) = int_0^R r^3/(2+r^2)^2 dr,
        beta(R)  = int_R^inf r/(2+r^2)^2 dr = 1/(2(R^2+2)),

    cross-validated internally against adaptive quadrature to 1e-10.
    Cached: criterion 6 asks for the same R once per test function.
    """
    from scipy.integrate import quad

    if R <= 0.0:
        raise ValueError("R must be positive")
    R2 = R * R
    a = (1.0 / (R2 + 2.0) + math.log(R2 + 2.0) / 2.0) - (0.5 + math.log(2.0) / 2.0)
    b = 1.0 / (2.0 * (R2 + 2.0))
    a_quad, _ = quad(lambda r: r ** 3 / (2.0 + r * r) ** 2, 0.0, R,
                     epsabs=1e-13, epsrel=1e-12)
    b_quad, _ = quad(lambda r: r / (2.0 + r * r) ** 2, R, np.inf,
                     epsabs=1e-13, epsrel=1e-12)
    if abs(a - a_quad) > 1e-10 * max(1.0, abs(a)) or abs(b - b_quad) > 1e-10:
        raise RuntimeError("alpha/beta closed forms disagree with quadrature")
    return a, b


def w1_potential(l_minus_alpha: float, r):
    """Symmetrization potential W1 = (8(l-a)+4)/(r^2+2)^2 + 32/(r^2+2)^3.

    Positivity requires l - a > -1/2.
    """
    if l_minus_alpha <= -0.5:
        raise ValueError("w1_potential requires l - alpha > -1/2")
    r = np.asarray(r, dtype=float)
    r2 = r * r
    return (8.0 * l_minus_alpha + 4.0) / (r2 + 2.0) ** 2 + 32.0 / (r2 + 2.0) ** 3


@dataclass(frozen=True)
class WeightSpec:
    """Weight W for the nonlocality bound: callable plus its limit at infinity."""
    fn: object
    w_inf: float
    label: str

    def check_mu(self, l: float, alpha: float) -> None:
        """Validate the preconditions of ``mu_functional`` for (l, alpha).

        W must be strictly positive (no NaN) on [1e-3, 1e4], and the
        analytic tail model of mu needs 2l + 2 alpha > 3 (with a margin)
        and a positive limit at infinity.
        """
        with np.errstate(invalid="ignore"):   # a NaN weight fails below
            w = np.asarray(self.fn(np.logspace(-3, 4, 200)), dtype=float)
        if not np.all(w > 0.0):
            raise ValueError(f"weight {self.label} is not strictly positive")
        if 2.0 * l + 2.0 * alpha <= 3.05:
            raise ValueError("tail model requires 2l + 2 alpha > 3")
        if self.w_inf <= 0.0:
            raise ValueError("mu tail model requires a weight with positive limit")


def paper_weight(eps: float = 0.01, power: float = -1.2,
                 floor: float = 0.02) -> WeightSpec:
    """The reference weight W(r) = (0.01 + r^2)^{-1.2} + 0.02 used for l = 2."""
    return WeightSpec(fn=lambda r: (eps + np.asarray(r, dtype=float) ** 2) ** power + floor,
                      w_inf=floor, label="shifted-power")


def mu_functional(l: float, alpha: float, W: WeightSpec) -> float:
    """Nonlocality functional

        mu = (1/4) int_0^inf W^{-1}(s) s^{-2l-2a} ( int_0^s W1^{-1} V2^2
             r^{2l+2a} dr ) ds,

    computed in both orders of integration by one nested Gauss-Legendre
    rule of ``_GL_NODES`` nodes on each of 145 log-spaced segments of
    [0, S], plus analytic power-law tails beyond S.  A fixed rule carries no
    error estimate, so the ``_GL_GUARD_NODES``-node rule on the same
    segments must agree with it to relative ``_GUARD_RTOL`` in each order,
    and the two orders must agree to relative ``_FUBINI_RTOL``; otherwise a
    RuntimeError is raised.  Linear in W^{-1}.
    """
    W.check_mu(l, alpha)
    beta = 2.0 * l + 2.0 * alpha
    lma = l - alpha
    k_inner = lambda r: profile.v2(r) ** 2 / w1_potential(lma, r) * r ** beta
    k_outer = lambda s: s ** (-beta) / np.asarray(W.fn(s), dtype=float)
    k_inf = 64.0 / (8.0 * lma + 4.0)  # K(r) ~ k_inf r^{beta-4} at infinity
    S = _S_CUT
    breaks = np.concatenate(([0.0], np.logspace(-4, math.log10(S), 145)))
    lo, hi = breaks[:-1, None], breaks[1:, None]
    h = breaks[1:] - breaks[:-1]
    tail_j = (1.0 / W.w_inf) * S ** (1.0 - beta) / (beta - 1.0)

    def both_orders(n):
        t, wt = np.polynomial.legendre.leggauss(n)
        t, wt = 0.5 * (1.0 + t), 0.5 * wt   # the rule on [0, 1]
        x = lo + h[:, None] * t             # (segments, n) nodes
        k_in, k_out = k_inner(x), k_outer(x)

        # The rule within each node's own segment: int_{lo_j}^x k_inner,
        # and int_x^{hi_j} k_outer in log s, since k_outer ~ s^-beta is not
        # integrable at 0.  A block of segments at a time keeps the
        # (block, n, n) node arrays small.
        d, span = x - lo, np.log(hi / x)
        below, above = np.empty_like(x), np.empty_like(x)
        for j in range(0, len(h), _GL_BLOCK):
            b = slice(j, j + _GL_BLOCK)
            r = lo[b, :, None] + d[b, :, None] * t
            below[b] = d[b] * (k_inner(r) @ wt)
            s = x[b, :, None] * np.exp(span[b, :, None] * t)
            above[b] = span[b] * ((k_outer(s) * s) @ wt)

        # order B (primary): outer in s; I(s) = int_0^s k_inner is the sum
        # of the whole segments below s plus the rule on [lo_j, s]
        prefix = np.concatenate(([0.0], np.cumsum(h * (k_in @ wt))))
        inner = prefix[:-1, None] + below
        tail_b = (1.0 / W.w_inf) * (
            prefix[-1] * S ** (1.0 - beta) / (beta - 1.0)
            + k_inf / (beta - 3.0) * (S ** (-2.0) / 2.0 - S ** (-2.0) / (beta - 1.0)))
        mu_b = 0.25 * float(h @ ((k_out * inner) @ wt) + tail_b)

        # order A: outer in r; J(r) = int_r^inf k_outer is the sum of the
        # whole segments above r, the tail beyond S and the rule on [r, hi_j]
        whole = h[1:] * (k_out[1:] @ wt)
        suffix = np.concatenate((np.cumsum(whole[::-1])[::-1], [0.0])) + tail_j
        outer = suffix[:, None] + above
        tail_a = k_inf / (W.w_inf * (beta - 1.0)) * S ** (-2.0) / 2.0
        mu_a = 0.25 * float(h @ ((k_in * outer) @ wt) + tail_a)
        return mu_a, mu_b

    mu_a, mu_b = both_orders(_GL_NODES)
    for order, fine, coarse in zip("AB", (mu_a, mu_b),
                                   both_orders(_GL_GUARD_NODES)):
        if not abs(fine - coarse) <= _GUARD_RTOL * abs(fine):
            raise RuntimeError(
                f"mu order {order}: the {_GL_NODES}- and {_GL_GUARD_NODES}-"
                f"node rules disagree: {fine!r} vs {coarse!r}")
    if not abs(mu_a - mu_b) <= _FUBINI_RTOL * abs(mu_b):
        raise RuntimeError(
            f"mu integration orders disagree: {mu_a!r} vs {mu_b!r}")
    return mu_b


def ggmt_prefactor(p: float, l: float) -> float:
    """(p-1)^{p-1} Gamma(2p) / (p^p Gamma(p)^2) * (2l+1)^{-(2p-1)}.

    Formed as one exp of its logarithm: the factors overflow a float from
    about p = 62 on, although their ratio is small.
    """
    return math.exp(_log_prefactor(p, l))


def _log_prefactor(p: float, l: float) -> float:
    """Logarithm of ``ggmt_prefactor``, from log-gamma values."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return ((p - 1.0) * math.log(p - 1.0) + math.lgamma(2.0 * p)
            - p * math.log(p) - 2.0 * math.lgamma(p)
            - (2.0 * p - 1.0) * math.log(2.0 * l + 1.0))


def negative_part_bracket(V):
    """Bracket the support of V_- by a scan of 512 log-spaced radii in
    [1e-3, 1e3] plus bisection.

    Returns a tuple of (r_down, r_up) intervals on which V < 0.  Raises if
    V is negative at either end of the scan (non-compact negative part).
    The scan makes one call of V on all its radii (a V that returns one
    number is constant), the bisection scalar calls.
    """
    from scipy.optimize import brentq

    r = np.logspace(-3.0, 3.0, 512)
    v = np.broadcast_to(np.asarray(V(r), dtype=float), r.shape)
    if v[0] < 0.0 or v[-1] < 0.0:
        raise ValueError("negative part of the potential is not compactly "
                         "supported inside the scan window")
    sign_flips = np.where(np.sign(v[:-1]) != np.sign(v[1:]))[0]
    crossings = [brentq(V, r[i], r[i + 1], xtol=1e-13, rtol=1e-14)
                 for i in sign_flips]
    return tuple((crossings[i], crossings[i + 1])
                 for i in range(0, len(crossings), 2))


class CountOverflowError(RuntimeError):
    """The count N_{p,l}(V) overflows a float: a setting no count certifies."""


def ggmt_count(p: float, l: float, V, wells) -> float:
    """Eigenvalue-count bound N_{p,l}(V) = prefactor * int_0^inf r^{2p-1}|V_-|^p dr.

    ``V`` is a callable potential and ``wells`` the support of its
    negative part, as negative_part_bracket(V) returns it (so the negative
    part must be compactly supported).  N < 1 certifies the absence of
    non-positive eigenvalues of -d_r^2 + l(l+1)/r^2 + V.

    The integrand is one exp of ln prefactor + (2p-1) ln r + p ln|V_-|:
    r^{2p-1} and |V_-|^p alone overflow a float from about p = 150 on,
    long before N does; an integrand that overflows raises
    CountOverflowError.
    """
    from scipy.integrate import quad

    log_pref = _log_prefactor(p, l)

    def integrand(r):
        v = float(V(r))
        return 0.0 if v >= 0.0 else math.exp(
            log_pref + (2.0 * p - 1.0) * math.log(r) + p * math.log(-v))

    try:
        return sum((quad(integrand, a, b, epsabs=1e-13, epsrel=1e-10, limit=300)[0]
                    for (a, b) in wells), 0.0)
    except OverflowError:
        raise CountOverflowError(f"the count integrand overflows a float at "
                                 f"p = {p}") from None


@dataclass(frozen=True)
class GgmtReport:
    """All scalars of the l = 2 pipeline.  ``bigN`` is None and ``well``
    empty when ``u_infinity`` is not positive (no count was made)."""
    l: int
    alpha: float
    p: float
    theta: float
    alphaR: float
    betaR: float
    mu: float
    prefactor: float
    bigN: float | None
    l_eff: float
    u_infinity: float
    big_l: float
    well: tuple


def _angular_constant(l: int, alpha: float) -> float:
    """L = (l+1)(l+2) - (a-1)^2, the angular constant of the potential."""
    return -(alpha - 1.0) ** 2 + (l + 1) * (l + 2)


def schrodinger_potential(l: int, alpha: float, theta: float, mu: float,
                          W: WeightSpec):
    """U(r) = theta L/r^2 + (1-2a)/4 + (1/2)D_{2a-4}D_2^{-1}Q - Q - l mu W."""
    big_l = _angular_constant(l, alpha)

    def U(r):
        r = np.asarray(r, dtype=float)
        return (theta * big_l / (r * r) + (1.0 - 2.0 * alpha) / 4.0
                + profile.half_d_d2inv_q(r, alpha) - profile.q(r)
                - l * mu * np.asarray(W.fn(r)))
    return U, big_l


def _effective_index(theta: float, big_l: float) -> float:
    """l_eff = sqrt(1/4 + (1-theta) L) - 1/2."""
    return math.sqrt(0.25 + (1.0 - theta) * big_l) - 0.5


def check_pipeline(l: int, alpha: float, p: float, theta: float,
                   W: WeightSpec) -> None:
    """Raise ValueError unless p > 1, theta in [0, 1], (1-theta) L > 3/4,
    alpha < 1/2 and ``W.check_mu`` hold: ``l2_pipeline`` fails without them
    whatever mu is (its limit (1-2a)/4 - l mu W_inf needs a < 1/2).  A
    setting that overflows a float raises ValueError too.  A count that
    overflows a float is known only once counted: ``ggmt_count`` raises
    CountOverflowError for it."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    try:
        big_l = _angular_constant(l, alpha)
        if (1.0 - theta) * big_l <= 0.75:
            raise ValueError("(1-theta) L <= 3/4: effective index not self-adjoint")
        if alpha >= 0.5:
            raise ValueError("alpha >= 1/2: the potential limit at infinity is "
                             "not positive")
        W.check_mu(l, alpha)
        # the count's log-gamma prefactor, which overflows for a huge p
        _log_prefactor(p, _effective_index(theta, big_l))
    except OverflowError:
        raise ValueError("the setting overflows a float") from None


def l2_pipeline(l: int = 2, alpha: float = 0.2, p: float = 4.0,
                theta: float = 0.5, W: WeightSpec | None = None) -> GgmtReport:
    """Full l = 2 certification pipeline.

    Checks the settings (``check_pipeline``), computes mu, splits the
    angular momentum with theta into an effective index
    l_eff = sqrt(1/4 + (1-theta) L) - 1/2, assembles the comparison
    potential U and evaluates N_{p, l_eff}(U).  When the potential's limit
    at infinity is not positive the certification has failed already: the
    report then has no well and ``bigN`` None.
    """
    if W is None:
        W = paper_weight()
    check_pipeline(l, alpha, p, theta, W)
    mu = mu_functional(l, alpha, W)
    U, big_l = schrodinger_potential(l, alpha, theta, mu, W)
    l_eff = _effective_index(theta, big_l)
    u_inf = (1.0 - 2.0 * alpha) / 4.0 - l * mu * W.w_inf
    big_n, well = None, ()
    if u_inf > 0.0:
        wells = negative_part_bracket(U)
        if len(wells) != 1:
            raise RuntimeError(
                f"expected a single potential well, found {len(wells)}")
        big_n, well = ggmt_count(p, l_eff, U, wells), wells[0]
    a4, b4 = alpha_beta(4.0)
    return GgmtReport(l=l, alpha=alpha, p=p, theta=theta, alphaR=a4, betaR=b4,
                      mu=mu, prefactor=ggmt_prefactor(p, l_eff), bigN=big_n,
                      l_eff=l_eff, u_infinity=u_inf, big_l=big_l, well=well)


# ---------------------------------------------------------------------------
# quadratic forms and inequalities
# ---------------------------------------------------------------------------

def _q_r2(r):
    return profile.q(r) * r * r


def _convexity_r2(r):
    return (profile.q_deriv(r, 2) - 2.0 / r * profile.q_deriv(r, 1)) * r * r


def _interpolation_weight(r):
    return 1.0 / (2.0 + r * r) ** 2


def coercivity_form(f: RadialFunction, l: int) -> float:
    """Six-term quadrature form equal to Re (L f, f) in L^2(r^2 dr).

    Terms: gradient, angular momentum, quarter mass, -(3/2) Q mass, and the
    two nonlocal terms in w = Delta_l^{-1} f weighted by the profile
    convexity (d_r - 2/r) Q' and by Q''.  The profile weights are the
    grid's, evaluated at its nodes once per grid.
    """
    grid = f.grid
    df = RadialFunction(grid, fd_deriv(f.values, grid, 1))
    w, dw = deltal_inverse(l, f)

    term_grad = weighted_inner(df, df, "r2")
    term_ang = l * (l + 1) * weighted_inner(f, f, "flat")
    term_mass = 0.25 * weighted_inner(f, f, "r2")
    term_q = -1.5 * weighted_inner(f, f, grid.build_once("ggmt.q_r2", _q_r2))
    term_conv = 0.5 * weighted_inner(
        dw, dw, grid.build_once("ggmt.convexity_r2", _convexity_r2))
    term_curv = -0.5 * l * (l + 1) * weighted_inner(
        w, w, grid.build_once("ggmt.q_dd", lambda r: profile.q_deriv(r, 2)))
    total = term_grad + term_ang + term_mass + term_q + term_conv + term_curv
    return float(np.real(total))


def interpolation_check(f: RadialFunction, l: int, R: float = 4.0):
    """Quantitative interpolation inequality for the nonlocal term.

    lhs = || Delta_l^{-1} f / (r(2+r^2)) ||^2  vs
    rhs = 4 alpha(R)/((2l+1)^2 (2l-3)) ||f/r||^2
        + 4 beta(R)/((2l+1)^2 (2l-1)) ||f||^2,

    norms in L^2(r^2 dr).  Requires l >= 2 (2l - 3 > 0).
    Returns (lhs, rhs, passed).
    """
    if l < 2:
        raise ValueError("interpolation inequality requires l >= 2")
    aR, bR = alpha_beta(R)
    w = deltal_inverse(l, f)[0]
    lhs = float(np.real(weighted_inner(
        w, w, f.grid.build_once("ggmt.interpolation", _interpolation_weight))))
    rhs = float(np.real(
        4.0 * aR / ((2 * l + 1) ** 2 * (2 * l - 3)) * weighted_inner(f, f, "flat")
        + 4.0 * bR / ((2 * l + 1) ** 2 * (2 * l - 1)) * weighted_inner(f, f, "r2")))
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-6))


@dataclass(frozen=True)
class L3Constants:
    """Exact rational constants of the l >= 3 coercivity estimate.

    ``frac1`` is the bare fraction 1 - 13/24 - (68*4*(2/3))/(3*7^2*3) as it
    appears in print; the line it appears on drops the angular factor
    l(l+1) = 12 carried by the preceding display, so the value including
    that factor is reported alongside rather than silently resolving the
    discrepancy.
    """
    frac1: Fraction
    frac2: Fraction
    frac1_with_angular_factor: Fraction
    angular_factor_discrepancy: bool = True


def l3_rational_constants() -> L3Constants:
    """Recompute the l >= 3 rational constants in exact integer arithmetic."""
    frac1 = 1 - Fraction(13, 24) - Fraction(68 * 4 * 2, 3 * 3 * 7 ** 2 * 3)
    frac2 = Fraction(1, 4) - Fraction(68 * 12 * 4, 3 * 7 ** 2 * 5 * 36)
    return L3Constants(frac1=frac1, frac2=frac2,
                       frac1_with_angular_factor=12 * frac1)


def pointwise_q_bounds(grid) -> bool:
    """Pointwise profile bounds used by the l >= 3 estimate.

    Q r^2 <= 9/2 (attained at r = sqrt(6)), Q'' (2+r^2)^2 <= 136/3 (attained
    at r = 2) and (d_r - 2/r) Q' > 0; checked at every node and at the
    analytic critical points of each ratio.
    """
    r = np.concatenate((grid.nodes, [math.sqrt(6.0), 2.0]))
    qr2 = profile.q(r) * r * r
    curv = profile.q_deriv(r, 2) * (2.0 + r * r) ** 2
    conv = profile.q_deriv(r, 2) - 2.0 / r * profile.q_deriv(r, 1)
    return bool(np.all(qr2 <= 4.5 * (1.0 + 1e-12))
                and np.all(curv <= 136.0 / 3.0 * (1.0 + 1e-12))
                and np.all(conv > 0.0))
