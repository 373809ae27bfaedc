"""Scalar estimates for the l >= 2 coercivity analysis.

Covers the interpolation constants alpha(R)/beta(R), the symmetrized
potential W1, the nonlocality functional mu, the eigenvalue-count bound
N_{p,l}(V) with its Gamma-function prefactor, the full l = 2 pipeline that
combines them into a single report, the six-term coercivity quadratic form,
the quantitative interpolation inequality, the exact rational constants of
the l >= 3 estimate, and the pointwise profile bounds they rest on.

Improper integrals are evaluated with adaptive quadrature over log-spaced
breakpoint segments plus analytic power-law tails beyond S = 1e4; the mu
functional is computed in both orders of integration (a Fubini consistency
check at relative 1e-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import profile
from .radial import RadialFunction, weighted_inner, fd_deriv, \
    delta_l_inverse, deriv_deltal_inverse

__all__ = [
    "alpha_beta", "w1_potential", "WeightSpec", "paper_weight",
    "mu_functional", "ggmt_prefactor", "ggmt_count",
    "check_pipeline", "l2_pipeline", "GgmtReport", "coercivity_form",
    "interpolation_check",
    "l3_rational_constants", "L3Constants", "pointwise_q_bounds",
]

_S_CUT = 1.0e4  # analytic power-law tails take over beyond this radius
_FUBINI_RTOL = 1e-4  # agreement required of the two integration orders of mu


def alpha_beta(R: float):
    """Closed-form interpolation constants

        alpha(R) = int_0^R r^3/(2+r^2)^2 dr,
        beta(R)  = int_R^inf r/(2+r^2)^2 dr = 1/(2(R^2+2)),

    cross-validated internally against adaptive quadrature to 1e-10.
    """
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

    def check(self, l: float, alpha: float) -> None:
        """Validate the positivity/decay condition on W for given (l, alpha)."""
        r = np.logspace(-3, 4, 200)
        with np.errstate(invalid="ignore"):   # a NaN weight fails below
            w = np.asarray(self.fn(r), dtype=float)
        if not np.all(w > 0.0):
            raise ValueError(f"weight {self.label} is not strictly positive")
        decay_cap = min(2.0 * l + 2.0 * alpha - 1.0, 2.0)
        if decay_cap <= 0.0:
            raise ValueError("weight condition needs 2l + 2 alpha > 1")
        if self.w_inf <= 0.0:
            # no positive floor: the tail must beat <r>^{-decay_cap}
            p = np.polyfit(np.log(r[-50:]), np.log(w[-50:]), 1)[0]
            if p <= -decay_cap:
                raise ValueError(
                    f"weight {self.label} tail exponent {p:.3g} too weak")

    def check_mu(self, l: float, alpha: float) -> None:
        """Validate the preconditions of ``mu_functional`` for (l, alpha).

        Besides ``check``, the analytic tail model of mu needs
        2l + 2 alpha > 3 (with a margin) and a positive limit at infinity.
        """
        self.check(l, alpha)
        if 2.0 * l + 2.0 * alpha <= 3.05:
            raise ValueError("tail model requires 2l + 2 alpha > 3")
        if self.w_inf <= 0.0:
            raise ValueError("mu tail model requires a weight with positive limit")


def paper_weight(eps: float = 0.01, power: float = -1.2,
                 floor: float = 0.02) -> WeightSpec:
    """The reference weight W(r) = (0.01 + r^2)^{-1.2} + 0.02 used for l = 2."""
    return WeightSpec(fn=lambda r: (eps + np.asarray(r, dtype=float) ** 2) ** power + floor,
                      w_inf=floor, label="shifted-power")


class _SegmentedCumulative:
    """I(s) = int_0^s k dr via per-segment adaptive quadrature with prefix sums."""

    def __init__(self, k, breaks):
        self.k = k
        self.breaks = breaks
        vals = [quad(k, breaks[j], breaks[j + 1], epsabs=1e-13, epsrel=1e-11,
                     limit=200)[0] for j in range(len(breaks) - 1)]
        self.prefix = np.concatenate(([0.0], np.cumsum(vals)))

    def __call__(self, s: float) -> float:
        j = np.searchsorted(self.breaks, s) - 1
        j = min(max(j, 0), len(self.breaks) - 2)
        part, _ = quad(self.k, self.breaks[j], s, epsabs=1e-13, epsrel=1e-11)
        return self.prefix[j] + part


class _SegmentedSuffix:
    """J(r) = int_r^inf k ds with an analytic tail constant beyond the last break.

    Breakpoints must be strictly positive (k may be non-integrable at 0;
    J is only ever evaluated at r > 0).
    """

    def __init__(self, k, breaks, tail: float):
        self.k = k
        self.breaks = breaks[breaks > 0.0]
        vals = [quad(k, self.breaks[j], self.breaks[j + 1], epsabs=1e-13,
                     epsrel=1e-11, limit=200)[0]
                for j in range(len(self.breaks) - 1)]
        suffix = np.concatenate((np.cumsum(vals[::-1])[::-1], [0.0]))
        self.suffix = suffix + tail

    def __call__(self, r: float) -> float:
        j = np.searchsorted(self.breaks, r)
        j = min(j, len(self.breaks) - 1)
        part, _ = quad(self.k, r, self.breaks[j], epsabs=1e-13, epsrel=1e-11)
        return part + self.suffix[j]


def mu_functional(l: float, alpha: float, W: WeightSpec) -> float:
    """Nonlocality functional

        mu = (1/4) int_0^inf W^{-1}(s) s^{-2l-2a} ( int_0^s W1^{-1} V2^2
             r^{2l+2a} dr ) ds,

    computed in both orders of integration; the two values must agree to
    relative ``_FUBINI_RTOL`` or a RuntimeError is raised.  Linear in W^{-1}.
    """
    W.check_mu(l, alpha)
    beta = 2.0 * l + 2.0 * alpha
    lma = l - alpha
    k_inner = lambda r: profile.v2(r) ** 2 / w1_potential(lma, r) * r ** beta
    winv = lambda s: 1.0 / float(W.fn(s))
    k_outer = lambda s: winv(s) * s ** (-beta)
    k_inf = 64.0 / (8.0 * lma + 4.0)  # K(r) ~ k_inf r^{beta-4} at infinity
    S = _S_CUT
    breaks = np.concatenate(([0.0], np.logspace(-4, math.log10(S), 145)))

    # order B (primary): outer in s, inner cumulative
    inner = _SegmentedCumulative(k_inner, breaks)
    total_b = 0.0
    for j in range(len(breaks) - 1):
        val, _ = quad(lambda s: k_outer(s) * inner(s), breaks[j], breaks[j + 1],
                      epsabs=1e-12, epsrel=1e-9, limit=200)
        total_b += val
    tail_b = (1.0 / W.w_inf) * (
        inner.prefix[-1] * S ** (1.0 - beta) / (beta - 1.0)
        + k_inf / (beta - 3.0) * (S ** (-2.0) / 2.0 - S ** (-2.0) / (beta - 1.0)))
    mu_b = 0.25 * (total_b + tail_b)

    # order A: outer in r, suffix integral of the weight
    tail_j = (1.0 / W.w_inf) * S ** (1.0 - beta) / (beta - 1.0)
    suffix = _SegmentedSuffix(k_outer, breaks, tail_j)
    total_a = 0.0
    for j in range(len(breaks) - 1):
        val, _ = quad(lambda r: k_inner(r) * suffix(r), breaks[j], breaks[j + 1],
                      epsabs=1e-12, epsrel=1e-9, limit=200)
        total_a += val
    tail_a = k_inf / (W.w_inf * (beta - 1.0)) * S ** (-2.0) / 2.0
    mu_a = 0.25 * (total_a + tail_a)

    if abs(mu_a - mu_b) > _FUBINI_RTOL * abs(mu_b):
        raise RuntimeError(
            f"mu integration orders disagree: {mu_a!r} vs {mu_b!r}")
    return mu_b


def ggmt_prefactor(p: float, l: float) -> float:
    """(p-1)^{p-1} Gamma(2p) / (p^p Gamma(p)^2) * (2l+1)^{-(2p-1)}."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return ((p - 1.0) ** (p - 1.0) * math.gamma(2.0 * p)
            / (p ** p * math.gamma(p) ** 2) * (2.0 * l + 1.0) ** (-(2.0 * p - 1.0)))


def negative_part_bracket(V):
    """Bracket the support of V_- by a scan of 512 log-spaced radii in
    [1e-3, 1e3] plus bisection.

    Returns a list of (r_down, r_up) intervals on which V < 0.  Raises if V
    is negative at either end of the scan (non-compact negative part).
    """
    r = np.logspace(-3.0, 3.0, 512)
    v = np.array([float(V(x)) for x in r])
    if v[0] < 0.0 or v[-1] < 0.0:
        raise ValueError("negative part of the potential is not compactly "
                         "supported inside the scan window")
    sign_flips = np.where(np.sign(v[:-1]) != np.sign(v[1:]))[0]
    crossings = [brentq(V, r[i], r[i + 1], xtol=1e-13, rtol=1e-14)
                 for i in sign_flips]
    return [(crossings[i], crossings[i + 1]) for i in range(0, len(crossings), 2)]


def ggmt_count(p: float, l: float, V) -> float:
    """Eigenvalue-count bound N_{p,l}(V) = prefactor * int_0^inf r^{2p-1}|V_-|^p dr.

    ``V`` is a callable potential; its negative part must be compactly
    supported (bracketed before integrating).  N < 1 certifies the absence
    of non-positive eigenvalues of -d_r^2 + l(l+1)/r^2 + V.
    """
    pref = ggmt_prefactor(p, l)
    wells = negative_part_bracket(V)
    total = 0.0
    for (a, b) in wells:
        val, _ = quad(lambda r: r ** (2.0 * p - 1.0) * abs(min(float(V(r)), 0.0)) ** p,
                      a, b, epsabs=1e-13, epsrel=1e-10, limit=300)
        total += val
    return pref * total


@dataclass(frozen=True)
class GgmtReport:
    """All scalars of the l = 2 pipeline."""
    l: int
    alpha: float
    p: float
    theta: float
    alphaR: float
    betaR: float
    mu: float
    prefactor: float
    bigN: float
    l_eff: float
    u_infinity: float
    big_l: float
    well: tuple

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("l", "alpha", "p", "theta", "alphaR", "betaR", "mu",
              "prefactor", "bigN", "l_eff", "u_infinity", "big_l")}
        d["well"] = list(self.well)
        return d


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


def check_pipeline(l: int, alpha: float, p: float, theta: float,
                   W: WeightSpec) -> None:
    """Raise ValueError unless p > 1, theta in [0, 1], (1-theta) L > 3/4,
    alpha < 1/2 and ``W.check_mu`` hold: ``l2_pipeline`` fails without
    them whatever mu is (its limit (1-2a)/4 - l mu W_inf needs a < 1/2)."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if (1.0 - theta) * _angular_constant(l, alpha) <= 0.75:
        raise ValueError("(1-theta) L <= 3/4: effective index not self-adjoint")
    if alpha >= 0.5:
        raise ValueError("alpha >= 1/2: the potential limit at infinity is "
                         "not positive")
    W.check_mu(l, alpha)


def l2_pipeline(l: int = 2, alpha: float = 0.2, p: float = 4.0,
                theta: float = 0.5, W: WeightSpec | None = None) -> GgmtReport:
    """Full l = 2 certification pipeline.

    Checks the settings (``check_pipeline``), computes mu, splits the
    angular momentum with theta into an effective index
    l_eff = sqrt(1/4 + (1-theta) L) - 1/2, assembles the comparison
    potential U and evaluates N_{p, l_eff}(U).  Asserts a positive
    potential limit at infinity.
    """
    if W is None:
        W = paper_weight()
    check_pipeline(l, alpha, p, theta, W)
    mu = mu_functional(l, alpha, W)
    U, big_l = schrodinger_potential(l, alpha, theta, mu, W)
    l_eff = math.sqrt(0.25 + (1.0 - theta) * big_l) - 0.5
    u_inf = (1.0 - 2.0 * alpha) / 4.0 - l * mu * W.w_inf
    if u_inf <= 0.0:
        raise RuntimeError("potential limit at infinity is not positive")
    wells = negative_part_bracket(U)
    if len(wells) != 1:
        raise RuntimeError(f"expected a single potential well, found {len(wells)}")
    big_n = ggmt_count(p, l_eff, U)
    a4, b4 = alpha_beta(4.0)
    return GgmtReport(l=l, alpha=alpha, p=p, theta=theta, alphaR=a4, betaR=b4,
                      mu=mu, prefactor=ggmt_prefactor(p, l_eff), bigN=big_n,
                      l_eff=l_eff, u_infinity=u_inf, big_l=big_l,
                      well=wells[0])


# ---------------------------------------------------------------------------
# quadratic forms and inequalities
# ---------------------------------------------------------------------------

def coercivity_form(f: RadialFunction, l: int) -> float:
    """Six-term quadrature form equal to Re (L f, f) in L^2(r^2 dr).

    Terms: gradient, angular momentum, quarter mass, -(3/2) Q mass, and the
    two nonlocal terms in w = Delta_l^{-1} f weighted by the profile
    convexity (d_r - 2/r) Q' and by Q''.
    """
    grid = f.grid
    r = grid.nodes
    df = RadialFunction(grid, fd_deriv(f.values, r, 1))
    w = delta_l_inverse(l, f)
    dw = deriv_deltal_inverse(l, f)

    def convexity_r2(rr):
        return (profile.q_deriv(rr, 2) - 2.0 / rr * profile.q_deriv(rr, 1)) * rr * rr

    term_grad = weighted_inner(df, df, "r2")
    term_ang = l * (l + 1) * weighted_inner(f, f, "flat")
    term_mass = 0.25 * weighted_inner(f, f, "r2")
    term_q = -1.5 * weighted_inner(f, f, lambda rr: profile.q(rr) * rr * rr)
    term_conv = 0.5 * weighted_inner(dw, dw, convexity_r2)
    term_curv = -0.5 * l * (l + 1) * weighted_inner(
        w, w, lambda rr: profile.q_deriv(rr, 2))
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
    w = delta_l_inverse(l, f)
    lhs = float(np.real(weighted_inner(
        w, w, lambda rr: 1.0 / (2.0 + rr * rr) ** 2)))
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
    assert frac1 == Fraction(499, 10584)
    assert frac2 == Fraction(1, 8) + Fraction(29, 17640)
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
