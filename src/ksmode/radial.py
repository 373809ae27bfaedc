"""Radial grids, quadrature and the inverse first-order operators D_k^{-1}.

The package discretizes the half line (0, rmax] with n nodes (uniform or
geometrically stretched).  Cumulative integrals of the form

    int_0^r f(s) s^a ds      and      int_r^rmax f(s) s^a ds

are evaluated by *exact product integration of the piecewise-linear
interpolant*: on every panel the interpolant is integrated against s^a in
closed form.  This keeps the kernel form and the factorized form of the
class-l inverse Laplacian consistent to round-off (see operators.py) and
makes T[r]-type identities exact for data that is genuinely piecewise
linear.  The first panel [0, r_1] has three origin models, and the caller
names the one its data obeys; none is fitted to the data:

* the power model f ~ f_1 (s/r_1)^p (power_prefix_integral; p = l for
  class-l data), which cumulative_power_integral uses for p != 0;
* the even quadratic through the first two nodes (EvenPrefixIntegral),
  which cumulative_power_integral uses for p = 0;
* the cubic through the first four nodes, the origin panel of the
  piecewise-cubic rule cumulative_power_integral_cubic, which takes
  integer exponents a >= 0 only.

The dense matrices of operators.py use the power model at every p: a
constant class-0 panel.

Integrals reaching past rmax model the tail as a power law fitted on the
last decade of the grid and refuse to proceed when the fitted exponent makes
the tail integral divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialGrid", "RadialFunction", "make_grid", "DivergentTailError",
    "dk_inverse", "delta_l_inverse", "deriv_deltal_inverse", "weighted_inner",
    "cumulative_power_integral", "cumulative_power_integral_cubic",
    "EvenPrefixIntegral", "power_prefix_integral",
    "suffix_power_integral", "fit_tail_exponent", "fd_deriv",
]

MIN_NODES = 16
_TAIL_DECADE = 10.0  # tail fits use the nodes r >= rmax / _TAIL_DECADE
_TAIL_MARGIN = 0.1   # a tail integral needs q + a < -1 - _TAIL_MARGIN


class DivergentTailError(RuntimeError):
    """Raised when a half-line integral has a non-integrable fitted tail."""


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes in (0, rmax] with trapezoid weights on [r_1, rmax]."""
    nodes: np.ndarray
    quad_weights: np.ndarray
    rmax: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes")
        if not (np.all(np.isfinite(nodes)) and math.isfinite(self.rmax)):
            raise ValueError("nodes and rmax must be finite")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing and positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "quad_weights", np.asarray(self.quad_weights, dtype=float))

    @property
    def n(self) -> int:
        return self.nodes.size

    def cell_spacings(self) -> np.ndarray:
        """The n + 1 spacings from the origin to the outer ghost node."""
        r = self.nodes
        return np.concatenate(([r[0]], np.diff(r), [r[-1] - r[-2]]))


@dataclass
class RadialFunction:
    """Nodal values of a radial function on a RadialGrid."""
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.grid.n,):
            raise ValueError("values length must equal node count")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite (no NaN/Inf)")
        self.values = values


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def make_grid(n: int, rmax: float, stretch="uniform") -> RadialGrid:
    """Build a radial grid with n nodes on (0, rmax].

    ``stretch`` is either "uniform" (spacing rmax/n, first node rmax/n) or
    ("geometric", ratio) with ratio > 0: consecutive spacings grow by the
    given per-step ratio, clustering nodes near the origin for ratio > 1.
    """
    if n < MIN_NODES:
        raise ValueError(f"n = {n} is below the minimum node count {MIN_NODES}")
    if not 0.0 < rmax < math.inf:
        raise ValueError("rmax must be positive and finite")
    if stretch == "uniform":
        nodes = rmax / n * np.arange(1, n + 1)
    else:
        kind, ratio = stretch
        if kind != "geometric":
            raise ValueError(f"unknown stretch {stretch!r}")
        ratio = float(ratio)
        if ratio <= 0.0:
            raise ValueError("geometric ratio must be positive")
        if ratio == 1.0:
            return make_grid(n, rmax, "uniform")
        try:
            h0 = rmax * (ratio - 1.0) / (ratio ** n - 1.0)
        except OverflowError:
            raise ValueError(f"geometric ratio {ratio} overflows at n = {n}") from None
        nodes = h0 * (ratio ** np.arange(1, n + 1) - 1.0) / (ratio - 1.0)
        nodes[-1] = rmax
    return RadialGrid(nodes=nodes, quad_weights=_trapezoid_weights(nodes),
                      rmax=float(rmax))


# ---------------------------------------------------------------------------
# exact piecewise-linear product integration against s^a
# ---------------------------------------------------------------------------

def power_moment(a: float, lo, hi):
    """Exact int_lo^hi s^a ds, elementwise, with the log branch at a = -1."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if a == -1.0:
        return np.log(hi / lo)
    return (hi ** (a + 1.0) - lo ** (a + 1.0)) / (a + 1.0)


def panel_coefficients(a: float, nodes: np.ndarray):
    """Coefficients (cu, cv) with int_panel f_pl s^a ds = cu f_j + cv f_{j+1}."""
    u, v = nodes[:-1], nodes[1:]
    m0 = power_moment(a, u, v)
    m1 = power_moment(a + 1.0, u, v)
    cv = (m1 - u * m0) / (v - u)
    cu = m0 - cv
    return cu, cv


def cumulative_power_integral(values, grid: RadialGrid, a: float,
                              origin_power: float) -> np.ndarray:
    """I_i = int_0^{r_i} f(s) s^a ds for nodal data f, exact on the interpolant.

    The origin panel [0, r_1] uses the power model f = f_1 (s/r_1)^p with
    p = ``origin_power``, except for p = 0 where an even-quadratic fit
    a + b s^2 through the first two nodes is used (smooth radial data is
    even in r, and the constant model would leave an O(h^2) origin error
    with a large profile-curvature constant).  p + a + 1 must be positive
    for the model to integrate.  Takes one data set or a stack of them
    along the leading axes.
    """
    p = float(origin_power)
    if p + a + 1.0 <= 0.0:
        raise DivergentTailError(
            f"origin model exponent p={p:.3g} makes int_0 s^{a} divergent")
    if p == 0.0:
        return EvenPrefixIntegral(grid.nodes, a)(values)
    return power_prefix_integral(values, grid.nodes, a, p)


def power_prefix_integral(values, nodes: np.ndarray, a: float,
                          p: float) -> np.ndarray:
    """I_i = int_0^{r_i} f(s) s^a ds, origin model f_1 (s/r_1)^p, p + a + 1 > 0;
    one data set or a stack of them along the leading axes."""
    values = np.asarray(values)
    origin = values[..., 0] * nodes[0] ** (a + 1.0) / (p + a + 1.0)
    return _prefix_sums(origin, *panel_coefficients(a, nodes), values)


def _prefix_sums(origin, cu, cv, values) -> np.ndarray:
    """Origin-panel integral followed by the running sum of the panels.

    ``values`` may be a stack of data sets along the leading axes (one
    ``origin`` each); the sums run along the last axis, in the output array.
    """
    out = np.empty(values.shape, dtype=np.result_type(values, float))
    out[..., 0] = origin
    sums = out[..., 1:]
    np.multiply(cu, values[..., :-1], out=sums)
    sums += cv * values[..., 1:]
    np.cumsum(sums, axis=-1, out=sums)
    sums += np.expand_dims(origin, -1)
    return out


class EvenPrefixIntegral:
    """I_i = int_0^{r_i} f(s) s^a ds with the even-quadratic origin model.

    The ``origin_power = 0`` case of cumulative_power_integral, which calls
    it: the origin panel integrates the fit c0 + c2 s^2 through the first
    two nodes.  Everything that depends only on the nodes (the panel
    coefficients and the origin powers) is computed once, so a caller that
    integrates many data sets on one grid builds one instance.  A call
    takes one data set or a stack of them along the leading axes.
    """

    def __init__(self, nodes: np.ndarray, a: float):
        self.a = a
        self.r1, r2 = nodes[0], nodes[1]
        self.span = r2 * r2 - self.r1 * self.r1
        self.pow1 = self.r1 ** (a + 1.0)
        self.pow3 = self.r1 ** (a + 3.0)
        self.cu, self.cv = panel_coefficients(a, nodes)

    def __call__(self, values) -> np.ndarray:
        values = np.asarray(values)
        b = (values[..., 1] - values[..., 0]) / self.span
        c0 = values[..., 0] - b * self.r1 * self.r1
        origin = c0 * self.pow1 / (self.a + 1.0) + b * self.pow3 / (self.a + 3.0)
        return _prefix_sums(origin, self.cu, self.cv, values)


def _panel_moments(a: int, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """I_m = int_0^delta t^m (t + u)^a dt for m = 0..3, per panel [u, u + delta].

    Expanding (t + u)^a for integer a >= 0 gives the finite sum
    I_m = sum_j C(a, j) u^(a-j) delta^(m+j+1) / (m+j+1).  Every term is
    positive, so the sum cannot cancel, whatever the ratio delta/u.
    """
    out = np.zeros((4, u.size))
    for m in range(4):
        for j in range(a + 1):
            out[m] += (math.comb(a, j) / (m + j + 1)) * u ** (a - j) \
                * delta ** (m + j + 1)
    return out


def cumulative_power_integral_cubic(values, grid: RadialGrid, a: int) -> np.ndarray:
    """I_i = int_0^{r_i} f(s) s^a ds, exact on the piecewise-cubic interpolant.

    Each panel integrates the cubic through its four nearest nodes against
    s^a in closed form (panel-local coordinates keep the Vandermonde solves
    well conditioned).  The origin panel [0, r_1] uses the first four nodes'
    cubic, whose extrapolation error below r_1 is O(h^4).  The exponent a
    must be an integer >= 0.  Used where a downstream 1/r^4-type factor
    would amplify piecewise-linear error, e.g. by the intertwining map.
    """
    if not (float(a).is_integer() and a >= 0):
        raise ValueError(f"the cubic rule takes integer a >= 0, got {a}")
    a = int(a)
    f = np.asarray(values)
    r = grid.nodes
    n = grid.n
    s0 = np.clip(np.arange(n - 1) - 1, 0, n - 4)
    support = s0[:, None] + np.arange(4)[None, :]
    x = r[support] - r[:-1][:, None]
    vander = x[..., None] ** np.arange(4)[None, None, :]
    coeffs = np.linalg.solve(vander, f[support][..., None])[..., 0]
    panel = np.einsum("jm,mj->j", coeffs, _panel_moments(a, r[:-1], np.diff(r)))

    # origin panel: cubic through the first four nodes in coords t = s - r_1;
    # int_0^{r1} (s-r1)^m s^a ds = r1^{a+m+1} sum_k C(m,k)(-1)^{m-k}/(a+k+1)
    x0 = r[:4] - r[0]
    c0 = np.linalg.solve(x0[:, None] ** np.arange(4)[None, :], f[:4])
    m_origin = np.array([
        r[0] ** (a + m + 1.0)
        * sum(math.comb(m, k) * (-1.0) ** (m - k) / (a + k + 1.0) for k in range(m + 1))
        for m in range(4)])
    origin = c0 @ m_origin
    return np.concatenate(([origin], origin + np.cumsum(panel)))


def fit_tail_exponent(values, grid: RadialGrid):
    """Least-squares power-law fit f ~ c r^q on the last decade of the grid.

    Returns (c, q).  If the data in the window is numerically zero, returns
    (0.0, 0.0) (the tail vanishes); raises DivergentTailError if the data
    changes sign in the window so no power law is identifiable.
    """
    r = grid.nodes
    vals = np.asarray(values)
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    tail_nodes = max(4, vals.size // 20)
    if scale == 0.0 or np.max(np.abs(vals[-tail_nodes:])) <= 1e-13 * scale:
        return 0.0, 0.0  # numerically zero at the edge: no tail
    mask = (r >= grid.rmax / _TAIL_DECADE) & (np.abs(vals) > 1e-300)
    if np.count_nonzero(mask) < 4:
        mask = np.zeros_like(mask)
        mask[-4:] = np.abs(vals[-4:]) > 1e-300
    f = vals[mask]
    fr = f.real if np.iscomplexobj(f) else f
    if np.any(fr > 0) and np.any(fr < 0):
        raise DivergentTailError("tail data changes sign; no power-law model")
    q, logc = np.polyfit(np.log(r[mask]), np.log(np.abs(f)), 1)
    c = np.sign(fr[-1]) * np.exp(logc)
    return float(c), float(q)


def suffix_power_integral(values, grid: RadialGrid, a: float,
                          tail: bool = True) -> np.ndarray:
    """J_i = int_{r_i}^{rmax or inf} f(s) s^a ds, exact on the interpolant.

    With ``tail=True`` (default) the integral extends to infinity using the
    fitted power-law tail of one data set; a fitted exponent q with
    q + a >= -1 - _TAIL_MARGIN raises DivergentTailError.  With ``tail=False``
    f is zero beyond rmax and may be a stack of data sets (leading axes).
    """
    values = np.asarray(values)
    if tail and values.ndim != 1:
        raise ValueError("the fitted tail takes one data set")
    cu, cv = panel_coefficients(a, grid.nodes)
    out = np.empty(values.shape, dtype=np.result_type(values, float))
    out[..., -1] = 0.0
    sums = out[..., -2::-1]   # running sums from rmax inwards, in place
    np.multiply(cu, values[..., :-1], out=out[..., :-1])
    out[..., :-1] += cv * values[..., 1:]
    np.cumsum(sums, axis=-1, out=sums)
    if tail:
        c, qexp = fit_tail_exponent(values, grid)
        if c != 0.0:
            if qexp + a >= -1.0 - _TAIL_MARGIN:
                raise DivergentTailError(
                    f"fitted tail exponent {qexp:.3g} too weak for int s^{a} ds")
            out += c * grid.rmax ** (qexp + a + 1.0) / (-(qexp + a + 1.0))
    return out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def three_point(order: int, f_left, f_mid, f_right, hm, hp):
    """Three-point derivative (order 1 or 2) at the middle node; hm, hp are
    the spacings to its neighbours.  On unit data it returns the weights."""
    if order == 1:
        return (hm * hm * f_right + (hp * hp - hm * hm) * f_mid
                - hp * hp * f_left) / (hm * hp * (hm + hp))
    return 2.0 * (hm * f_right - (hm + hp) * f_mid + hp * f_left) \
        / (hm * hp * (hm + hp))


def deriv_stencil(positions, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at x0 from given positions.

    Solves the small Vandermonde system sum_j w_j (x_j - x0)^m = m! delta_{m,order}
    for m = 0..len(positions)-1 (exact on polynomials of that degree).
    """
    x = np.asarray(positions, dtype=float) - x0
    m = x.size
    vander = np.vander(x, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = float(math.factorial(order))
    return np.linalg.solve(vander, rhs)


def fd_deriv(values, nodes, order: int) -> np.ndarray:
    """O(h^2) derivative of order 1 or 2 on a (possibly nonuniform) grid.

    Interior nodes use three_point; each end uses deriv_stencil on its
    order + 2 nearest nodes (one-sided).
    """
    f = np.asarray(values)
    r = np.asarray(nodes, dtype=float)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    out[1:-1] = three_point(order, f[:-2], f[1:-1], f[2:],
                            r[1:-1] - r[:-2], r[2:] - r[1:-1])
    m = order + 2
    out[0] = deriv_stencil(r[:m], r[0], order) @ f[:m]
    out[-1] = deriv_stencil(r[-m:], r[-1], order) @ f[-m:]
    return out


# ---------------------------------------------------------------------------
# the spec operators
# ---------------------------------------------------------------------------

def dk_inverse(k: int, f: RadialFunction, origin_power=None) -> RadialFunction:
    """D_k^{-1} f: r^{-k} int_0^r f s^k ds for k > 0, else -r^{-k} int_r^inf f s^k ds.

    For k > 0 the caller names the origin model f ~ r^origin_power of its
    data (see cumulative_power_integral); k <= 0 takes none.
    """
    r = f.grid.nodes
    if k > 0:
        if origin_power is None:
            raise ValueError(f"D_{k}^{{-1}} needs the origin power of its data")
        vals = cumulative_power_integral(f.values, f.grid, float(k), origin_power)
        return RadialFunction(f.grid, r ** (-float(k)) * vals)
    vals = suffix_power_integral(f.values, f.grid, float(k))
    return RadialFunction(f.grid, -r ** (-float(k)) * vals)


def delta_l_inverse(l: int, f: RadialFunction) -> RadialFunction:
    """Kernel form of the class-l inverse Laplacian.

    Delta_l^{-1} f (r) = -(2l+1)^{-1} [ r^{-(l+1)} int_0^r s^{l+2} f ds
                                        + r^l int_r^inf s^{1-l} f ds ].
    """
    r = f.grid.nodes
    inner = cumulative_power_integral(f.values, f.grid, l + 2.0, l)
    outer = suffix_power_integral(f.values, f.grid, 1.0 - l)
    vals = -(r ** (-(l + 1.0)) * inner + r ** float(l) * outer) / (2 * l + 1)
    return RadialFunction(f.grid, vals)


def deriv_deltal_inverse(l: int, f: RadialFunction) -> RadialFunction:
    """d/dr of Delta_l^{-1} f via the first-order factorization.

    Uses (2l+1) d_r Delta_l^{-1} = (l+1) D_{l+2}^{-1} + l D_{-(l-1)}^{-1};
    the kernel is never differentiated numerically.  The l = 0 case reduces
    to D_2^{-1} alone.
    """
    first = dk_inverse(l + 2, f, origin_power=l)
    vals = (l + 1) * first.values
    if l > 0:
        second = dk_inverse(-(l - 1), f)
        vals = vals + l * second.values
    return RadialFunction(f.grid, vals / (2 * l + 1))


_WEIGHTS = {
    "flat": lambda r: np.ones_like(r),
    "r2": lambda r: r * r,
}


def weighted_inner(f: RadialFunction, g: RadialFunction, weight="r2"):
    """Quadrature of int f conj(g) w dr with w in {"flat", "r2"} or a callable.

    The trapezoid rule covers [r_1, rmax]; for w = r^2 (and callables
    vanishing at the origin) the first panel [0, r_1] is closed with the
    zero limit of the integrand at r = 0.
    """
    if f.grid is not g.grid and not np.array_equal(f.grid.nodes, g.grid.nodes):
        raise ValueError("mismatched grids in weighted_inner")
    r = f.grid.nodes
    wfun = _WEIGHTS.get(weight, weight if callable(weight) else None)
    if wfun is None:
        raise ValueError(f"unknown weight {weight!r}")
    integrand = f.values * np.conj(g.values) * wfun(r)
    total = np.sum(f.grid.quad_weights * integrand)
    if weight != "flat":
        total = total + 0.5 * r[0] * integrand[0]
    return total if np.iscomplexobj(integrand) else float(total)
