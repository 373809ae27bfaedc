"""Radial grids, quadrature and the class-l inverse Laplacian.

The package discretizes the half line (0, rmax] with n nodes (uniform or
geometrically stretched).  The grid owns its quadrature: trapezoid weights,
and the L^2(r^2 dr) weights r2_weights and norm that every mode and
evolution norm, cosine and projection pairing reads.  It also owns every
other weight that depends on its nodes alone, and builds each one once, on
first use: the prefix integrals with their origin weights, the panel
coefficients of the suffix integrals, the spacing factors of the
three-point stencil, the end stencils of fd_deriv, the Lagrange weights of
the cubic rule, and the nodal profile weights its callers name.
Cumulative integrals of the form

    int_0^r f(s) s^a ds      and      int_r^rmax f(s) s^a ds

are evaluated by *exact product integration of the piecewise-linear
interpolant*: on every panel the interpolant is integrated against s^a in
closed form.  This keeps the kernel form and the factorized form of the
class-l inverse Laplacian consistent to round-off (see operators.py) and
makes T[r]-type identities exact for data that is genuinely piecewise
linear.  The first panel [0, r_1] has three origin models, and the caller
names the one its data obeys; none is fitted to the data.  Each is linear
in the first nodal values, so it is a weight vector fixed by the nodes:

* the power model f ~ f_1 (s/r_1)^p (PrefixIntegral with p; p = l for
  class-l data), which cumulative_power_integral uses for p != 0;
* the even quadratic through the first two nodes (PrefixIntegral without
  p), which cumulative_power_integral uses for p = 0;
* the cubic through the first four nodes, the first panel of the
  piecewise-cubic rule cumulative_power_integral_cubic.  That rule
  integrates the cubic through each panel's four nearest nodes against
  s^a as a sum of closed-form Lagrange weights times the nodal data; it
  takes integer exponents a >= 0 only, so each panel moment is a finite
  binomial sum.

This module holds the vector integrals.  The dense matrices of
operators.py are built from the same grid-owned panel coefficients and
power-model origin weight at every p (a constant class-0 panel), and treat
the data as zero beyond rmax.

Integrals reaching past rmax model the tail as a power law fitted on the
last decade of the grid and refuse to proceed when the fitted exponent makes
the tail integral divergent.  deltal_inverse gives Delta_l^{-1} f and
d_r Delta_l^{-1} f together from one prefix and one suffix integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "RadialGrid", "RadialFunction", "make_grid", "DivergentTailError",
    "row_blocks",
    "deltal_inverse", "weighted_inner",
    "cumulative_power_integral", "cumulative_power_integral_cubic",
    "PrefixIntegral", "suffix_power_integral", "fit_tail_exponent", "fd_deriv",
]

MIN_NODES = 16
_NORM_BLOCK = 1 << 16  # values per block of RadialGrid.norm on a long stack
_TAIL_DECADE = 10.0  # tail fits use the nodes r >= rmax / _TAIL_DECADE
_TAIL_MARGIN = 0.1   # a tail integral needs q + a < -1 - _TAIL_MARGIN


class DivergentTailError(RuntimeError):
    """Raised when a half-line integral has a non-integrable fitted tail."""


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes in (0, rmax] with their radial quadrature.

    ``quad_weights`` is the trapezoid rule on [r_1, rmax]; ``r2_weights``
    and ``norm`` give L^2(r^2 dr), the space of every mode and evolution
    norm.  Both weight vectors are read-only.

    Every other weight that depends on the nodes alone is built once per
    grid and key, on first use, by ``build_once``, and kept in a private
    memo that lives and dies with the grid: ``prefix_integral``, ``panels``,
    ``three_point_spacings``, the end stencils of ``fd_deriv``, the
    Lagrange weights of the cubic rule and the nodal profile weights a
    caller names.  Each is built by the
    same operations as the primitive it caches, so it has the same bits,
    and its arrays are read-only.
    """
    nodes: np.ndarray
    rmax: float
    quad_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < MIN_NODES:
            raise ValueError(f"grid needs at least {MIN_NODES} nodes")
        if not (np.all(np.isfinite(nodes)) and math.isfinite(self.rmax)):
            raise ValueError("nodes and rmax must be finite")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing and positive")
        w = np.zeros_like(nodes)
        d = np.diff(nodes)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
        w.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "quad_weights", w)

    @property
    def n(self) -> int:
        return self.nodes.size

    @cached_property
    def r2_weights(self) -> np.ndarray:
        """Lumped L^2(r^2 dr) weights, origin panel included; built on first
        use, so a grid whose r^2 overflows still builds (and is refused)."""
        w = self.quad_weights * self.nodes ** 2
        w[0] += 0.5 * self.nodes[0] ** 3  # trapezoid on [0, r_1] with zero limit
        w.flags.writeable = False
        return w

    def norm(self, values):
        """L^2(r^2 dr) norm along the last axis: one per row of a stack.

        A long stack is taken over blocks of rows, so its temporaries stay
        near ``_NORM_BLOCK`` values; each row's norm has the same bits.
        """
        def norms(v):
            sq = np.abs(v) ** 2 if np.iscomplexobj(v) else v ** 2
            return np.sqrt(np.sum(self.r2_weights * sq, axis=-1))

        v = np.asarray(values)
        if v.ndim < 2 or v.size <= _NORM_BLOCK:
            return norms(v)
        return np.concatenate([norms(b) for b in row_blocks(v)]
                              ).reshape(v.shape[:-1])

    @cached_property
    def _memo(self) -> dict:
        return {}

    def build_once(self, key, build):
        """``build(nodes)`` the first time ``key`` is asked for on this grid,
        the same object on every later call.

        The result is an array, a tuple of arrays or an object with array
        attributes; its arrays are made read-only.  Keys are plain values
        (strings, numbers, tuples of them), never objects whose identity
        could change.
        """
        memo = self._memo
        if key not in memo:
            value = build(self.nodes)
            if isinstance(value, np.ndarray):
                arrays = (value,)
            elif isinstance(value, tuple):
                arrays = value
            else:
                arrays = vars(value).values()
            for array in arrays:
                array.flags.writeable = False
            memo[key] = value
        return memo[key]

    def prefix_integral(self, a: float, p: float | None = None) -> PrefixIntegral:
        """``PrefixIntegral(nodes, a, p)``, built once per (a, p)."""
        a, p = float(a), None if p is None else float(p)
        return self.build_once(("prefix", a, p),
                               lambda r: PrefixIntegral(r, a, p))

    def panels(self, a: float) -> tuple:
        """``panel_coefficients(a, nodes)``, built once per a."""
        a = float(a)
        return self.build_once(("panels", a),
                               lambda r: panel_coefficients(a, r))

    def cell_spacings(self) -> np.ndarray:
        """The n + 1 spacings from the origin to the outer ghost node."""
        r = self.nodes
        return np.concatenate(([r[0]], np.diff(r), [r[-1] - r[-2]]))

    def three_point_spacings(self) -> ThreePoint:
        """The ``ThreePoint`` factors of every node, the origin and the
        outer ghost node its end neighbours; built once."""
        def build(r):
            h = self.cell_spacings()
            return ThreePoint(h[:-1], h[1:])
        return self.build_once(("three-point",), build)


def row_blocks(stack: np.ndarray):
    """The rows of a stack (the grid along its last axis) in consecutive
    blocks of near ``_NORM_BLOCK`` float values (a complex value counts
    twice), so a loop over the blocks holds no temporary the size of the
    stack."""
    rows = stack.reshape(-1, stack.shape[-1])
    step = max(1, _NORM_BLOCK * 8 // (stack.shape[-1] * stack.itemsize))
    return (rows[i:i + step] for i in range(0, len(rows), step))


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
    return RadialGrid(nodes, float(rmax))


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


def panel_coefficients(a: float, nodes: np.ndarray, upper=None):
    """Coefficients (cu, cv) with int_u^upper f_pl s^a ds = cu f_j + cv f_{j+1}
    on each panel [u, v] = [r_j, r_{j+1}]; ``upper`` defaults to v."""
    u, v = nodes[:-1], nodes[1:]
    upper = v if upper is None else upper
    m0 = power_moment(a, u, upper)
    m1 = power_moment(a + 1.0, u, upper)
    cv = (m1 - u * m0) / (v - u)
    cu = m0 - cv
    return cu, cv


def cumulative_power_integral(values, grid: RadialGrid, a: float,
                              origin_power: float) -> np.ndarray:
    """I_i = int_0^{r_i} f(s) s^a ds for nodal data f, exact on the interpolant.

    The origin panel [0, r_1] uses the power model f = f_1 (s/r_1)^p with
    p = ``origin_power``, except for p = 0 where the even quadratic
    c0 + c2 s^2 through the first two nodes is used (smooth radial data is
    even in r, and the constant model would leave an O(h^2) origin error
    with a large profile-curvature constant).  Takes one data set or a
    stack of them along the leading axes.
    """
    p = float(origin_power)
    return grid.prefix_integral(a, None if p == 0.0 else p)(values)


class PrefixIntegral:
    """I_i = int_0^{r_i} f(s) s^a ds, one origin model and its panel weights.

    Every origin model is linear in the first nodal values, so the origin
    panel [0, r_1] is a weight vector fixed by the nodes, ``origin``:

    * ``p`` given: the power model f_1 (s/r_1)^p, one weight
      r_1^{a+1}/(p+a+1);
    * ``p`` None: the even quadratic c0 + c2 s^2 through the first two
      nodes, two weights.

    p + a + 1 (a + 1 for the even model) must be positive.  The panels
    after it integrate the interpolant, cu_j f_j + cv_j f_{j+1}.  A call
    takes one data set or a stack of them along the leading axes, applies
    the origin weights elementwise and adds the running sum of the panels,
    so each row has the bits of its own call.
    """

    def __init__(self, nodes: np.ndarray, a: float, p: float | None = None):
        power = 0.0 if p is None else p
        if power + a + 1.0 <= 0.0:
            raise DivergentTailError(
                f"origin model exponent p={power:.3g} makes int_0 s^{a} divergent")
        r1, r2 = nodes[0], nodes[1]
        if p is None:
            # c2 = (f_2 - f_1)/(r_2^2 - r_1^2) and c0 = f_1 - c2 r_1^2
            w2 = -2.0 * r1 ** (a + 3.0) \
                / ((a + 1.0) * (a + 3.0) * (r2 * r2 - r1 * r1))
            self.origin = np.array([r1 ** (a + 1.0) / (a + 1.0) - w2, w2])
        else:
            self.origin = np.array([r1 ** (a + 1.0) / (p + a + 1.0)])
        self.cu, self.cv = panel_coefficients(a, nodes)

    def __call__(self, values) -> np.ndarray:
        values = np.asarray(values)
        origin = self.origin[0] * values[..., 0]
        if self.origin.size == 2:
            origin = origin + self.origin[1] * values[..., 1]
        out = np.empty(values.shape, dtype=np.result_type(values, float))
        out[..., 0] = origin
        sums = out[..., 1:]
        np.multiply(self.cu, values[..., :-1], out=sums)
        sums += self.cv * values[..., 1:]
        np.cumsum(sums, axis=-1, out=sums)
        sums += origin[..., None]
        return out


def _panel_moments(a: int, u: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """I_m = int_0^delta t^m (t + u)^a dt for m = 0..3, per panel [u, u + delta].

    Expanding (t + u)^a for integer a >= 0 gives the finite sum
    I_m = sum_j C(a, j) u^(a-j) delta^(m+j+1) / (m+j+1).  Every term is
    positive, so the sum cannot cancel, whatever the ratio delta/u.
    """
    u_pow = [np.ones_like(u)]
    for _ in range(a):
        u_pow.append(u_pow[-1] * u)
    d_pow = [delta]            # d_pow[k] = delta^(k+1)
    for _ in range(a + 3):
        d_pow.append(d_pow[-1] * delta)
    out = np.zeros((4, u.size))
    for m in range(4):
        for j in range(a + 1):
            out[m] += (math.comb(a, j) / (m + j + 1)) * u_pow[a - j] * d_pow[m + j]
    return out


def cumulative_power_integral_cubic(values, grid: RadialGrid, a: int) -> np.ndarray:
    """I_i = int_0^{r_i} f(s) s^a ds, exact on the piecewise-cubic interpolant.

    Each panel integrates the cubic through its four nearest nodes against
    s^a in closed form, as sum_k w_k f_k over those nodes.  In panel-local
    coordinates t = s - r_j with support nodes x_k, the Lagrange weight is
    w_k = (I_3 - e_1 I_2 + e_2 I_1 - e_3 I_0) / prod_{i != k} (x_k - x_i),
    with e_1, e_2, e_3 the elementary symmetric sums of the other three
    nodes and I_m the panel moments.  The origin panel [0, r_1] is the
    first panel, with left end 0 and the first four nodes as support; its
    extrapolation error below r_1 is O(h^4).
    The exponent a must be an integer >= 0.  Used where a downstream
    1/r^4-type factor would amplify piecewise-linear error, e.g. by the
    intertwining map.
    """
    if not (float(a).is_integer() and a >= 0):
        raise ValueError(f"the cubic rule takes integer a >= 0, got {a}")
    a = int(a)
    f = np.asarray(values)
    weights, support = grid.build_once(("cubic", a),
                                       lambda r: _cubic_weights(r, a))
    panel = np.zeros(grid.n, dtype=np.result_type(f, float))
    for weight, nodes in zip(weights, support):
        panel += weight * f[nodes]
    return np.concatenate(([panel[0]], panel[0] + np.cumsum(panel[1:])))


def _cubic_weights(r: np.ndarray, a: int) -> tuple:
    """(weights, support) of the cubic rule on nodes r: weights[k, j] is the
    Lagrange weight of node support[k, j] in panel j."""
    n = r.size
    left = np.concatenate(([0.0], r[:-1]))   # panel j is [left_j, r_j]
    s0 = np.clip(np.arange(n) - 2, 0, n - 4)
    support = np.arange(4)[:, None] + s0     # (4, n): node k of panel j
    x = r[support] - left
    i0, i1, i2, i3 = _panel_moments(a, left, r - left)
    weights = np.empty((4, n))
    for k in range(4):
        xa, xb, xc = (x[i] for i in range(4) if i != k)
        e1 = xa + xb + xc
        e2 = xa * xb + (xa + xb) * xc
        e3 = xa * xb * xc
        weights[k] = (i3 - e1 * i2 + e2 * i1 - e3 * i0) \
            / ((x[k] - xa) * (x[k] - xb) * (x[k] - xc))
    return weights, support


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


def suffix_power_integral(values, grid: RadialGrid, a: float) -> np.ndarray:
    """J_i = int_{r_i}^inf f(s) s^a ds for one data set.

    Exact on the interpolant up to rmax; beyond it the fitted power-law
    tail of the data, and a fitted exponent q with q + a >= -1 - _TAIL_MARGIN
    raises DivergentTailError.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("the fitted tail takes one data set")
    cu, cv = grid.panels(a)
    out = np.empty(values.shape, dtype=np.result_type(values, float))
    out[-1] = 0.0
    sums = out[-2::-1]   # running sums from rmax inwards, in place
    np.multiply(cu, values[:-1], out=out[:-1])
    out[:-1] += cv * values[1:]
    np.cumsum(sums, out=sums)
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

class ThreePoint:
    """The spacing factors of the three-point stencil at a set of nodes,
    from the spacings hm and hp to their left and right neighbours: every
    product ``three_point`` reads, which depend on the grid alone."""

    def __init__(self, hm, hp):
        self.hm, self.hp = hm, hp
        self.hm2, self.hp2 = hm * hm, hp * hp
        self.hp2_hm2 = self.hp2 - self.hm2
        self.hsum = hm + hp
        self.denom = hm * hp * self.hsum

    def interior(self) -> ThreePoint:
        """The factors of every node but the first and the last, as views."""
        inner = object.__new__(ThreePoint)
        vars(inner).update({name: value[1:-1]
                            for name, value in vars(self).items()})
        return inner


def three_point(order: int, f_left, f_mid, f_right, spacing: ThreePoint):
    """Three-point derivative (order 1 or 2) at the middle node, from the
    ``spacing`` factors of its neighbours.  On unit data it returns the
    weights."""
    if order == 1:
        return (spacing.hm2 * f_right + spacing.hp2_hm2 * f_mid
                - spacing.hp2 * f_left) / spacing.denom
    return 2.0 * (spacing.hm * f_right - spacing.hsum * f_mid
                  + spacing.hp * f_left) / spacing.denom


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


def fd_deriv(values, grid: RadialGrid, order: int) -> np.ndarray:
    """O(h^2) derivative of order 1 or 2 on a (possibly nonuniform) grid.

    Interior nodes use three_point on the grid's spacing factors; each end
    uses deriv_stencil on its order + 2 nearest nodes (one-sided).  Both
    are built once per grid.
    """
    f = np.asarray(values)
    out = np.empty_like(f, dtype=np.result_type(f, float))
    inner = grid.build_once(("three-point", "interior"),
                            lambda r: grid.three_point_spacings().interior())
    out[1:-1] = three_point(order, f[:-2], f[1:-1], f[2:], inner)
    m = order + 2
    first, last = grid.build_once(
        ("stencils", order), lambda r: (deriv_stencil(r[:m], r[0], order),
                                        deriv_stencil(r[-m:], r[-1], order)))
    out[0] = first @ f[:m]
    out[-1] = last @ f[-m:]
    return out


# ---------------------------------------------------------------------------
# the spec operators
# ---------------------------------------------------------------------------

def deltal_inverse(l: int, f: RadialFunction):
    """(Delta_l^{-1} f, d_r Delta_l^{-1} f) from one prefix and one suffix
    integral, I = int_0^r s^{l+2} f ds (origin model f ~ r^l) and
    J = int_r^inf s^{1-l} f ds (with its fitted tail):

        Delta_l^{-1} f = -(r^{-(l+1)} I + r^l J) / (2l+1),
        d_r Delta_l^{-1} f = ((l+1) r^{-(l+2)} I - l r^{l-1} J) / (2l+1).

    The derivative is the first-order factorization (2l+1) d_r Delta_l^{-1}
    = (l+1) D_{l+2}^{-1} + l D_{-(l-1)}^{-1}; the kernel is never
    differentiated numerically, and at l = 0 it is D_2^{-1} alone.  J needs
    a tail that makes Delta_l^{-1} f converge, also at l = 0.
    """
    r = f.grid.nodes
    inner = cumulative_power_integral(f.values, f.grid, l + 2.0, l)
    outer = suffix_power_integral(f.values, f.grid, 1.0 - l)
    vals = -(r ** (-(l + 1.0)) * inner + r ** float(l) * outer) / (2 * l + 1)
    deriv = (l + 1) * (r ** (-(l + 2.0)) * inner)
    if l > 0:
        deriv = deriv + l * (-r ** (l - 1.0) * outer)
    return (RadialFunction(f.grid, vals),
            RadialFunction(f.grid, deriv / (2 * l + 1)))


def weighted_inner(f: RadialFunction, g: RadialFunction, weight="r2"):
    """Quadrature of int f conj(g) w dr with w "flat", "r2" or its values
    at the nodes (an array).

    w = r^2 pairs in the grid's ``r2_weights``.  Otherwise the trapezoid
    rule covers [r_1, rmax], and for nodal values (vanishing at the origin)
    the first panel [0, r_1] is closed with the zero limit of the integrand
    at r = 0.
    """
    if f.grid is not g.grid and not np.array_equal(f.grid.nodes, g.grid.nodes):
        raise ValueError("mismatched grids in weighted_inner")
    r = f.grid.nodes
    product = f.values * np.conj(g.values)
    if isinstance(weight, np.ndarray):
        integrand = product * weight
        total = np.sum(f.grid.quad_weights * integrand) + 0.5 * r[0] * integrand[0]
    elif weight == "r2":
        total = np.sum(f.grid.r2_weights * product)
    elif weight == "flat":
        total = np.sum(f.grid.quad_weights * product)
    else:
        raise ValueError(f"unknown weight {weight!r}")
    return total if np.iscomplexobj(total) else float(total)
