"""Grids, quadrature and the first-order operator calculus."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from ksmode import evolution, ggmt, operators, profile, radial, waveop
from ksmode.radial import (DivergentTailError, PrefixIntegral, RadialFunction,
                           RadialGrid, cumulative_power_integral,
                           cumulative_power_integral_cubic, deltal_inverse,
                           deriv_stencil, fd_deriv, fit_tail_exponent,
                           make_grid, panel_coefficients,
                           suffix_power_integral, weighted_inner)


def gaussian_bump(r, center=5.0, width=1.5):
    return np.exp(-((r - center) / width) ** 2)


# -- oracles: D_k^{-1} from the prefix and suffix integrals, finite-difference
# -- D_k and Delta_l, a refined trapezoid rule and the piecewise-cubic
# -- d_r Delta_1^{-1}

def dk_inverse(k: int, f: RadialFunction, origin_power: float = 0.0) -> RadialFunction:
    """D_k^{-1} f: r^{-k} int_0^r f s^k ds (origin model f ~ r^origin_power)
    for k > 0, else -r^{-k} int_r^inf f s^k ds."""
    r = f.grid.nodes
    if k > 0:
        vals = cumulative_power_integral(f.values, f.grid, float(k), origin_power)
        return RadialFunction(f.grid, r ** (-float(k)) * vals)
    vals = suffix_power_integral(f.values, f.grid, float(k))
    return RadialFunction(f.grid, -r ** (-float(k)) * vals)


def dk_apply(k: int, f: RadialFunction) -> RadialFunction:
    """D_k f = f' + (k/r) f by O(h^2) finite differences."""
    r = f.grid.nodes
    return RadialFunction(f.grid, fd_deriv(f.values, f.grid, 1) + k / r * f.values)


def delta_l_apply(l: int, f: RadialFunction) -> RadialFunction:
    """Class-l Laplacian: f'' + (2/r) f' - l(l+1) f / r^2."""
    r = f.grid.nodes
    vals = (fd_deriv(f.values, f.grid, 2) + 2.0 / r * fd_deriv(f.values, f.grid, 1)
            - l * (l + 1) / (r * r) * f.values)
    return RadialFunction(f.grid, vals)


def refined_weighted_inner(fn_f, fn_g, weight, rmax, n0=2000, levels=3):
    """Richardson-extrapolated trapezoid value of int_0^rmax f g w dr.

    Each level halves the spacing (node r = 0 included), so smooth
    integrands converge at O(h^2) and the extrapolation removes the h^2 and
    h^4 terms: an oracle-grade (~1e-8) inner product of callables.
    """
    vals = []
    for lev in range(levels):
        r = np.linspace(0.0, rmax, n0 * 2 ** lev + 1)
        vals.append(np.trapezoid(fn_f(r) * fn_g(r) * weight(r), r))
    for order in range(1, levels):
        fac = 4.0 ** order
        vals = [(fac * vals[i + 1] - vals[i]) / (fac - 1.0)
                for i in range(len(vals) - 1)]
    return float(vals[0])


def cubic_deriv_delta1_inverse(f: RadialFunction) -> np.ndarray:
    """d_r Delta_1^{-1} f = (2 D_3^{-1} f + D_0^{-1} f) / 3 with the
    piecewise-cubic prefix integral that apply_T uses."""
    r = f.grid.nodes
    d3inv = cumulative_power_integral_cubic(f.values, f.grid, 3.0) / r ** 3
    d0inv = -suffix_power_integral(f.values, f.grid, 0.0)
    return (2.0 * d3inv + d0inv) / 3.0


def vandermonde_cubic(values, grid, a: int) -> np.ndarray:
    """The piecewise-cubic prefix integral by one 4x4 Vandermonde solve per
    panel for the interpolant's coefficients in panel-local coordinates,
    dotted with the panel moments (float powers)."""
    f = np.asarray(values)
    r = grid.nodes
    n = grid.n
    s0 = np.clip(np.arange(n - 1) - 1, 0, n - 4)
    support = s0[:, None] + np.arange(4)[None, :]
    x = r[support] - r[:-1][:, None]
    vander = x[..., None] ** np.arange(4)[None, None, :]
    coeffs = np.linalg.solve(vander, f[support][..., None])[..., 0]
    u, delta = r[:-1], np.diff(r)
    moments = np.zeros((4, n - 1))
    for m in range(4):
        for j in range(a + 1):
            moments[m] += (math.comb(a, j) / (m + j + 1)) * u ** (a - j) \
                * delta ** (m + j + 1)
    panel = np.einsum("jm,mj->j", coeffs, moments)
    x0 = r[:4] - r[0]
    c0 = np.linalg.solve(x0[:, None] ** np.arange(4)[None, :], f[:4])
    m_origin = np.array([
        r[0] ** (a + m + 1.0)
        * sum(math.comb(m, k) * (-1.0) ** (m - k) / (a + k + 1.0) for k in range(m + 1))
        for m in range(4)])
    origin = c0 @ m_origin
    return np.concatenate(([origin], origin + np.cumsum(panel)))


def suffix_to_rmax(values, grid, a: float) -> np.ndarray:
    """int_{r_i}^{rmax} f s^a ds on the interpolant, f = 0 beyond rmax: the
    running sum of the panel integrals from rmax inwards, for one data set
    or a stack of them along the leading axes."""
    values = np.asarray(values)
    cu, cv = panel_coefficients(a, grid.nodes)
    out = np.zeros(values.shape, dtype=np.result_type(values, float))
    sums = out[..., -2::-1]
    np.multiply(cu, values[..., :-1], out=out[..., :-1])
    out[..., :-1] += cv * values[..., 1:]
    np.cumsum(sums, axis=-1, out=sums)
    return out


class TestMakeGrid:
    def test_uniform(self):
        g = make_grid(100, 50.0, "uniform")
        assert np.isclose(g.nodes[0], 0.5)
        assert np.allclose(np.diff(g.nodes), 0.5)
        assert g.nodes[-1] == 50.0

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            make_grid(3, 50.0)

    def test_geometric_first_node(self):
        g = make_grid(200, 50.0, ("geometric", 1.02))
        assert g.nodes[0] < 0.05
        # closed-form geometric sum
        expected = 50.0 * 0.02 / (1.02 ** 200 - 1.0)
        assert np.isclose(g.nodes[0], expected, rtol=1e-12)
        assert np.isclose(g.nodes[-1], 50.0)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            make_grid(100, 50.0, ("geometric", -1.0))

    @pytest.mark.parametrize("ratio", [6.0, 0.5])
    def test_ratio_the_grid_cannot_hold_is_a_value_error(self, ratio):
        # 6^400 overflows a float; 0.5 shrinks the spacings below round-off
        with pytest.raises(ValueError):
            make_grid(400, 40.0, ("geometric", ratio))

    @pytest.mark.parametrize("rmax", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_rmax(self, rmax):
        with pytest.raises(ValueError):
            make_grid(100, rmax)

    def test_nonfinite_nodes_or_rmax_rejected(self):
        good = make_grid(32, 10.0)
        nodes = good.nodes.copy()
        nodes[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RadialGrid(nodes, 10.0)
        with pytest.raises(ValueError, match="finite"):
            RadialGrid(good.nodes, np.nan)

    def test_weights_integrate_one_exactly(self):
        for stretch in ("uniform", ("geometric", 1.01)):
            g = make_grid(128, 30.0, stretch)
            assert np.isclose(np.sum(g.quad_weights),
                              g.nodes[-1] - g.nodes[0], rtol=1e-12)

    def test_weights_exact_on_linear_polynomials(self):
        g = make_grid(64, 10.0, ("geometric", 1.05))
        exact = 1.5 * (g.nodes[-1] ** 2 - g.nodes[0] ** 2) \
            + 2.0 * (g.nodes[-1] - g.nodes[0])
        assert np.isclose(np.sum(g.quad_weights * (3.0 * g.nodes + 2.0)),
                          exact, rtol=1e-12)

    def test_radial_function_validation(self):
        g = make_grid(32, 10.0)
        with pytest.raises(ValueError):
            RadialFunction(g, np.ones(5))
        vals = np.ones(32)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            RadialFunction(g, vals)


class TestGridWeights:
    """The L^2(r^2 dr) weights and norm the grid owns."""

    def test_norm_has_the_bits_of_the_written_out_sums(self):
        g = make_grid(300, 40.0, ("geometric", 1.01))
        w = g.quad_weights * g.nodes ** 2
        w[0] += 0.5 * g.nodes[0] ** 3
        assert np.array_equal(g.r2_weights, w)
        rng = np.random.default_rng(5)
        real = rng.standard_normal(g.n)
        cplx = real + 1j * rng.standard_normal(g.n)
        assert g.norm(real) == np.sqrt(np.sum(w * real ** 2))
        assert g.norm(cplx) == np.sqrt(np.sum(w * np.abs(cplx) ** 2))
        # every row of a stack has the bits of its own norm, also of a
        # stack long enough to be taken over blocks of rows
        for shape in ((4, g.n), (500, g.n), (3, 110, g.n)):
            stack = rng.standard_normal(shape)
            rows = g.norm(stack)
            assert rows.shape == shape[:-1]
            for i, row in np.ndenumerate(rows):
                assert row == np.sqrt(np.sum(w * stack[i] ** 2))

    def test_far_grid_builds_without_warnings(self):
        # r^2 overflows at 1e300: the r^2 weights wait for their first use,
        # so the grid builds and a configuration check can refuse it
        g = make_grid(64, 1e300)
        assert np.all(np.isfinite(g.quad_weights))

    def test_weights_are_read_only(self):
        g = make_grid(32, 10.0)
        with pytest.raises(ValueError, match="read-only"):
            g.r2_weights[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.quad_weights[0] = 1.0
        assert g.r2_weights is g.r2_weights   # built once


def class3_bump(grid):
    r = grid.nodes
    return (r / (1.0 + r)) ** 3 * (np.exp(-((r - 6.0) / 2.0) ** 2)
                                   - 0.5 * np.exp(-((r - 3.0) / 0.8) ** 2))


def _bits(result) -> bytes:
    """The bytes of every float in a result: a number, an array or a tuple."""
    if isinstance(result, (tuple, list)):
        return b"".join(_bits(part) for part in result)
    if isinstance(result, RadialFunction):
        return _bits(result.values)
    return np.asarray(result, dtype=float).tobytes()


WARM_CALLS = {
    "coercivity_form": lambda g, v: ggmt.coercivity_form(RadialFunction(g, v), 3),
    "interpolation_check":
        lambda g, v: ggmt.interpolation_check(RadialFunction(g, v), 3),
    "deltal_inverse": lambda g, v: deltal_inverse(3, RadialFunction(g, v)),
    "apply_T": lambda g, v: waveop.apply_T(v, g),
    "fd_deriv": lambda g, v: (fd_deriv(v, g, 1), fd_deriv(v, g, 2)),
}


class TestGridMemo:
    """The weights a grid builds once, on first use, and keeps."""

    @pytest.fixture
    def grid(self):
        return make_grid(60, 20.0, ("geometric", 1.04))

    def test_memoized_weights_equal_the_primitives(self, grid):
        r = grid.nodes
        for a, p in ((4.0, 2.0), (2.0, None), (2.0, 0.0), (-0.5, 1.0)):
            cached, plain = grid.prefix_integral(a, p), PrefixIntegral(r, a, p)
            for name in ("origin", "cu", "cv"):
                assert np.array_equal(getattr(cached, name), getattr(plain, name))
        u, v = r[:-1], r[1:]
        mids = 0.5 * (u + v)
        # Gauss-Legendre on [u, mid], exact to rounding for these integrands
        x, w = np.polynomial.legendre.leggauss(12)
        s = u[:, None] + 0.5 * (mids - u)[:, None] * (x + 1.0)
        f = lambda t: 1.5 + 0.25 * t
        for a in (-3.0, 1.0, 2.5):
            for got, want in zip(grid.panels(a), panel_coefficients(a, r)):
                assert np.array_equal(got, want)
            for got, want in zip(panel_coefficients(a, r, v),
                                 panel_coefficients(a, r)):
                assert np.array_equal(got, want)
            # the half panel [u, mid] of the linear interpolant, exact on
            # linear data
            cu, cv = panel_coefficients(a, r, mids)
            exact = 0.5 * (mids - u) * ((f(s) * s ** a) @ w)
            assert np.allclose(cu * f(u) + cv * f(v), exact, rtol=1e-12,
                               atol=0.0)
        for order in (1, 2):
            m = order + 2
            fd_deriv(r, grid, order)
            first, last = grid._memo[("stencils", order)]
            assert np.array_equal(first, deriv_stencil(r[:m], r[0], order))
            assert np.array_equal(last, deriv_stencil(r[-m:], r[-1], order))
        for a in (0, 3):
            cumulative_power_integral_cubic(r, grid, a)
            for got, want in zip(grid._memo[("cubic", a)],
                                 radial._cubic_weights(r, a)):
                assert np.array_equal(got, want)
        assert np.array_equal(grid.build_once("ggmt.q_r2", ggmt._q_r2),
                              profile.q(r) * r * r)

    def test_three_point_spacings_are_the_stencil_products(self, grid):
        # fd_deriv and the derivative matrices read the grid's spacing
        # factors, with the bits of the stencil on the raw spacings
        h = grid.cell_spacings()
        hm, hp = h[:-1], h[1:]
        spacing = grid.three_point_spacings()
        assert spacing is grid.three_point_spacings()
        want = {"hm": hm, "hp": hp, "hm2": hm * hm, "hp2_hm2": hp * hp - hm * hm,
                "hp2": hp * hp, "hsum": hm + hp, "denom": hm * hp * (hm + hp)}
        assert vars(spacing).keys() == want.keys()
        for name, value in want.items():
            assert np.array_equal(getattr(spacing, name), value)
            assert np.array_equal(getattr(spacing.interior(), name), value[1:-1])
        r, f = grid.nodes, class3_bump(grid)
        hm, hp = r[1:-1] - r[:-2], r[2:] - r[1:-1]
        d1 = (hm * hm * f[2:] + (hp * hp - hm * hm) * f[1:-1]
              - hp * hp * f[:-2]) / (hm * hp * (hm + hp))
        d2 = 2.0 * (hm * f[2:] - (hm + hp) * f[1:-1] + hp * f[:-2]) \
            / (hm * hp * (hm + hp))
        assert np.array_equal(fd_deriv(f, grid, 1)[1:-1], d1)
        assert np.array_equal(fd_deriv(f, grid, 2)[1:-1], d2)

    def test_keys_normalize(self, grid):
        assert grid.prefix_integral(3, 1) is grid.prefix_integral(3.0, 1.0)
        assert grid.panels(3) is grid.panels(3.0)
        cubic = cumulative_power_integral_cubic(grid.nodes, grid, 3)
        assert np.array_equal(
            cumulative_power_integral_cubic(grid.nodes, grid, 3.0), cubic)
        assert len(grid._memo) == 3
        # origin power 0 is the even model: the flux, the partial mass and
        # the vector integral share one entry
        values = gaussian_bump(grid.nodes)
        cumulative_power_integral(values, grid, 2.0, 0)
        cumulative_power_integral(values, grid, 2, 0.0)
        evolution.partial_mass(RadialFunction(grid, values))
        mass = evolution.FluxGeometry(grid).mass
        assert mass is grid.prefix_integral(2.0) is grid.prefix_integral(2, None)
        assert len(grid._memo) == 4
        # the dense matrices' constant class-0 panel is the power model p = 0
        operators._prefix_matrix(grid, 2.0, 0.0)
        assert grid.prefix_integral(2.0, 0.0) is not mass
        assert len(grid._memo) == 5

    def test_cached_arrays_are_read_only(self, grid):
        fd_deriv(grid.nodes, grid, 2)
        cumulative_power_integral_cubic(grid.nodes, grid, 3)
        prefix = grid.prefix_integral(2.0)
        arrays = [prefix.origin, prefix.cu, prefix.cv, *grid.panels(1.0),
                  *grid._memo[("stencils", 2)], *grid._memo[("cubic", 3)],
                  grid.build_once("doubled", lambda r: 2.0 * r)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_equal_nodes_in_a_new_grid_get_the_same_bits(self, grid):
        values = class3_bump(grid)
        for _ in range(2):   # the second round reads a full memo
            warm = [_bits(call(grid, values)) for call in WARM_CALLS.values()]
        twin = make_grid(60, 20.0, ("geometric", 1.04))
        assert twin is not grid and np.array_equal(twin.nodes, grid.nodes)
        assert [_bits(call(twin, values)) for call in WARM_CALLS.values()] == warm
        assert twin.panels(-2.0)[0] is not grid.panels(-2.0)[0]

    def test_no_cache_keeps_a_grid_alive(self):
        grid = make_grid(60, 20.0, ("geometric", 1.04))
        f = RadialFunction(grid, class3_bump(grid))
        ggmt.coercivity_form(f, 3)
        ggmt.interpolation_check(f, 3)
        waveop.apply_T(f.values, grid)
        operators.assemble_Ll(0, grid)
        evolution.FluxGeometry(grid)
        assert len(grid._memo) > 5
        ref = weakref.ref(grid)
        del grid, f
        gc.collect()
        assert ref() is None


@pytest.mark.parametrize("name", list(WARM_CALLS))
def test_tenth_call_has_the_bits_of_the_first(name):
    # a memo entry that a caller could change in place would show here
    grid = make_grid(80, 20.0, ("geometric", 1.03))
    values = class3_bump(grid)
    call = WARM_CALLS[name]
    first = _bits(call(grid, values))
    for _ in range(9):
        last = _bits(call(grid, values))
    assert last == first


class TestDkApply:
    def test_k2_on_identity(self):
        g = make_grid(100, 20.0)
        out = dk_apply(2, RadialFunction(g, g.nodes.copy()))
        assert np.max(np.abs(out.values - 3.0)) < 1e-10

    def test_k0_on_constant(self):
        g = make_grid(100, 20.0)
        out = dk_apply(0, RadialFunction(g, np.full(100, 7.0)))
        assert np.max(np.abs(out.values)) < 1e-11

    def test_k3_on_profile_gradient_converges(self):
        def closed(r):
            return profile.q_deriv(r, 2) + 3.0 / r * profile.q_deriv(r, 1)
        errs = []
        for n in (500, 1000):
            g = make_grid(n, 30.0)
            out = dk_apply(3, RadialFunction(g, profile.q_deriv(g.nodes, 1)))
            errs.append(np.max(np.abs(out.values - closed(g.nodes))))
        assert np.log2(errs[0] / errs[1]) > 1.7


class TestFdDeriv:
    @pytest.mark.parametrize("order", [1, 2])
    def test_end_rows_are_deriv_stencil_weights(self, order):
        # unit data picks one weight per node out of each one-sided end row
        g = make_grid(40, 10.0, ("geometric", 1.08))
        r = g.nodes
        m = order + 2
        rows = np.array([fd_deriv(e, g, order) for e in np.eye(g.n)]).T
        assert np.array_equal(rows[0, :m], deriv_stencil(r[:m], r[0], order))
        assert np.array_equal(rows[-1, -m:], deriv_stencil(r[-m:], r[-1], order))
        assert not rows[0, m:].any() and not rows[-1, :-m].any()

    @pytest.mark.parametrize("order", [1, 2])
    def test_exact_on_quadratics(self, order):
        # three-point interiors and (order + 2)-point ends are exact on
        # polynomials of degree 2, on any grid
        g = make_grid(40, 10.0, ("geometric", 1.08))
        r = g.nodes
        f = 3.0 * r * r - 2.0 * r + 1.0
        want = 6.0 * r - 2.0 if order == 1 else np.full(g.n, 6.0)
        assert np.max(np.abs(fd_deriv(f, g, order) - want)) < 1e-9


class TestDkInverse:
    def test_k2_profile_oracle(self):
        g = make_grid(40000, 50.0)
        out = dk_inverse(2, RadialFunction(g, profile.q(g.nodes)), origin_power=0.0)
        closed = profile.d2inv_q_closed(g.nodes)
        assert np.max(np.abs(out.values - closed) / closed) < 1e-6

    def test_k3_profile_gradient_at_one(self):
        # the piecewise-cubic D_3^{-1} of apply_T
        g = make_grid(8000, 40.0)
        out = cumulative_power_integral_cubic(profile.q_deriv(g.nodes, 1), g,
                                              3.0) / g.nodes ** 3
        i = np.argmin(np.abs(g.nodes - 1.0))
        assert abs(out[i] - (-8.0 / 9.0)) < 1e-8

    @pytest.mark.parametrize("k", range(-4, 7))
    def test_apply_inverse_identity(self, k):
        errs = []
        for n in (800, 1600):
            g = make_grid(n, 30.0)
            f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
            back = dk_apply(k, dk_inverse(k, f, origin_power=0.0))
            mask = (g.nodes > 1.0) & (g.nodes < 25.0)
            errs.append(np.max(np.abs(back.values - f.values)[mask]))
        assert errs[1] < max(0.35 * errs[0], 1e-12)

    def test_adjoint_relation_flat_inner_product(self):
        # (D_k^{-1} f, g) = -(f, D_{-k}^{-1} g) on L^2(dr)
        g = make_grid(3000, 30.0)
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            c1, w1 = rng.uniform(5, 12), rng.uniform(1, 2)
            c2, w2 = rng.uniform(5, 12), rng.uniform(1, 2)
            f = RadialFunction(g, gaussian_bump(g.nodes, c1, w1))
            h = RadialFunction(g, gaussian_bump(g.nodes, c2, w2))
            lhs = weighted_inner(dk_inverse(k, f, origin_power=0.0), h, "flat")
            rhs = -weighted_inner(f, dk_inverse(-k, h), "flat")
            assert abs(lhs - rhs) < 1e-6 * max(abs(lhs), 1e-3)

    def test_divergent_tail_rejected(self):
        g = make_grid(200, 50.0)
        f = RadialFunction(g, 1.0 / np.sqrt(g.nodes))
        with pytest.raises(DivergentTailError):
            dk_inverse(0, f)


class TestDeltaL:
    def test_apply_trivial_cases(self):
        g = make_grid(200, 20.0)
        r = g.nodes
        out0 = delta_l_apply(0, RadialFunction(g, r * r))
        assert np.max(np.abs(out0.values - 6.0)) < 1e-8
        out1 = delta_l_apply(1, RadialFunction(g, r.copy()))
        assert np.max(np.abs(out1.values)) < 1e-9
        out2 = delta_l_apply(2, RadialFunction(g, r * r))
        assert np.max(np.abs(out2.values)) < 1e-8

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_inverse_property(self, l):
        errs = []
        for n in (800, 1600):
            g = make_grid(n, 30.0)
            f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
            back = delta_l_apply(l, deltal_inverse(l, f)[0])
            mask = (g.nodes > 1.0) & (g.nodes < 25.0)
            errs.append(np.max(np.abs(back.values - f.values)[mask]))
        assert errs[1] < max(0.35 * errs[0], 1e-11)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_inverse_agrees_with_first_order_factorization(self, l):
        # vector paths interpolate the intermediate stage, so the two
        # representations agree to quadrature tolerance (the assembled
        # matrices agree to round-off, see test_operators)
        g = make_grid(4000, 200.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        direct = deltal_inverse(l, f)[0]
        composed = dk_inverse(-l, dk_inverse(l + 2, f, origin_power=l))
        err = np.max(np.abs(direct.values - composed.values))
        assert err < 1e-4 * np.max(np.abs(direct.values))

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_inverse_kernel_decay_exponent(self, l):
        g = make_grid(2000, 200.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        w = deltal_inverse(l, f)[0]
        r = g.nodes
        mask = (r > 40.0) & (r < 150.0)
        slope = np.polyfit(np.log(r[mask]), np.log(np.abs(w.values[mask])), 1)[0]
        assert abs(slope + (l + 1)) < 0.05

    def test_deriv_inverse_profile_identity(self):
        # d_r Delta_1^{-1} Q' = Q - (2/r) D_2^{-1} Q pointwise; the first
        # node sits on the origin-model panel and is excluded
        g = make_grid(160000, 200.0)
        f = RadialFunction(g, profile.q_deriv(g.nodes, 1))
        out = cubic_deriv_delta1_inverse(f)
        target = profile.q(g.nodes) - 2.0 / g.nodes * profile.d2inv_q_closed(g.nodes)
        assert np.max(np.abs(out - target)[1:]) < 1e-6

    def test_deriv_inverse_value_at_one(self):
        g = make_grid(160000, 200.0)
        f = RadialFunction(g, profile.q_deriv(g.nodes, 1))
        out = cubic_deriv_delta1_inverse(f)
        i = np.argmin(np.abs(g.nodes - 1.0))
        assert abs(out[i] - 4.0 / 9.0) < 1e-6
        # independent oracle: difference the kernel-form inverse directly
        w = deltal_inverse(1, f)[0]
        h = g.nodes[1] - g.nodes[0]
        fd = (w.values[i + 1] - w.values[i - 1]) / (2.0 * h)
        assert abs(fd - 4.0 / 9.0) < 1e-5

    def test_deriv_inverse_consistent_with_differencing(self):
        g = make_grid(4000, 40.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        w, direct = deltal_inverse(2, f)
        fd = np.gradient(w.values, g.nodes)
        mask = (g.nodes > 1.0) & (g.nodes < 35.0)
        assert np.max(np.abs(direct.values - fd)[mask]) < 1e-4

    @pytest.mark.parametrize("l", [0, 1, 2, 5])
    def test_deriv_inverse_has_the_bits_of_the_factorization(self, l):
        # (l+1) D_{l+2}^{-1} f, then + l D_{1-l}^{-1} f, then / (2l+1)
        g = make_grid(300, 30.0, ("geometric", 1.01))
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        want = (l + 1) * dk_inverse(l + 2, f, origin_power=l).values
        if l > 0:
            want = want + l * dk_inverse(1 - l, f).values
        assert np.array_equal(deltal_inverse(l, f)[1].values, want / (2 * l + 1))

    def test_deriv_inverse_l0_is_pure_prefix_integral(self):
        g = make_grid(500, 30.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        out = deltal_inverse(0, f)[1]
        expected = cumulative_power_integral(f.values, g, 2.0, 0.0) / g.nodes ** 2
        assert np.max(np.abs(out.values - expected)) < 1e-14


class TestWeightedInner:
    def test_flat_constant(self):
        g = make_grid(100, 10.0)
        one = RadialFunction(g, np.ones(100))
        assert np.isclose(weighted_inner(one, one, "flat"),
                          g.nodes[-1] - g.nodes[0], rtol=1e-13)

    def test_gaussian_moment_oracle(self):
        val = refined_weighted_inner(lambda r: np.exp(-r * r / 2.0),
                                     lambda r: np.exp(-r * r / 2.0),
                                     lambda r: r * r, 40.0)
        assert abs(val - np.sqrt(np.pi) / 4.0) < 1e-8
        # the grid quadrature (origin panel closed at zero) meets the oracle
        g = make_grid(400, 40.0)
        f = RadialFunction(g, np.exp(-g.nodes ** 2 / 2.0))
        assert abs(weighted_inner(f, f, "r2") - val) < 1e-8

    def test_pythagoras_for_disjoint_supports(self):
        g = make_grid(2000, 40.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 0.8))
        h = RadialFunction(g, gaussian_bump(g.nodes, 25.0, 0.8))
        fh = RadialFunction(g, f.values + h.values)
        lhs = weighted_inner(fh, fh, "r2")
        rhs = weighted_inner(f, f, "r2") + weighted_inner(h, h, "r2")
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_mismatched_grids_rejected(self):
        f = RadialFunction(make_grid(100, 10.0), np.ones(100))
        h = RadialFunction(make_grid(120, 10.0), np.ones(120))
        with pytest.raises(ValueError):
            weighted_inner(f, h, "r2")


class TestCumulative:
    def test_exact_on_piecewise_linear_data(self):
        # interior panels integrate linear data exactly; the origin panel
        # uses the even-quadratic model, an O(r_1^5) absolute offset here
        g = make_grid(50, 10.0, ("geometric", 1.05))
        vals = 2.0 * g.nodes + 1.0
        out = cumulative_power_integral(vals, g, 3.0, origin_power=0.0)
        exact = 2.0 * g.nodes ** 5 / 5.0 + g.nodes ** 4 / 4.0
        panel_err = np.diff(out) - np.diff(exact)
        assert np.max(np.abs(panel_err) / np.diff(exact)) < 1e-12
        assert np.max(np.abs(out - exact)) < g.nodes[0] ** 5

    def test_cubic_exact_on_cubic_data(self):
        g = make_grid(60, 10.0)
        vals = g.nodes ** 3 - 2.0 * g.nodes
        out = cumulative_power_integral_cubic(vals, g, 2.0)
        exact = g.nodes ** 6 / 6.0 - 2.0 * g.nodes ** 4 / 4.0
        assert np.max(np.abs(out - exact)) < 1e-10 * np.max(np.abs(exact))

    @pytest.mark.parametrize("a", [2.5, -1, -1.0, np.inf])
    def test_cubic_takes_only_integer_exponents_at_least_zero(self, a):
        g = make_grid(60, 10.0)
        with pytest.raises(ValueError, match="integer a >= 0"):
            cumulative_power_integral_cubic(g.nodes, g, a)

    def test_cubic_accepts_integral_floats(self):
        g = make_grid(60, 10.0)
        vals = profile.q_deriv(g.nodes, 1)
        assert np.array_equal(cumulative_power_integral_cubic(vals, g, 3.0),
                              cumulative_power_integral_cubic(vals, g, 3))

    def test_cubic_against_adaptive_quadrature(self):
        g = make_grid(2000, 20.0)
        vals = profile.q_deriv(g.nodes, 1)
        out = cumulative_power_integral_cubic(vals, g, 3.0)
        for rtarget in (0.5, 2.0, 10.0):
            i = np.argmin(np.abs(g.nodes - rtarget))
            oracle, _ = quad(lambda s: profile.q_deriv(s, 1) * s ** 3, 0.0,
                             g.nodes[i], epsabs=1e-13)
            assert abs(out[i] - oracle) < 5e-8

    # criterion 4's grids and data: T on Q' and r, and the commutator inputs
    CRITERION_4 = [pytest.param(20000, 60.0, id="20000-60")] + [
        pytest.param(n, 40.0, id=f"{n}-40") for n in (2000, 4000, 8000)]

    @pytest.mark.parametrize("n,rmax", CRITERION_4)
    def test_cubic_matches_vandermonde_rule(self, n, rmax):
        # the Lagrange weights and the per-panel solves integrate one
        # interpolant; they differ by round-off only
        g = make_grid(n, rmax)
        r = g.nodes
        for vals in (profile.q_deriv(r, 1), r, r * np.exp(-r * r / 4.0),
                     r / (1.0 + r * r) ** 3, r * np.exp(-(r - 3.0) ** 2)):
            for a in (0, 3):
                want = vandermonde_cubic(vals, g, a)
                got = cumulative_power_integral_cubic(vals, g, a)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_cubic_makes_no_linear_solve(self, monkeypatch):
        # the origin panel is the first Lagrange panel, not a Vandermonde solve
        def refused(*args):
            raise AssertionError("np.linalg.solve was called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        g = make_grid(2000, 40.0)
        cumulative_power_integral_cubic(profile.q_deriv(g.nodes, 1), g, 3)

    def test_suffix_with_tail_matches_improper_integral(self):
        g = make_grid(4000, 200.0)
        vals = 1.0 / (1.0 + g.nodes ** 2) ** 2
        out = suffix_power_integral(vals, g, 1.0)
        i = np.argmin(np.abs(g.nodes - 5.0))
        oracle, _ = quad(lambda s: s / (1.0 + s * s) ** 2, g.nodes[i], np.inf)
        assert abs(out[i] - oracle) < 2e-4 * oracle

    def test_tail_fit_recovers_power_law(self):
        g = make_grid(1000, 100.0)
        c, q = fit_tail_exponent(5.0 * g.nodes ** -3.0, g)
        assert abs(q + 3.0) < 1e-10 and abs(c - 5.0) < 1e-8

    def test_tail_sign_change_rejected(self):
        g = make_grid(1000, 100.0)
        with pytest.raises(DivergentTailError):
            fit_tail_exponent(np.sin(g.nodes), g)

    @pytest.mark.parametrize("origin_power", [0.0, 1.0])
    def test_integer_data_integrates_like_float_data(self, origin_power):
        g = make_grid(20, 1.0)
        ints = np.arange(1, 21)
        floats = ints.astype(float)
        assert np.array_equal(
            cumulative_power_integral(ints, g, 2.0, origin_power),
            cumulative_power_integral(floats, g, 2.0, origin_power))
        assert np.array_equal(suffix_power_integral(ints, g, -4.0),
                              suffix_power_integral(floats, g, -4.0))
        ones = cumulative_power_integral(np.ones(20, dtype=int), g, 0.0, 0.0)
        assert np.allclose(ones, g.nodes, rtol=1e-12)


class TestClass0OriginModels:
    """Which class-0 origin model is the more accurate first panel.

    The scaling mode has int_0^r (Lambda Q) s^2 ds = r^3 (Q - 4/(2+r^2)) in
    closed form.  Under refinement the power model at p = 0 (a constant
    first panel, the dense matrices' model) converges at second order on
    the first node, the even-quadratic model (the vector path's) at fourth
    order and below it at every n.  Over the whole grid both errors are the
    interior panels' and agree.
    """

    GRIDS = {
        "uniform": lambda n: make_grid(n, 40.0),
        "ladder": lambda n: make_grid(n, 40.0, ("geometric", 30.0 ** (1.0 / (n - 1)))),
    }

    @staticmethod
    def errors(grid):
        r = grid.nodes
        f = profile.lambda_q(r)
        exact = r ** 3 * (profile.q(r) - 4.0 / (2.0 + r * r))
        power = PrefixIntegral(r, 2.0, 0.0)(f)
        even = PrefixIntegral(r, 2.0)(f)
        first = [abs(m[0] - exact[0]) / abs(exact[0]) for m in (power, even)]
        whole = [np.max(np.abs(m - exact)) for m in (power, even)]
        return first, whole

    @pytest.mark.parametrize("kind", ["uniform", "ladder"])
    def test_even_model_is_the_more_accurate_first_panel(self, kind):
        ns = (200, 400, 800, 1600)
        first, whole = zip(*(self.errors(self.GRIDS[kind](n)) for n in ns))
        power, even = np.array(first).T
        assert np.all(even < power)
        assert np.all(np.abs(np.log2(power[:-1] / power[1:]) - 2.0) < 0.1)
        assert np.all(np.log2(even[:-1] / even[1:]) > 3.7)
        for w_power, w_even in whole:
            assert w_even == pytest.approx(w_power, rel=0.02)


def two_node_fit_origin(values, nodes, a):
    """The even-quadratic origin panel by its two-node fit, per call: the
    formula PrefixIntegral's weights were derived from."""
    r1, r2 = nodes[0], nodes[1]
    b = (values[1] - values[0]) / (r2 * r2 - r1 * r1)
    c0 = values[0] - b * r1 * r1
    return c0 * r1 ** (a + 1.0) / (a + 1.0) + b * r1 ** (a + 3.0) / (a + 3.0)


class TestOriginWeights:
    """Each origin model is a weight vector on the first nodal values, exact
    on data of its own model."""

    GRIDS = [pytest.param(make_grid(64, 10.0), id="uniform"),
             pytest.param(make_grid(64, 10.0, ("geometric", 1.05)), id="geometric")]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_even_weights_exact_on_even_quadratics(self, grid, a):
        r1 = grid.nodes[0]
        prefix = PrefixIntegral(grid.nodes, a)
        assert prefix.origin.shape == (2,)
        for c0, c2 in ((1.0, 0.0), (0.0, 1.0), (3.0, -2.5)):
            f = c0 + c2 * grid.nodes[:2] ** 2
            exact = c0 * r1 ** (a + 1) / (a + 1) + c2 * r1 ** (a + 3) / (a + 3)
            got = prefix.origin[0] * f[0] + prefix.origin[1] * f[1]
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-15 * r1 ** (a + 1))

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_power_weight_exact_on_its_power(self, grid, a):
        r1 = grid.nodes[0]
        for p in (0.0, 1.0, 2.5):
            (weight,) = PrefixIntegral(grid.nodes, a, p).origin
            assert weight * r1 ** p == pytest.approx(
                r1 ** (a + p + 1) / (a + p + 1), rel=1e-14)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_even_weights_match_the_two_node_fit(self, grid):
        # the fit of the unit data e_1, e_2 of the first two nodes
        for a in (0.0, 2.0, 4.0, 2.8):
            weights = PrefixIntegral(grid.nodes, a).origin
            for k, unit in enumerate(np.eye(2)):
                want = two_node_fit_origin(unit, grid.nodes, a)
                assert abs(weights[k] - want) <= 1e-15 * abs(want)

    def test_divergent_origin_model_refused(self):
        g = make_grid(64, 10.0)
        with pytest.raises(DivergentTailError, match="divergent"):
            PrefixIntegral(g.nodes, -1.0)
        with pytest.raises(DivergentTailError, match="divergent"):
            PrefixIntegral(g.nodes, 2.0, -3.0)


class TestStackedIntegrals:
    """A stack of data sets along the leading axes integrates row by row,
    bit for bit like one call per row.  The suffix integral takes one data
    set; the stacked oracle of its running sums agrees with it row by row."""

    @staticmethod
    def stack(grid, shape, dtype=float):
        rng = np.random.default_rng(11)
        data = rng.standard_normal(shape + (grid.n,))
        if dtype is complex:
            data = data + 1j * rng.standard_normal(data.shape)
        return data

    @pytest.mark.parametrize("shape", [(4,), (2, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_suffix_rows(self, shape, dtype):
        # the stacked running sums of the oracle are, row by row, the bits of
        # suffix_power_integral on data that vanishes near rmax (no tail)
        g = make_grid(64, 10.0, ("geometric", 1.05))
        data = self.stack(g, shape, dtype)
        data[..., -8:] = 0.0
        for a in (1.0, -2.2, 0.0):
            got = suffix_to_rmax(data, g, a)
            for idx in np.ndindex(shape):
                assert np.array_equal(
                    got[idx], suffix_power_integral(data[idx], g, a))

    @pytest.mark.parametrize("shape", [(4,), (2, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_power_prefix_rows(self, shape, dtype):
        # both origin models: the power model and the even quadratic (p None)
        g = make_grid(64, 10.0)
        data = self.stack(g, shape, dtype)
        for a, p in ((2.0, 0.0), (4.0, 2.0), (2.8, 1.0), (2.0, None)):
            prefix = PrefixIntegral(g.nodes, a, p)
            got = prefix(data)
            for idx in np.ndindex(shape):
                assert np.array_equal(got[idx], prefix(data[idx]))
            if p != 0.0:   # cumulative_power_integral's model at this p
                power = 0.0 if p is None else p
                assert np.array_equal(got, cumulative_power_integral(data, g, a, power))

    def test_power_model_integrates_its_origin_power(self):
        # data s^p on the grid: the origin panel is exact, every other panel
        # integrates the interpolant
        g = make_grid(400, 4.0)
        for a, p in ((2.0, 1.0), (4.0, 2.0)):
            got = PrefixIntegral(g.nodes, a, p)(g.nodes ** p)
            assert got[0] == pytest.approx(g.nodes[0] ** (a + p + 1) / (a + p + 1),
                                           rel=1e-14)
            exact = g.nodes ** (a + p + 1) / (a + p + 1)
            assert np.max(np.abs(got - exact)) < 1e-4 * exact[-1]

    def test_fitted_tail_takes_one_data_set(self):
        g = make_grid(64, 10.0)
        with pytest.raises(ValueError, match="one data set"):
            suffix_power_integral(np.ones((2, g.n)), g, -4.0)
