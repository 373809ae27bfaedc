"""Grids, quadrature and the first-order operator calculus."""

import numpy as np
import pytest
from scipy.integrate import quad

from ksmode import profile
from ksmode.radial import (DivergentTailError, RadialFunction, RadialGrid,
                           cumulative_power_integral,
                           cumulative_power_integral_cubic, delta_l_inverse,
                           EvenPrefixIntegral, deriv_deltal_inverse,
                           deriv_stencil, dk_inverse, fd_deriv,
                           fit_tail_exponent, make_grid, power_prefix_integral,
                           suffix_power_integral, weighted_inner)


def gaussian_bump(r, center=5.0, width=1.5):
    return np.exp(-((r - center) / width) ** 2)


# -- oracles: finite-difference D_k and Delta_l, a refined trapezoid rule and
# -- the piecewise-cubic d_r Delta_1^{-1}

def dk_apply(k: int, f: RadialFunction) -> RadialFunction:
    """D_k f = f' + (k/r) f by O(h^2) finite differences."""
    r = f.grid.nodes
    return RadialFunction(f.grid, fd_deriv(f.values, r, 1) + k / r * f.values)


def delta_l_apply(l: int, f: RadialFunction) -> RadialFunction:
    """Class-l Laplacian: f'' + (2/r) f' - l(l+1) f / r^2."""
    r = f.grid.nodes
    vals = (fd_deriv(f.values, r, 2) + 2.0 / r * fd_deriv(f.values, r, 1)
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
            RadialGrid(nodes, good.quad_weights, 10.0)
        with pytest.raises(ValueError, match="finite"):
            RadialGrid(good.nodes, good.quad_weights, np.nan)

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
        rows = np.array([fd_deriv(e, r, order) for e in np.eye(g.n)]).T
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
        assert np.max(np.abs(fd_deriv(f, r, order) - want)) < 1e-9


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

    def test_positive_k_needs_an_origin_power(self):
        g = make_grid(200, 50.0)
        f = RadialFunction(g, gaussian_bump(g.nodes))
        with pytest.raises(ValueError, match="origin power"):
            dk_inverse(2, f)
        assert np.array_equal(dk_inverse(-1, f).values,
                              dk_inverse(-1, f, origin_power=3.0).values)

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
            back = delta_l_apply(l, delta_l_inverse(l, f))
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
        direct = delta_l_inverse(l, f)
        composed = dk_inverse(-l, dk_inverse(l + 2, f, origin_power=l))
        err = np.max(np.abs(direct.values - composed.values))
        assert err < 1e-4 * np.max(np.abs(direct.values))

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_inverse_kernel_decay_exponent(self, l):
        g = make_grid(2000, 200.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        w = delta_l_inverse(l, f)
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
        w = delta_l_inverse(1, f)
        h = g.nodes[1] - g.nodes[0]
        fd = (w.values[i + 1] - w.values[i - 1]) / (2.0 * h)
        assert abs(fd - 4.0 / 9.0) < 1e-5

    def test_deriv_inverse_consistent_with_differencing(self):
        g = make_grid(4000, 40.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        direct = deriv_deltal_inverse(2, f)
        w = delta_l_inverse(2, f)
        fd = np.gradient(w.values, g.nodes)
        mask = (g.nodes > 1.0) & (g.nodes < 35.0)
        assert np.max(np.abs(direct.values - fd)[mask]) < 1e-4

    def test_deriv_inverse_l0_is_pure_prefix_integral(self):
        g = make_grid(500, 30.0)
        f = RadialFunction(g, gaussian_bump(g.nodes, 8.0, 2.0))
        out = deriv_deltal_inverse(0, f)
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

    def test_suffix_with_tail_matches_improper_integral(self):
        g = make_grid(4000, 200.0)
        vals = 1.0 / (1.0 + g.nodes ** 2) ** 2
        out = suffix_power_integral(vals, g, 1.0, tail=True)
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
        for a, tail in ((0.0, False), (-4.0, True)):
            assert np.array_equal(suffix_power_integral(ints, g, a, tail),
                                  suffix_power_integral(floats, g, a, tail))
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
        power = power_prefix_integral(f, r, 2.0, 0.0)
        even = EvenPrefixIntegral(r, 2.0)(f)
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


class TestStackedIntegrals:
    """A stack of data sets along the leading axes integrates row by row,
    bit for bit like one call per row."""

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
        g = make_grid(64, 10.0, ("geometric", 1.05))
        data = self.stack(g, shape, dtype)
        for a in (1.0, -2.2, 0.0):
            got = suffix_power_integral(data, g, a, tail=False)
            for idx in np.ndindex(shape):
                assert np.array_equal(
                    got[idx], suffix_power_integral(data[idx], g, a, tail=False))

    @pytest.mark.parametrize("shape", [(4,), (2, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_power_prefix_rows(self, shape, dtype):
        g = make_grid(64, 10.0)
        data = self.stack(g, shape, dtype)
        for a, p in ((2.0, 0.0), (4.0, 2.0), (2.8, 1.0)):
            got = power_prefix_integral(data, g.nodes, a, p)
            for idx in np.ndindex(shape):
                assert np.array_equal(
                    got[idx], power_prefix_integral(data[idx], g.nodes, a, p))
            if p != 0.0:   # the explicit-power branch is this model
                assert np.array_equal(got, cumulative_power_integral(data, g, a, p))

    def test_power_model_integrates_its_origin_power(self):
        # data s^p on the grid: the origin panel is exact, every other panel
        # integrates the interpolant
        g = make_grid(400, 4.0)
        for a, p in ((2.0, 1.0), (4.0, 2.0)):
            got = power_prefix_integral(g.nodes ** p, g.nodes, a, p)
            assert got[0] == pytest.approx(g.nodes[0] ** (a + p + 1) / (a + p + 1),
                                           rel=1e-14)
            exact = g.nodes ** (a + p + 1) / (a + p + 1)
            assert np.max(np.abs(got - exact)) < 1e-4 * exact[-1]

    def test_fitted_tail_takes_one_data_set(self):
        g = make_grid(64, 10.0)
        with pytest.raises(ValueError, match="one data set"):
            suffix_power_integral(np.ones((2, g.n)), g, -4.0, tail=True)
