"""Assembled operator matrices: eigen-relations, conjugations, and the
cross-representation identities of the nonlocal blocks."""


import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from ksmode import evolution, ggmt, operators, profile, spectra
from ksmode.radial import (RadialFunction, cumulative_power_integral,
                           deriv_stencil, make_grid, panel_coefficients,
                           power_prefix_integral, three_point)


def geometric_grid(n, rmax, growth=30.0):
    return make_grid(n, rmax, ("geometric", growth ** (1.0 / (n - 1))))


class TestAssembleLl:
    @pytest.mark.parametrize("l,mode,lam", [
        (0, profile.lambda_q, -1.0),
        (1, lambda r: profile.q_deriv(r, 1), -0.5),
    ])
    def test_eigen_relation_residual_bound(self, l, mode, lam):
        residuals = []
        for n in (200, 400):
            grid = make_grid(n, 40.0, "uniform")
            a = operators.assemble_Ll(l, grid)
            v = mode(grid.nodes)
            w = operators.r2_mass_weights(grid)
            dev = a.entries @ v - lam * v
            residuals.append(np.sqrt(np.sum(w * dev ** 2) / np.sum(w * v ** 2)))
        h = 40.0 / 200
        assert residuals[0] <= 10.0 * h * h
        assert residuals[1] <= 0.45 * residuals[0]

    def test_zero_profile_reduces_to_free_operator(self):
        grid = geometric_grid(64, 20.0)
        r = grid.nodes
        l = 2
        a = operators.assemble_Ll(l, grid, zero_profile=True)
        d1 = operators.deriv1_matrix(grid, l).toarray()
        d2 = operators.deriv2_matrix(grid, l).toarray()
        expected = (-(d2 + np.diag(2.0 / r) @ d1 - np.diag(l * (l + 1) / r ** 2))
                    + 0.5 * np.diag(r) @ d1 + np.eye(grid.n))
        assert np.max(np.abs(a.entries - expected)) < 1e-12

    def test_invalid_class_rejected(self):
        with pytest.raises(ValueError):
            operators.assemble_Ll(-1, make_grid(32, 10.0))

    def test_quadratic_form_matches_coercivity_form(self):
        grid = geometric_grid(400, 40.0)
        r = grid.nodes
        w = operators.r2_mass_weights(grid)
        for l in (3, 4, 5):
            a = operators.assemble_Ll(l, grid)
            vals = (r / (1.0 + r)) ** l * np.exp(-((r - 6.0) / 2.0) ** 2)
            f = RadialFunction(grid, vals)
            matrix_form = float(np.sum(w * vals * (a.entries @ vals)))
            quad_form = ggmt.coercivity_form(f, l)
            assert abs(matrix_form - quad_form) < 2e-2 * abs(quad_form)


class TestFdMatrices:
    @staticmethod
    def vandermonde_matrix(grid, order, l):
        """Row-by-row Vandermonde stencils with explicit ghost nodes."""
        r = grid.nodes
        n = grid.n
        ghost = np.zeros(1)
        if l == 0:
            # f(0) from the even quartic a + b r^2 + c r^4 through r_1..r_3
            ghost = deriv_stencil(r[:3] ** 2, 0.0, 0)
        expected = np.zeros((n, n))
        for i in range(1, n - 1):
            expected[i, i - 1:i + 2] = deriv_stencil(r[i - 1:i + 2], r[i], order)
        w = deriv_stencil([0.0, r[0], r[1]], r[0], order)
        expected[0, :2] = w[1:]
        expected[0, :ghost.size] += w[0] * ghost
        w = deriv_stencil([r[-2], r[-1], 2.0 * r[-1] - r[-2]], r[-1], order)
        expected[-1, -2:] = w[:2]  # the outer ghost value is 0
        return expected

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("stretch", ["uniform", "geometric"])
    def test_every_row_matches_vandermonde_stencil(self, stretch, l):
        grid = make_grid(120, 40.0) if stretch == "uniform" else \
            geometric_grid(120, 40.0)
        for order, build in ((1, operators.deriv1_matrix),
                             (2, operators.deriv2_matrix)):
            got = build(grid, l).toarray()
            expected = self.vandermonde_matrix(grid, order, l)
            row_scale = np.max(np.abs(expected), axis=1)
            row_err = np.max(np.abs(got - expected), axis=1)
            assert np.all(row_err <= 1e-13 * row_scale)


def v1(r):
    """Potential V1(r) = -d/dr ( r^{-1} D_2^{-1} Q ) = 8r/(r^2+2)^2."""
    return 8.0 * r / (r * r + 2.0) ** 2


class TestTildeLlAlpha:
    """The partial localization r^a D_{l+2}^{-1} L_l D_{l+2} r^{-a} of the
    paper's l = 2 route, assembled here alone: no criterion uses it."""

    def test_intertwining_identity_converges(self):
        # tilde_L (r^a D_{l+2}^{-1} f) = r^a D_{l+2}^{-1} (L_l f), with the
        # expanded tilde_L: a local Schroedinger-with-drift part plus the
        # nonlocal piece
        # l (D_{l+2-a}^{-1} V_1 + D_{l+2-a}^{-1} V_2 D_{-l-a}^{-1})
        l, alpha = 2, 0.2
        errs = []
        for n in (400, 800):
            grid = make_grid(n, 40.0, "uniform")
            r = grid.nodes
            d1 = operators.deriv1_matrix(grid, l).toarray()
            d2 = operators.deriv2_matrix(grid, l).toarray()
            tilde = (-d2 - ((2.0 - 2.0 * alpha) / r)[:, None] * d1
                     + np.diag((alpha - alpha ** 2 + (l + 1) * (l + 2)) / (r * r))
                     + 0.5 * (r[:, None] * d1 + (1.0 - alpha) * np.eye(grid.n))
                     - profile.d2inv_q_closed(r)[:, None]
                     * (d1 + np.diag((2.0 - alpha) / r))
                     - np.diag(profile.q(r)))
            low = operators.dk_inv_matrix(grid, l + 2.0 - alpha, 1.0)
            up = operators.dk_inv_matrix(grid, -(l + alpha))
            tilde += l * (low * v1(r)[None, :]
                          + (low * profile.v2(r)[None, :]) @ up)
            f = np.exp(-((r - 8.0) / 2.0) ** 2)
            lift = r ** alpha * cumulative_power_integral(f, grid, l + 2.0, 4.0) \
                / r ** (l + 2.0)
            llf = operators.apply_Ll(l, grid, f)
            lift_llf = r ** alpha * cumulative_power_integral(
                llf, grid, l + 2.0, 4.0) / r ** (l + 2.0)
            res = tilde @ lift - lift_llf
            mask = (r > 0.5) & (r < 35.0)
            errs.append(np.max(np.abs(res[mask])))
        assert errs[1] < 0.4 * errs[0]

    def test_nonlocal_block_bounded_with_kernel_envelope(self):
        # kernel rows of r^a T_l r^-a obey the r^{3/2} / r^{-5/2} envelopes
        # that make the conjugated nonlocal term L^2-bounded
        l, alpha = 2, 0.2
        grid = make_grid(800, 80.0, ("geometric", 30.0 ** (1.0 / 799.0)))
        r = grid.nodes
        w = grid.quad_weights
        low = operators.dk_inv_matrix(grid, l + 2.0 - alpha, 1.0)
        up = operators.dk_inv_matrix(grid, -(l + alpha))
        block = low @ np.diag(v1(r)) + \
            low @ np.diag(profile.v2(r)) @ up
        # flat-measure L^2 norm of each kernel row (entries are kernel * w_j)
        rows = np.sqrt(np.sum(block ** 2 / w[None, :], axis=1))
        inner = (r > 0.05) & (r < 0.5)
        outer = (r > 8.0) & (r < 60.0)
        slope_in = np.polyfit(np.log(r[inner]), np.log(rows[inner]), 1)[0]
        slope_out = np.polyfit(np.log(r[outer]), np.log(rows[outer]), 1)[0]
        assert abs(slope_in - 1.5) < 0.25
        assert abs(slope_out + 2.5) < 0.25
        # Cauchy-Schwarz: the row-norm envelope bounds the operator on
        # random data in L^2(dr)
        bound = np.sqrt(np.sum(w * rows ** 2))
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(grid.n)
            nx = np.sqrt(np.sum(w * x ** 2))
            nbx = np.sqrt(np.sum(w * (block @ x) ** 2))
            assert nbx <= bound * nx * (1.0 + 1e-12)


class TestTildeL1Prime:
    def test_potential_value(self):
        assert np.isclose(float(profile.tilde_L1_prime_potential(2.0)),
                          7.0 / 6.0, atol=1e-15)

    @pytest.mark.parametrize("stretch", ["uniform", "geometric"])
    def test_symmetry(self, stretch):
        # the similarity W^{1/2} (.) W^{-1/2} symmetrizes the stiffness: the
        # two scaled entries averaged into each off-diagonal pair agree to
        # round-off
        grid = make_grid(200, 40.0) if stretch == "uniform" else \
            geometric_grid(200, 40.0)
        h = grid.cell_spacings()
        sqw = np.sqrt(0.5 * (h[:-1] + h[1:]))
        upper = -(1.0 / h[1:-1]) / sqw[:-1] / sqw[1:]
        lower = -(1.0 / h[1:-1]) / sqw[1:] / sqw[:-1]
        _, off = operators.assemble_tilde_L1_prime(grid)
        assert np.all(np.abs(upper - lower) <= 1e-14 * np.abs(off))
        assert np.all(np.abs(off - upper) <= 1e-14 * np.abs(off))

    def test_ritz_floor(self):
        from ksmode.spectra import schrodinger_spectrum_check
        a = operators.assemble_tilde_L1_prime(geometric_grid(400, 40.0))
        assert schrodinger_spectrum_check(a) >= 0.39

    def test_ritz_above_potential_minimum(self):
        # -d_r^2 >= 0, so every Ritz value sits above min V
        from ksmode.spectra import schrodinger_spectrum_check
        from ksmode.waveop import potential_min_tilde_L1_prime
        a = operators.assemble_tilde_L1_prime(geometric_grid(200, 40.0))
        _, vmin = potential_min_tilde_L1_prime()
        assert schrodinger_spectrum_check(a) >= vmin - 1e-10


def h_matrix(mu, grid):
    """The GGMT comparison operator -d_r^2 + U of the paper's l = 2 route,
    U the pipeline's potential at (l, alpha, theta) = (2, 0.2, 1) for the
    reference weight, discretized like the l = 1 form of criterion 5."""
    u, _ = ggmt.schrodinger_potential(2, 0.2, 1.0, mu, ggmt.paper_weight())
    return operators._symmetric_schrodinger(grid, u(grid.nodes))


class TestHlAlphaW:
    def test_angular_constant(self):
        assert np.isclose(-(0.2 - 1.0) ** 2 + 12.0, 11.36)

    def test_half_d_origin_value(self):
        assert np.isclose(profile.half_d_d2inv_q(0.0, 0.2), -2.6)

    def test_potential_limit(self):
        mu = 1.9137
        grid = geometric_grid(200, 400.0, growth=100.0)
        a = h_matrix(mu, grid)
        # far-field potential approaches (1-2a)/4 - l mu W(inf) = 0.15 - 2 mu/50
        u_inf = (1.0 - 0.4) / 4.0 - 2.0 * mu * 0.02
        far = np.argmin(np.abs(grid.nodes - 300.0))
        assert abs(_diag_potential(a, grid)[far] - u_inf) < 1e-3

    def test_invalid_weight_rejected(self):
        bad = ggmt.WeightSpec(fn=lambda r: np.asarray(r) ** -3.0, w_inf=0.0,
                              label="too-weak")
        with pytest.raises(ValueError, match="tail exponent"):
            bad.check(2, 0.2)

    def test_no_negative_ritz_with_reference_parameters(self):
        from ksmode.spectra import schrodinger_spectrum_check
        mu = ggmt.mu_functional(2, 0.2, ggmt.paper_weight())
        a = h_matrix(mu, geometric_grid(400, 80.0))
        assert schrodinger_spectrum_check(a) >= 0.0


def _diag_potential(band, grid):
    """Recover the diagonal potential by subtracting the stiffness diagonal."""
    h = grid.cell_spacings()
    w = 0.5 * (h[:-1] + h[1:])
    stiff_diag = (1.0 / h[:-1] + 1.0 / h[1:]) / w
    return band[0] - stiff_diag


class TestCrossRepresentation:
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 6])
    def test_kernel_vs_factorized_matrices(self, l):
        grid = geometric_grid(200, 40.0)
        kern = operators.kernel_deltal_inv_matrix(grid, l)
        fact = operators.factorized_deltal_inv_matrix(grid, l)
        rng = np.random.default_rng(l)
        for _ in range(10):
            x = rng.standard_normal(grid.n)
            err = np.max(np.abs((kern - fact) @ x))
            assert err < 1e-6 * max(1.0, np.max(np.abs(kern @ x)))

    @pytest.mark.parametrize("l", [1, 2, 4])
    def test_two_paths_for_kernel_derivative(self, l):
        grid = geometric_grid(200, 40.0)
        a = operators.deriv_deltal_inv_matrix(grid, l)
        b = operators.kernel_deriv_deltal_inv_matrix(grid, l)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_matrix_and_vector_paths_agree(self):
        grid = geometric_grid(300, 40.0)
        from ksmode.radial import deriv_deltal_inverse
        f = RadialFunction(grid, np.exp(-((grid.nodes - 8.0) / 2.0) ** 2))
        mat = operators.deriv_deltal_inv_matrix(grid, 2)
        # the bump is round-off zero on the last decade: no fitted tail
        vec = deriv_deltal_inverse(2, f)
        assert np.max(np.abs(mat @ f.values - vec.values)) < 1e-12


# -- the dense cumulative matrices as they were assembled before radial's
# -- prefix and suffix integrals built them: the oracles of the blocks

def _panel_matrix(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """(n-1) x n bidiagonal matrix of the panel integrals cu_j f_j + cv_j f_{j+1}."""
    m = cu.size
    panels = np.zeros((m, m + 1))
    idx = np.arange(m)
    panels[idx, idx] = cu
    panels[idx, idx + 1] = cv
    return panels


def lower_cum_matrix(grid, a: float, origin_power: float) -> np.ndarray:
    """Matrix of f -> int_0^{r_i} f(s) s^a ds with origin model f ~ f_1 (s/r_1)^p."""
    n = grid.n
    nodes = grid.nodes
    if origin_power + a + 1.0 <= 0.0:
        raise ValueError("origin model makes the cumulative integral divergent")
    panels = _panel_matrix(*panel_coefficients(a, nodes))
    mat = np.zeros((n, n))
    mat[1:] = np.cumsum(panels, axis=0)
    mat[:, 0] += nodes[0] ** (a + 1.0) / (origin_power + a + 1.0)
    return mat


def upper_cum_matrix(grid, a: float) -> np.ndarray:
    """Matrix of f -> int_{r_i}^{rmax} f(s) s^a ds (f treated as 0 beyond rmax)."""
    n = grid.n
    panels = _panel_matrix(*panel_coefficients(a, grid.nodes))
    mat = np.zeros((n, n))
    mat[:-1] = np.cumsum(panels[::-1], axis=0)[::-1]
    return mat


ORACLE_GRIDS = {"ladder": geometric_grid(800, 80.0),
                "uniform": make_grid(400, 40.0, "uniform")}


class TestCumulativeBlocks:
    """The blocks are bit-identical to the explicit cumsum matrices, for the
    exponents the class operators and the partial localization use."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("l", range(7))
    def test_prefix_block_matches_oracle(self, name, l):
        grid = ORACLE_GRIDS[name]
        # (a, p): the class-l kernel, and the partial localization at alpha
        for a, p in ((l + 2.0, float(l)), (l + 2.0 - 0.2, 1.0)):
            assert np.array_equal(operators._prefix_matrix(grid, a, p),
                                  lower_cum_matrix(grid, a, p))

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    @pytest.mark.parametrize("l", range(7))
    def test_suffix_block_matches_oracle(self, name, l):
        grid = ORACLE_GRIDS[name]
        for a in (1.0 - l, -(l + 0.2)):
            assert np.array_equal(operators._suffix_matrix(grid, a),
                                  upper_cum_matrix(grid, a))

    @pytest.mark.parametrize("l", range(7))
    def test_assembled_matrices_are_c_ordered(self, l):
        # a transposed layout would change the rounding of BLAS products
        grid = ORACLE_GRIDS["uniform"]
        for mat in (operators.dk_inv_matrix(grid, l + 2.0, float(l)),
                    operators.dk_inv_matrix(grid, -(l + 0.2)),
                    operators.kernel_deltal_inv_matrix(grid, l),
                    operators.factorized_deltal_inv_matrix(grid, l),
                    operators.kernel_deriv_deltal_inv_matrix(grid, l)):
            assert mat.flags.c_contiguous

    @pytest.mark.parametrize("l", range(7))
    def test_factors_match_oracle_assembly(self, l):
        grid = ORACLE_GRIDS["uniform"]
        r = grid.nodes
        low = (r ** (-(l + 2.0)))[:, None] * lower_cum_matrix(grid, l + 2.0, l)
        assert np.array_equal(operators.dk_inv_matrix(grid, l + 2.0, float(l)),
                              low)
        for k in (1.0 - l, -(l + 0.2)):
            if k <= 0.0:   # D_k^{-1} integrates from rmax inwards
                up = -(r ** (-k))[:, None] * upper_cum_matrix(grid, k)
                assert np.array_equal(operators.dk_inv_matrix(grid, k), up)


# -- L_l and the Schroedinger matrix as one dense expression each, over dense
# -- finite-difference matrices, prefix blocks that integrate np.eye(n) and
# -- the explicit cumsum suffix blocks: the oracles of the assemblies from
# -- column weights and bands

def dense_fd_matrix(grid, order, l):
    h = grid.cell_spacings()
    wl, wc, wr = (three_point(order, *unit, h[:-1], h[1:]) for unit in np.eye(3))
    a = np.diag(wl[1:], -1) + np.diag(wc) + np.diag(wr[:-1], 1)
    ghost = operators._origin_ghost_coeffs(grid, l)
    a[0, :ghost.size] += wl[0] * ghost
    return a


def eye_dk_inv_matrix(grid, k, origin_power=0.0):
    r = grid.nodes
    if k > 0:
        block = power_prefix_integral(np.eye(grid.n), r, k, origin_power).T
        return np.multiply((r ** (-k))[:, None], block, order="C")
    return np.multiply((-(r ** (-k)))[:, None], upper_cum_matrix(grid, k),
                       order="C")


def eye_deriv_deltal_inv_matrix(grid, l):
    mat = (l + 1) * eye_dk_inv_matrix(grid, l + 2.0, float(l))
    if l > 0:
        mat = mat + l * eye_dk_inv_matrix(grid, -(l - 1.0))
    return mat / (2 * l + 1)


def dense_local_Ll(l, grid, zero_profile):
    r = grid.nodes
    d1 = dense_fd_matrix(grid, 1, l)
    d2 = dense_fd_matrix(grid, 2, l)
    lap = d2 + (2.0 / r)[:, None] * d1 - np.diag(l * (l + 1) / (r * r))
    a = -lap + (0.5 * r)[:, None] * d1 + np.eye(grid.n)
    if not zero_profile:
        a -= 2.0 * np.diag(profile.q(r))
        a -= profile.d2inv_q_closed(r)[:, None] * d1
    return a


def dense_assemble_Ll(l, grid, zero_profile):
    a = dense_local_Ll(l, grid, zero_profile)
    if not zero_profile:
        a -= profile.q_deriv(grid.nodes, 1)[:, None] \
            * eye_deriv_deltal_inv_matrix(grid, l)
    return a


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_symmetric_schrodinger(grid, potential):
    h = grid.cell_spacings()
    stiff = (np.diag(1.0 / h[:-1] + 1.0 / h[1:])
             - np.diag(1.0 / h[1:-1], 1) - np.diag(1.0 / h[1:-1], -1))
    sqw = np.sqrt(0.5 * (h[:-1] + h[1:]))
    sym = stiff / sqw[:, None] / sqw[None, :] + np.diag(potential)
    return 0.5 * (sym + sym.T)


LADDER = spectra.refinement_ladder()
# the grids criterion 3's scan reads, with the profile, and criterion 8's
# uniform grid, with and without it
ASSEMBLY_CASES = [pytest.param(LADDER[key], False, id=f"ladder-{key[0]}-{key[1]:g}")
                  for key in ((800, 80.0), (400, 80.0), (200, 80.0), (800, 40.0))]
ASSEMBLY_CASES += [pytest.param(make_grid(400, 40.0, "uniform"), zero,
                                id=f"uniform-400-40-zero{int(zero)}")
                   for zero in (False, True)]


class TestAssemblyOracle:
    """Every entry of the assemblies keeps the floating-point operations of
    the dense expressions, so the matrices are equal, not merely close."""

    @pytest.mark.parametrize("grid,zero", ASSEMBLY_CASES)
    @pytest.mark.parametrize("l", range(7))
    def test_assemble_Ll_matches_dense_oracle(self, grid, zero, l):
        got = operators.assemble_Ll(l, grid, zero_profile=zero).entries
        assert got.flags.c_contiguous
        assert np.array_equal(got, dense_assemble_Ll(l, grid, zero))
        # the nonlocal factor alone: in L_l the larger local diagonal
        # absorbs a change in the last bits of its diagonal
        assert np.array_equal(operators.deriv_deltal_inv_matrix(grid, l),
                              eye_deriv_deltal_inv_matrix(grid, l))

    @pytest.mark.parametrize("grid,zero", ASSEMBLY_CASES)
    @pytest.mark.parametrize("l", range(7))
    def test_local_band_matches_dense_oracle(self, grid, zero, l):
        for order, build in ((1, operators.deriv1_matrix),
                             (2, operators.deriv2_matrix)):
            assert np.array_equal(build(grid, l).toarray(),
                                  dense_fd_matrix(grid, order, l))
        assert np.array_equal(operators.local_band(l, grid, zero).toarray(),
                              dense_local_Ll(l, grid, zero))

    def test_zero_profile_class0_keeps_its_band(self):
        # the class-0 origin ghost reaches entry (0, 2), so the class-0
        # band, which the IMEX stepper factors, has two superdiagonals
        grid = make_grid(400, 40.0, "uniform")
        for l, ku in ((0, 2), (1, 1), (4, 1)):
            band = operators.local_band(l, grid, zero_profile=True)
            assert (band.kl, band.ku) == (1, ku)
            assert scipy.linalg.bandwidth(band.toarray()) == (1, ku)

    @pytest.mark.parametrize("l", range(7))
    def test_assembly_peak_allocation(self, l):
        # the dense-expression assembly peaked at 7 to 8 n^2 doubles
        grid = LADDER[(800, 80.0)]
        tracemalloc.start()
        try:
            operators.assemble_Ll(l, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * grid.n ** 2

    @pytest.mark.parametrize("grid", [
        pytest.param(geometric_grid(800, 40.0), id="criterion-5"),
        pytest.param(make_grid(200, 20.0, "uniform"), id="uniform")])
    def test_schrodinger_matrix_matches_dense_oracle(self, grid):
        r = grid.nodes
        for potential in (profile.tilde_L1_prime_potential(r),
                          np.cos(r) / (1.0 + r)):
            got = tridiagonal(*operators._symmetric_schrodinger(grid, potential))
            assert np.array_equal(got, dense_symmetric_schrodinger(grid, potential))


# criterion 5's grid, and the ladder and evolution grids at the same n
GRID_800 = {"ladder": LADDER[(800, 80.0)],
            "uniform": make_grid(800, 40.0, "uniform"),
            "criterion-5": geometric_grid(800, 40.0)}
LOCAL_BUILDS = {
    "deriv1_matrix": lambda: operators.deriv1_matrix(GRID_800["ladder"], 0),
    "imex-setup": lambda: evolution._ImexRows(GRID_800["uniform"], 0.01),
    "criterion-5": lambda: spectra.schrodinger_spectrum_check(
        operators.assemble_tilde_L1_prime(GRID_800["criterion-5"])),
}


@pytest.mark.parametrize("build", LOCAL_BUILDS.values(), ids=LOCAL_BUILDS.keys())
def test_local_operator_build_allocates_no_dense_matrix(build):
    # a dense n x n matrix is 8 n^2 bytes; built by way of dense matrices,
    # these peaked at 1, 5 and 3 of them, on their bands below a tenth
    build()   # first-call imports and caches
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * 800 ** 2
