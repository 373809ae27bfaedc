"""Eigensolving, the spurious-mode filters and the discrete projections."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from ksmode import acceptance, evolution, operators, profile, spectra
from ksmode.radial import make_grid


def range_floor(a):
    """Numerical-range floor of a class operator in L^2(r^2 dr)."""
    return spectra._range_floor(spectra._m_frame(a)[2])


def small_ladder(n0=100, rmax0=20.0):
    return spectra.refinement_ladder(n0=n0, rmax0=rmax0, levels=3,
                                     rmax_factors=(1, 2))


class TestEigDense:
    def test_rotation_matrix(self):
        lams, _ = spectra.eig_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sorted(lams.imag), [-1.0, 1.0], atol=1e-14)
        assert np.allclose(lams.real, 0.0, atol=1e-14)

    def test_diagonal_matrix(self):
        d = np.diag([3.0, -2.0, 0.5])
        lams, _ = spectra.eig_dense(d)
        assert np.allclose(sorted(lams.real), [-2.0, 0.5, 3.0], atol=1e-14)

    def test_symmetric_matrix_real_spectrum(self):
        diag, off = operators.assemble_tilde_L1_prime(make_grid(200, 30.0))
        a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        lams, _ = spectra.eig_dense(a)
        assert np.max(np.abs(lams.imag)) < 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            spectra.eig_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestExponentFits:
    def test_scaling_mode(self):
        grid = make_grid(800, 80.0, ("geometric", 30.0 ** (1.0 / 799.0)))
        decay, origin, consistent, reliable = spectra.exponent_fits(
            profile.lambda_q(grid.nodes), -1.0, grid)
        assert reliable and consistent
        assert abs(decay + 4.0) < 0.4
        assert abs(origin) < 0.15

    def test_translation_mode(self):
        grid = make_grid(800, 80.0, ("geometric", 30.0 ** (1.0 / 799.0)))
        decay, origin, consistent, reliable = spectra.exponent_fits(
            profile.q_deriv(grid.nodes, 1), -0.5, grid)
        assert reliable and consistent
        assert abs(decay + 3.0) < 0.3
        assert abs(origin - 1.0) < 0.1

    def test_gaussian_superpolynomial(self):
        grid = make_grid(800, 80.0, ("geometric", 30.0 ** (1.0 / 799.0)))
        decay, _, consistent, _ = spectra.exponent_fits(
            np.exp(-grid.nodes ** 2), 0.0, grid)
        assert decay <= -10.0 and consistent

    def test_underflow_marks_unreliable(self):
        grid = make_grid(100, 80.0)
        v = np.zeros(100)
        v[:3] = 1.0
        _, _, _, reliable = spectra.exponent_fits(v, 0.0, grid)
        assert not reliable


@pytest.fixture
def solves(monkeypatch):
    """The grids (n, rmax) the scan assembles, its number of eig_dense calls
    and its number of targeted (shift-invert) solves."""
    log = {"grids": [], "eig": 0, "targeted": 0}
    assemble, eig = spectra.assemble_Ll, spectra.eig_dense
    eigs = scipy.sparse.linalg.eigs

    def counted_assemble(l, grid):
        log["grids"].append((grid.n, grid.rmax))
        return assemble(l, grid)

    def counted_eig(a):
        log["eig"] += 1
        return eig(a)

    def counted_eigs(*args, **kwargs):
        log["targeted"] += 1
        return eigs(*args, **kwargs)

    monkeypatch.setattr(spectra, "assemble_Ll", counted_assemble)
    monkeypatch.setattr(spectra, "eig_dense", counted_eig)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted_eigs)
    return log


class TestScan:
    def test_l0_accepts_scaling_mode_only(self, solves):
        scan = spectra.unstable_scan_detailed(0, ladder=small_ladder())
        # the floor leaves room for the scaling mode; deflating the one
        # eigenvector nearest the floor certifies the rest of the fine grid,
        # then each partner grid takes one shift-invert solve at the one
        # candidate, and no full eigensolve runs
        assert scan.floor.nu < -1.0
        assert scan.path == "deflation"
        assert scan.certificate.count == 1 and scan.certificate.certifies(0.05)
        assert solves == {"eig": 0, "targeted": 4,
                          "grids": [(400, 40.0), (200, 40.0), (100, 40.0),
                                    (400, 20.0)]}
        assert len(scan.accepted) == 1
        rep = scan.accepted[0]
        assert abs(rep.lam - (-1.0)) < 5e-3
        w = operators.r2_mass_weights(rep.grid)
        cos = spectra.cosine_similarity(rep.vector,
                                        profile.lambda_q(rep.grid.nodes), w)
        assert cos >= 0.999

    def test_l2_empty(self, solves):
        scan = spectra.unstable_scan_detailed(2, ladder=small_ladder())
        assert scan.accepted == [] and scan.candidates == []
        # the floor certifies the threshold: no eigensolve, no other grid
        assert scan.floor.certifies(0.05) and scan.floor.count == 0
        assert scan.path == "floor" and scan.certificate is scan.floor
        assert solves == {"eig": 0, "targeted": 0, "grids": [(400, 40.0)]}

    def test_floor_below_threshold_runs_the_dense_path(self, solves):
        accepted, cands, floor, cert, path = spectra.unstable_scan_detailed(
            2, threshold=0.5, ladder=small_ladder())
        assert abs(floor.nu - 0.1887) < 1e-3 and not floor.certifies(0.5)
        # the fine grid's eigenvalue 0.378 is a candidate; the filters reject it
        (cand,) = cands
        assert abs(cand.lam - 0.378) < 1e-3
        assert accepted == [] and cand.rejected_by == "rmax"
        # deflating 1, 2 and 4 eigenvectors leaves floors below 0.5: three
        # Arnoldi solves before the full eigensolve
        assert path == "dense"
        assert cert.count == 4 and not cert.certifies(0.5)
        assert solves == {"eig": 1, "targeted": 6,
                          "grids": [(400, 40.0), (200, 40.0), (100, 40.0),
                                    (400, 20.0)]}

    def test_coarse_outer_spacing_falls_back_to_the_dense_path(self, solves):
        # on (400, 80) the Dirichlet row at rmax pulls the floor to -2.5
        accepted, cands, floor, cert, path = spectra.unstable_scan_detailed(
            2, ladder=small_ladder(rmax0=40.0))
        assert abs(floor.nu + 2.5) < 0.05 and not floor.certifies(0.05)
        # and that row stays after any deflation
        assert path == "dense" and cert.count == 4 and cert.nu < -2.0
        assert accepted == [] and cands == []
        assert solves == {"eig": 1, "targeted": 3, "grids": [(400, 80.0)]}

    def test_larger_ladder_solves_only_the_grids_read(self, solves):
        ladder = spectra.refinement_ladder(n0=50, rmax0=20.0, levels=4,
                                           rmax_factors=(1, 2, 3))
        spectra.unstable_scan_detailed(0, ladder=ladder)
        assert solves == {"eig": 0, "targeted": 4,
                          "grids": [(400, 60.0), (200, 60.0), (100, 60.0),
                                    (400, 20.0)]}

    def test_off_ladder_reproducibility(self):
        # node count +7 off the ladder reproduces the eigenvalue
        base = spectra.unstable_scan_detailed(0, ladder=small_ladder())[0][0]
        shifted = spectra.unstable_scan_detailed(
            0, ladder=small_ladder(n0=107))[0][0]
        assert abs(base.lam - shifted.lam) < 2.0 * 5e-3

    def test_ladder_shape_enforced(self):
        grids = {(100, 20.0): make_grid(100, 20.0),
                 (200, 20.0): make_grid(200, 20.0)}
        with pytest.raises(ValueError):
            spectra.unstable_scan_detailed(0, ladder=grids)

    def test_missing_scanned_grid_raises_before_any_solve(self, solves):
        ladder = small_ladder()
        del ladder[(200, 40.0)]
        with pytest.raises(ValueError, match=r"\(200, 40\.0\)"):
            spectra.unstable_scan_detailed(0, ladder=ladder)
        assert solves == {"eig": 0, "targeted": 0, "grids": []}

    def test_kernel_form_residual_cross_check(self):
        # recompute the accepted residual with the differentiated-kernel
        # nonlocal block: representations agree far below the filter scale
        rep = spectra.unstable_scan_detailed(0, ladder=small_ladder()).accepted[0]
        grid = rep.grid
        a = operators.assemble_Ll(0, grid).entries
        swap = operators.kernel_deriv_deltal_inv_matrix(grid, 0) \
            - operators.deriv_deltal_inv_matrix(grid, 0)
        a_kernel = a - np.diag(profile.q_deriv(grid.nodes, 1)) @ swap
        res = np.linalg.norm(a_kernel @ rep.vector - rep.lam * rep.vector) \
            / np.linalg.norm(rep.vector)
        assert abs(res - rep.residual) < 1e-6


def dense_partners(a, cands):
    """The whole partner spectrum from eig_dense: the reference that the
    targeted solves must reproduce."""
    return spectra.eig_dense(a)[0], None


class TestTargetedPartners:
    @pytest.mark.parametrize("l, threshold, count", [
        (0, 0.05, 1), (0, 1.5, 3), (2, 0.5, 1), (2, 2.0, 3)])
    def test_match_the_dense_partners(self, monkeypatch, l, threshold, count):
        # (2, 2.0) has the complex pair 1.508 +- 0.650i among its candidates
        ladder = small_ladder()
        targeted = spectra.unstable_scan_detailed(l, threshold, ladder).candidates
        monkeypatch.setattr(spectra, "_nearest_eigenvalues", dense_partners)
        dense = spectra.unstable_scan_detailed(l, threshold, ladder).candidates
        assert len(targeted) == len(dense) == count
        for got, want in zip(targeted, dense):
            assert got.lam == want.lam
            assert abs(got.h_defect - want.h_defect) <= 1e-9
            assert abs(got.rmax_defect - want.rmax_defect) <= 1e-9
            assert (got.accepted, got.converged, got.rejected_by) == \
                (want.accepted, want.converged, want.rejected_by)
            assert got.partner_solves == 3 and want.partner_solves == 0
            assert 0.0 < got.partner_residual <= 1e-8

    def test_union_holds_each_candidates_nearest_once(self):
        # conjugate shifts find overlapping sets; every eigenvalue stays once
        ladder = small_ladder()
        fine = operators.assemble_Ll(2, ladder[(400, 40.0)])
        lams, _ = spectra.eig_dense(fine)
        cands = lams[lams.real < 2.0]
        partner = operators.assemble_Ll(2, ladder[(200, 40.0)])
        found, res = spectra._nearest_eigenvalues(partner, cands)
        full, _ = spectra.eig_dense(partner)
        nearest = {int(j) for lam in cands
                   for j in np.argsort(np.abs(full - lam))[:cands.size]}
        assert found.size == len(nearest)
        for j in nearest:
            assert np.min(np.abs(found - full[j])) <= 1e-9
        assert res.shape == cands.shape and np.all(res <= 1e-8)

    def test_perturbed_eigenvalue_trips_the_residual_guard(self, monkeypatch):
        eigs = scipy.sparse.linalg.eigs

        def perturbed(*args, **kwargs):
            mus, vecs = eigs(*args, **kwargs)
            return mus + 1e-3, vecs

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", perturbed)
        with pytest.raises(RuntimeError, match="eigen residual .* exceeds"):
            spectra.unstable_scan_detailed(0, ladder=small_ladder())

    def test_too_many_candidates_for_arnoldi_solve_densely(self, solves):
        # k = n - 1 does not fit ARPACK: the whole spectrum is computed
        a = operators.assemble_Ll(0, make_grid(20, 10.0))
        lams, _ = spectra.eig_dense(a)
        found, res = spectra._nearest_eigenvalues(a, lams[:19])
        assert res is None and np.array_equal(found, lams)
        assert solves["eig"] == 2 and solves["targeted"] == 0


class TestRangeFloor:
    @pytest.mark.parametrize("l", range(7))
    def test_bounds_every_eigenvalue(self, l):
        grid = small_ladder()[(400, 40.0)]
        a = operators.assemble_Ll(l, grid)
        floor = range_floor(a)
        lams, _ = spectra.eig_dense(a)
        assert lams.real.min() >= floor.nu - floor.margin
        assert floor.margin < 6e-8

    def test_coercivity_samples_stay_above_the_floor(self):
        # criterion 6's 200 seeded bumps, in its draw order: the discrete
        # Rayleigh quotient of each lies above its class floor
        grid = make_grid(400, 40.0, ("geometric", 30.0 ** (1.0 / 399.0)))
        w = operators.r2_mass_weights(grid)
        rng = np.random.default_rng(20250809)
        for l in (3, 4, 5, 6):
            a = operators.assemble_Ll(l, grid)
            floor = range_floor(a)
            quotients = []
            for _ in range(50):
                x = acceptance.random_class_function(rng, grid, l).values
                quotients.append(x @ (w * (a.entries @ x)) / (x @ (w * x)))
            assert min(quotients) >= floor.nu


class TestLadder:
    """A ladder is valid exactly when it builds."""

    @pytest.mark.parametrize("growth", [1e-6, 0.5, 1.0, 30.0, 1e6])
    def test_resolvable_growth_builds(self, growth):
        ladder = spectra.refinement_ladder(n0=100, rmax0=20.0, growth=growth)
        assert sorted(ladder) == [(n, rmax) for n in (100, 200, 400)
                                  for rmax in (20.0, 40.0)]
        for grid in ladder.values():
            assert np.diff(grid.nodes, prepend=0.0).min() \
                >= np.sqrt(np.finfo(float).eps) * grid.rmax

    @pytest.mark.parametrize("growth, message", [
        (1e-300, "strictly increasing"), (1e-20, "strictly increasing"),
        (1e7, "below sqrt"), (1e306, "overflows")],
        ids=["1e-300", "1e-20", "1e7", "1e306"])
    def test_unresolvable_spacing_raises(self, growth, message):
        # growth < 1 shrinks the outer spacings until the nodes collide;
        # growth > 1 shrinks the first spacing below sqrt(eps) rmax, or the
        # per-step ratio's n-th power overflows
        with pytest.raises(ValueError, match=message):
            spectra.refinement_ladder(n0=100, rmax0=20.0, growth=growth)

    @pytest.mark.parametrize("kwargs", [
        {"n0": 100000}, {"n0": 3201}, {"n0": 100, "levels": 8}],
        ids=["n0=100000", "n0=3201", "levels=8"])
    def test_node_limit_raises_before_any_grid(self, kwargs, monkeypatch):
        # the scan would hold four dense matrices of the finest grid
        monkeypatch.setattr(spectra, "make_grid", None)
        with pytest.raises(ValueError, match="more than 6400"):
            spectra.refinement_ladder(**kwargs)

    def test_node_limit_is_inclusive(self):
        assert max(spectra.refinement_ladder(n0=1600)) == (6400, 80.0)

    @pytest.mark.parametrize("kwargs", [
        {"levels": 2}, {"rmax_factors": (1,)}, {"rmax_factors": (2, 2)},
        {"growth": 0.0}, {"growth": -2.0}],
        ids=["levels=2", "one-radius", "repeated-radius", "growth=0",
             "growth=-2"])
    def test_degenerate_ladder_raises_before_any_grid(self, kwargs,
                                                       monkeypatch):
        monkeypatch.setattr(spectra, "make_grid", None)
        with pytest.raises(ValueError):
            spectra.refinement_ladder(**kwargs)


class TestScanGrids:
    def test_keys_fine_grid_first(self):
        assert spectra.check_scan_grids(0, small_ladder()) == [
            (400, 40.0), (200, 40.0), (100, 40.0), (400, 20.0)]

    def test_overflow_boundary_on_the_pinned_ladder(self):
        # the (800, 40) grid has the smallest first node: r_1^-(l+2)
        # overflows there from l = 137 on, and the check stops exactly there
        ladder = spectra.refinement_ladder()
        assert spectra.check_scan_grids(136, ladder)[-1] == (800, 40.0)
        op = operators.assemble_Ll(136, ladder[(800, 40.0)])
        assert np.all(np.isfinite(op.entries))
        with pytest.raises(ValueError, match=r"class 137 .*\(800, 40\.0\)"):
            spectra.check_scan_grids(137, ladder)

    @pytest.mark.parametrize("rmax0", [1e-300, 1e300])
    def test_scan_refuses_an_overflowing_class_before_assembly(self, rmax0,
                                                               solves):
        ladder = spectra.refinement_ladder(n0=100, rmax0=rmax0)
        with pytest.raises(ValueError, match="overflows a float"):
            spectra.unstable_scan_detailed(4, ladder=ladder)
        assert solves["grids"] == []


class TestDeflation:
    """The Schur-deflation certificate of the scan's fine grid against the
    full eigensolve it replaces."""

    @pytest.mark.parametrize("l, threshold", [
        (0, 0.05), (1, 0.05), (0, 1.5), (2, 0.5), (2, 2.0)])
    def test_certificate_is_sound(self, l, threshold):
        ladder = small_ladder()
        certified = 0
        for grid in ladder.values():
            a = operators.assemble_Ll(l, grid)
            frame = spectra._m_frame(a)
            nu = spectra._range_floor(frame[2]).nu
            full, full_vecs = spectra.eig_dense(a)
            w = operators.r2_mass_weights(grid)
            for k in spectra._DEFLATION_SIZES:
                deflated, lams, vecs = spectra._deflate(a, frame, nu, k)
                if not deflated.certifies(threshold):
                    continue
                certified += 1
                # every eigenvalue left after removing the deflated ones lies
                # above the deflated floor
                rest = np.ones(full.size, dtype=bool)
                for lam in lams:
                    rest[np.argmin(np.where(rest, np.abs(full - lam), np.inf))] = False
                assert full[rest].real.min() >= deflated.nu - deflated.margin
                # and the candidates are the full solve's, value and vector
                want = np.nonzero(full.real < threshold)[0]
                got = np.nonzero(lams.real < threshold)[0]
                assert got.size == want.size
                for i, j in zip(got, want):
                    assert abs(lams[i] - full[j]) <= 1e-9 * abs(full[j])
                    cos = spectra.cosine_similarity(vecs[:, i], full_vecs[:, j], w)
                    assert cos >= 1.0 - 1e-9
        # the symmetry classes are certified on every grid of the ladder
        if threshold == 0.05:
            assert certified >= len(ladder)

    def test_complex_deflation_matches_the_full_solve(self):
        # a real shift next to the pair 1.508 +- 0.650i of class 2 finds one
        # member of the pair: the deflation runs in complex arithmetic, and
        # the conjugate left behind keeps the floor below it
        a = operators.assemble_Ll(2, small_ladder()[(400, 40.0)])
        frame = spectra._m_frame(a)
        deflated, lams, vecs = spectra._deflate(a, frame, 1.508, 1)
        full, _ = spectra.eig_dense(a)
        assert abs(lams[0].imag) > 0.6 and np.iscomplexobj(vecs)
        assert np.min(np.abs(full - lams[0])) <= 1e-9
        assert deflated.residual <= 1e-8
        assert deflated.nu - deflated.margin <= lams[0].real

    def test_failed_certificate_falls_back_to_the_dense_path(self, monkeypatch):
        # on (400, 80) the Dirichlet row keeps the deflated floor near -2.5:
        # the scan's candidates are exactly those of the full solve
        ladder = small_ladder(rmax0=40.0)
        scan = spectra.unstable_scan_detailed(0, ladder=ladder)
        assert scan.path == "dense" and not scan.certificate.certifies(0.05)
        monkeypatch.setattr(spectra, "_DEFLATION_SIZES", ())
        plain = spectra.unstable_scan_detailed(0, ladder=ladder)
        # with nothing deflated the certificate is the plain floor
        assert plain.path == "dense" and plain.certificate is plain.floor
        got, want = scan.candidates, plain.candidates
        assert len(got) == len(want) == 1
        assert got[0].lam == want[0].lam
        assert np.array_equal(got[0].vector, want[0].vector)
        assert (got[0].residual, got[0].rejected_by) == \
            (want[0].residual, want[0].rejected_by)


class TestMatchNearest:
    def test_partners_are_distinct_nearest_pair_first(self):
        cands = np.array([-0.99, -1.0])
        lams = np.array([-1.001, 5.0, -0.5])
        partners = spectra._match_nearest(cands, lams)
        # -1.0 is closer to -1.001 and takes it; -0.99 gets the next nearest
        assert partners.tolist() == [-0.5, -1.001]

    def test_candidate_without_partner_gets_infinite_defect(self):
        cands = np.array([-1.0, -0.99 + 0.01j])
        partners = spectra._match_nearest(cands, np.array([-1.001]))
        assert partners[0] == -1.001
        assert np.isinf(abs(partners[1] - cands[1]))

    def test_no_candidates(self):
        assert spectra._match_nearest(np.array([]), np.array([1.0])).size == 0


@pytest.fixture(scope="module")
def proj():
    grid = make_grid(300, 40.0, ("geometric", 30.0 ** (1.0 / 299.0)))
    a = operators.assemble_Ll(0, grid)
    return spectra.build_projection(a, -1.0), a


class TestProjection:
    def test_biorthogonality(self, proj):
        pair, _ = proj
        assert pair.biorthogonality_defect <= 1e-8

    def test_projection_fixes_its_range(self, proj):
        pair, _ = proj
        out = pair.project_unstable(pair.right)
        assert np.max(np.abs(out - pair.right)) < 1e-6 * np.max(np.abs(pair.right))

    def test_complementary_projection_annihilates(self, proj):
        pair, _ = proj
        g = np.exp(-pair.grid.nodes ** 2)
        stable = pair.project_stable(g)
        out = pair.project_unstable(stable)
        assert np.max(np.abs(out)) < 1e-6 * np.max(np.abs(g))

    def test_idempotent(self, proj):
        pair, _ = proj
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(pair.grid.n)
            once = pair.project_unstable(x)
            twice = pair.project_unstable(once)
            assert np.max(np.abs(twice - once)) <= 1e-8 * max(1.0, np.max(np.abs(once)))

    def test_coefficient_is_a_scalar(self, proj):
        pair, _ = proj
        assert np.ndim(pair.coefficient(pair.right)) == 0
        assert abs(pair.coefficient(pair.right) - 1.0) <= 1e-8

    def test_no_dense_eigensolve(self, proj, monkeypatch):
        calls = _count_dense_eig(monkeypatch)
        pair = spectra.build_projection(proj[1], -1.0)
        assert (pair.path, calls) == ("deflation", [])

    def test_left_vector_is_a_left_eigenvector(self, proj):
        # y^H A = lam y^H to the residual guard's tolerance
        _, a = proj
        mode = spectra.mode_report(a, -1.0)
        lam, right, left = mode.lam, mode.right, mode.left
        mat = a.entries
        tol = 1e-8 * np.linalg.norm(mat.conj().T, np.inf) * np.linalg.norm(left)
        assert np.linalg.norm(left.conj() @ mat - lam * left.conj()) <= tol
        assert np.linalg.norm(mat @ right - lam * right) \
            <= 1e-8 * np.linalg.norm(mat, np.inf) * np.linalg.norm(right)
        assert abs(lam + 1.0) < 5e-3

    def test_perturbed_left_vector_trips_the_left_guard(self, proj, monkeypatch):
        eigs = scipy.sparse.linalg.eigs
        mat = proj[1].entries

        def perturbed(a, *args, **kwargs):
            lams, vecs = eigs(a, *args, **kwargs)
            # the right solve runs on the operator itself, the left on A^H
            return lams, vecs if a is mat else vecs + 1e-3

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", perturbed)
        with pytest.raises(RuntimeError, match="eigen residual .* exceeds"):
            spectra.build_projection(proj[1], -1.0)

    def test_records_its_isolation_and_condition(self, proj):
        pair, a = proj
        floor = spectra._deflate(a, spectra._m_frame(a), -1.0, 1)[0]
        assert pair.floor == floor and floor.certifies(0.0)
        assert pair.path == "deflation"
        _, right, left = _dense_mode(a, -1.0)
        kappa = np.linalg.norm(right) * np.linalg.norm(left) \
            / abs(np.vdot(left, right))
        assert abs(pair.condition - kappa) <= 1e-10 * kappa


def _count_dense_eig(monkeypatch) -> list:
    """The arguments of every scipy.linalg.eig call from now on."""
    calls = []
    eig = scipy.linalg.eig

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return eig(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counted)
    return calls


def _dense_mode(a, target):
    """Oracle: the eigenvalue nearest ``target`` with its right and left
    eigenvectors, from one dense two-sided eigensolve."""
    lams, lefts, rights = scipy.linalg.eig(a.entries, left=True, right=True)
    k = int(np.argmin(np.abs(lams - target)))
    return lams[k], rights[:, k], lefts[:, k]


def _cosine(u, v) -> float:
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


_MODE_OPERATORS = {}


def mode_operator(n, which):
    """(operator, target) of L_0, L_1 or the flow linearization about the
    discrete steady profile on the uniform (n, 40) grid, built once."""
    key = (n, which)
    if key not in _MODE_OPERATORS:
        grid = make_grid(n, 40.0, "uniform")
        if which == "flow":
            a = evolution.flow_linearization(
                grid, evolution.discrete_steady_profile(grid))
            target = -1.0
        else:
            l = int(which[1])
            a = operators.assemble_Ll(l, grid)
            target = acceptance.SYMMETRY_MODES[l].eigenvalue
        _MODE_OPERATORS[key] = a, target
    return _MODE_OPERATORS[key]


class TestModeReportOracle:
    """Two Arnoldi solves and the deflated floor against the dense
    two-sided eigensolve they replace."""

    @staticmethod
    def assert_matches_oracle(a, target):
        mode = spectra.mode_report(a, target)
        lam, right, left = _dense_mode(a, target)
        assert abs(mode.lam - lam) <= 1e-11 * abs(lam)
        assert _cosine(mode.right, right) >= 1.0 - 1e-12
        assert _cosine(mode.left, left) >= 1.0 - 1e-12
        peak = mode.right[np.argmax(np.abs(mode.right))]
        assert peak.real > 0.0 and peak.imag == 0.0
        # the stable part of exp(-r^2) under the oracle's own projection
        w = operators.r2_mass_weights(a.grid)
        f = np.exp(-a.grid.nodes ** 2)
        right = right / np.sqrt(np.sum(w * np.abs(right) ** 2))
        left = left / (w * np.conj(np.vdot(left, right)))
        oracle = f - right * np.sum(left.conj() * w * f)
        stable = spectra.build_projection(a, target).project_stable(f)
        assert np.max(np.abs(stable - oracle)) <= 1e-11 * np.max(np.abs(oracle))
        return mode

    @pytest.mark.parametrize("n", [400, 200])
    @pytest.mark.parametrize("which", ["L0", "L1", "flow"])
    def test_deflation_path_matches_the_dense_solve(self, n, which):
        mode = self.assert_matches_oracle(*mode_operator(n, which))
        assert mode.path == "deflation"
        assert mode.floor.count == 1 and mode.floor.certifies(0.0)

    def test_failed_floor_takes_the_dense_path(self, monkeypatch):
        # on (100, 40) the L_0 floor with the mode deflated is -0.063
        a, target = mode_operator(100, "L0")
        mode = self.assert_matches_oracle(a, target)
        assert mode.path == "dense" and not mode.floor.certifies(0.0)
        assert -0.07 < mode.floor.nu < -0.06
        calls = _count_dense_eig(monkeypatch)
        spectra.mode_report(a, target)
        assert calls == [{}]   # the one-sided solve of eig_dense

    def test_left_solve_must_find_the_same_eigenvalue(self, monkeypatch):
        a, target = mode_operator(200, "L0")
        eigs = scipy.sparse.linalg.eigs

        def elsewhere(mat, *args, sigma, **kwargs):
            # the left solve (on A^H) finds a genuine pair near 0.5 instead
            return eigs(mat, *args, sigma=sigma if mat is a.entries else 0.5,
                        **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", elsewhere)
        with pytest.raises(RuntimeError, match="the left solve found"):
            spectra.mode_report(a, target)

    def test_complex_pair_nearest_the_target_is_refused(self, monkeypatch):
        # on (20, 1e5) the eigenvalues of L_0 nearest -1 are a conjugate
        # pair, equally near the real target: no left solve runs
        a = operators.assemble_Ll(0, make_grid(20, 1e5, ("geometric", 1.0)))
        eigs = scipy.sparse.linalg.eigs
        solves = []

        def counted(*args, **kwargs):
            solves.append(kwargs["sigma"])
            return eigs(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted)
        with pytest.raises(RuntimeError, match=r"complex pair \(0\.859"):
            spectra.mode_report(a, -1.0)
        assert solves == [-1.0]

    def test_dense_path_refuses_a_different_eigenvalue(self, monkeypatch):
        a, target = mode_operator(100, "L0")
        eig_dense = spectra.eig_dense

        def shifted(mat):
            lams, vecs = eig_dense(mat)
            return lams + 1e-3, vecs

        monkeypatch.setattr(spectra, "eig_dense", shifted)
        with pytest.raises(RuntimeError, match="nearest -1.0 is"):
            spectra.mode_report(a, target)


def test_shooting_setup_and_proj0_make_no_dense_eigensolve(monkeypatch):
    grid = make_grid(400, 40.0, "uniform")
    op0 = operators.assemble_Ll(0, grid)
    calls = _count_dense_eig(monkeypatch)
    _, projf, _ = acceptance.shooting_setup(grid, operators.r2_mass_weights(grid))
    proj0 = spectra.build_projection(op0, acceptance.SYMMETRY_MODES[0].eigenvalue)
    assert calls == []
    assert (projf.path, proj0.path) == ("deflation", "deflation")


def test_schrodinger_check_makes_no_dense_eigensolve(monkeypatch):
    grid = make_grid(800, 40.0, ("geometric", 30.0 ** (1.0 / 799.0)))
    band = operators.assemble_tilde_L1_prime(grid)
    diag, off = band
    dense = scipy.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1),
                                  subset_by_index=[0, 0])[0]

    def refused(*args, **kwargs):
        raise AssertionError("dense symmetric eigensolve")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(scipy.linalg, name, refused)
    assert spectra.schrodinger_spectrum_check(band) == pytest.approx(dense, rel=1e-12)
