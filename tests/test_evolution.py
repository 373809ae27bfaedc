"""Linear and nonlinear renormalized-flow integration."""

import numpy as np
import pytest
import scipy.linalg

from ksmode import evolution, operators, profile, spectra
from ksmode.radial import RadialFunction, make_grid


@pytest.fixture(scope="module")
def grid():
    return make_grid(300, 40.0, "uniform")


@pytest.fixture(scope="module")
def op0(grid):
    return operators.assemble_Ll(0, grid)


@pytest.fixture(scope="module")
def proj0(grid, op0):
    return spectra.build_projection(0, [spectra.mode_report(op0, -1.0, 0)], op0)


class TestLinear:
    def test_scaling_mode_growth_rate(self, grid, op0):
        tr = evolution.linear_evolve(
            0, RadialFunction(grid, profile.lambda_q(grid.nodes)), 0.01, 3.0,
            op=op0)
        assert abs(evolution.fit_rate(tr) - 1.0) <= 0.02

    def test_translation_mode_growth_rate(self, grid):
        op1 = operators.assemble_Ll(1, grid)
        tr = evolution.linear_evolve(
            1, RadialFunction(grid, profile.q_deriv(grid.nodes, 1)), 0.01,
            3.0, op=op1)
        assert abs(evolution.fit_rate(tr) - 0.5) <= 0.02

    def test_stable_projected_data_decays(self, grid, op0, proj0):
        eps0 = np.real(proj0.project_stable(np.exp(-grid.nodes ** 2)))
        tr = evolution.linear_evolve(0, RadialFunction(grid, eps0), 0.01, 6.0,
                                     op=op0, projection=proj0)
        assert evolution.fit_rate(tr, (1.0, 6.0)) < 0.0

    def test_step_amplification_matches_eigenvalue(self, grid, op0, proj0):
        # Crank-Nicolson amplifies each discrete eigenpair coefficient by
        # (1 - dt lam/2)/(1 + dt lam/2) per step
        lam = spectra.mode_report(op0, -1.0, 0).lam.real
        dt = 0.01
        mode = np.real(proj0.right_modes[:, 0])
        tr = evolution.linear_evolve(0, RadialFunction(grid, mode), dt, 0.5,
                                     op=op0, projection=proj0)
        coeffs = np.real(tr.mode_coeffs[:, 0])
        expected = (1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)
        ratios = coeffs[1:] / coeffs[:-1]
        assert np.max(np.abs(ratios - expected)) < 1e-6

    def test_coefficient_evolution_commutes_with_flow(self, grid, op0, proj0):
        lam = spectra.mode_report(op0, -1.0, 0).lam.real
        mode = np.real(proj0.right_modes[:, 0])
        tr = evolution.linear_evolve(0, RadialFunction(grid, mode), 0.01, 2.0,
                                     op=op0, projection=proj0)
        coeffs = np.real(tr.mode_coeffs[:, 0])
        target = coeffs[0] * np.exp(-lam * tr.times)
        assert np.max(np.abs(coeffs - target) / target) < 1e-4

    def test_large_step_rejected(self, grid, op0):
        with pytest.raises(ValueError):
            evolution.linear_evolve(
                0, RadialFunction(grid, profile.lambda_q(grid.nodes)), 0.1,
                1.0, op=op0)

    def test_rate_refinement_consistency(self, grid, op0):
        # doubling n moves the fitted rate by less than its tolerance
        rates = []
        for g in (grid, make_grid(600, 40.0, "uniform")):
            tr = evolution.linear_evolve(
                0, RadialFunction(g, profile.lambda_q(g.nodes)), 0.01, 3.0)
            rates.append(evolution.fit_rate(tr))
        assert abs(rates[0] - rates[1]) <= 0.02


class TestStepRule:
    def test_step_count(self):
        assert evolution.step_count(0.01, 5.0) == 500
        assert evolution.step_count(0.00125, 0.5) == 400

    @pytest.mark.parametrize("dt, horizon", [(0.01, 0.015), (0.01, 0.005),
                                             (0.1, 1.0), (0.0, 1.0),
                                             (0.01, np.inf)])
    def test_bad_step_rejected(self, dt, horizon):
        with pytest.raises(ValueError):
            evolution.step_count(dt, horizon)

    @pytest.mark.parametrize("dt, horizon", [(0.01, 0.015), (0.1, 1.0)])
    def test_both_flows_apply_the_step_rule(self, grid, op0, dt, horizon):
        psi = RadialFunction(grid, profile.q(grid.nodes))
        with pytest.raises(ValueError):
            evolution.linear_evolve(0, psi, dt, horizon, op=op0)
        with pytest.raises(ValueError):
            evolution.nonlinear_radial_evolve(psi, dt, horizon)

    def test_every_implicit_solve_is_checked(self, grid, monkeypatch):
        calls = {"solve": 0, "check": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "lu_solve",
                            counted("solve", scipy.linalg.lu_solve))
        monkeypatch.setattr(evolution, "_check_solve",
                            counted("check", evolution._check_solve))
        evolution.nonlinear_radial_evolve(
            RadialFunction(grid, profile.q(grid.nodes)), 0.01, 0.05)
        assert calls["solve"] == calls["check"] == 6


class TestNonlinearTerm:
    def test_zero(self, grid):
        out = evolution.nonlinear_term(RadialFunction(grid, np.zeros(grid.n)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_expanded_form_oracle(self):
        errs = []
        for n in (300, 600):
            g = make_grid(n, 40.0, "uniform")
            r = g.nodes
            out = evolution.nonlinear_term(RadialFunction(g, profile.q(r)))
            expanded = profile.q(r) ** 2 \
                + profile.q_deriv(r, 1) * profile.d2inv_q_closed(r)
            errs.append(np.max(np.abs(out.values - expanded)[:-1]))
        assert errs[1] < 0.35 * errs[0]

    def test_quadratic_homogeneity(self, grid):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid.n)
        once = evolution.nonlinear_term(RadialFunction(grid, vals)).values
        scaled = evolution.nonlinear_term(RadialFunction(grid, 2.0 * vals)).values
        assert np.max(np.abs(scaled - 4.0 * once)) < 1e-12 * np.max(np.abs(scaled))


class TestNonlinearFlow:
    def test_profile_is_quasi_steady(self, grid):
        r = grid.nodes
        qv = profile.q(r)
        dt = 0.01
        tr = evolution.nonlinear_radial_evolve(RadialFunction(grid, qv), dt,
                                               5.0, keep_states=True)
        w = operators.r2_mass_weights(grid)
        qn = np.sqrt(np.sum(w * qv ** 2))
        drift = max(np.sqrt(np.sum(w * (s - qv) ** 2)) for s in tr.states) / qn
        h = r[1] - r[0]
        assert drift <= 10.0 * (h * h + dt * dt)
        assert tr.boundary_flag  # profile tails shed through the boundary

    def test_discrete_steady_profile_is_fixed_point(self, grid):
        qh = evolution.discrete_steady_profile(grid)
        assert np.max(np.abs(qh - profile.q(grid.nodes))) < 0.2
        tr = evolution.nonlinear_radial_evolve(RadialFunction(grid, qh), 0.01,
                                               1.0, keep_states=True)
        drift = np.max(np.abs(tr.states[-1] - qh))
        assert drift < 1e-12

    def test_scheme_order_against_reference(self, grid):
        # one fixed state, horizon 0.5: halving dt cuts the error ~4x
        r = grid.nodes
        psi0 = RadialFunction(grid, profile.q(r) + 0.05 * np.exp(-(r - 4.0) ** 2))
        ref = evolution.nonlinear_radial_evolve(psi0, 0.00125, 0.5,
                                                keep_states=True).states[-1]
        errs = []
        for dt in (0.02, 0.01, 0.005):
            out = evolution.nonlinear_radial_evolve(psi0, dt, 0.5,
                                                    keep_states=True).states[-1]
            errs.append(np.max(np.abs(out - ref)))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.0)

    def test_unstable_amplitude_grows_at_unit_rate(self, grid):
        # deviation measured from the discrete steady state, whose flow is
        # stationary, so the coefficient isolates the scaling instability;
        # the fitted rate cross-checks the linearized prediction
        qh = evolution.discrete_steady_profile(grid)
        opf = evolution.flow_linearization(grid, qh)
        projf = spectra.build_projection(
            0, [spectra.mode_report(opf, -1.0, 0)], opf)
        amp = 1e-3
        mode = np.real(projf.right_modes[:, 0])
        psi0 = RadialFunction(grid, qh + amp * mode)
        tr = evolution.nonlinear_radial_evolve(psi0, 0.01, 2.0, keep_states=True)
        coeffs = np.array([np.real(projf.coefficients(s - qh)[0])
                           for s in tr.states])
        rate = np.polyfit(tr.times, np.log(np.abs(coeffs)), 1)[0]
        assert abs(rate - 1.0) <= 0.05

    def test_negativity_guard(self, grid):
        r = grid.nodes
        bad = profile.q(r) - 8.0 * np.exp(-(r - 3.0) ** 2)
        with pytest.raises(evolution.EvolutionError) as err:
            evolution.nonlinear_radial_evolve(RadialFunction(grid, bad), 0.01,
                                              2.0)
        assert err.value.state is not None


class TestPartialMass:
    def test_profile_defect_within_scheme_order(self, grid):
        qv = profile.q(grid.nodes)
        defect = evolution.partial_mass_crosscheck(
            RadialFunction(grid, qv), 1e-3)
        m = evolution.partial_mass(RadialFunction(grid, qv))
        h = grid.nodes[1] - grid.nodes[0]
        assert defect <= 10.0 * (h * h + 1e-6) * np.max(np.abs(m))

    def test_zero_density(self, grid):
        defect = evolution.partial_mass_crosscheck(
            RadialFunction(grid, np.zeros(grid.n)), 1e-3)
        assert defect == 0.0

    def test_perturbed_profile_same_order(self, grid):
        r = grid.nodes
        psi = RadialFunction(grid, profile.q(r) + 0.05 * np.exp(-(r - 4.0) ** 2))
        defect = evolution.partial_mass_crosscheck(psi, 1e-3)
        m = evolution.partial_mass(psi)
        h = r[1] - r[0]
        assert defect <= 10.0 * (h * h + 1e-6) * np.max(np.abs(m))


@pytest.fixture(scope="module")
def shooting_setup(grid):
    qh = evolution.discrete_steady_profile(grid)
    opf = evolution.flow_linearization(grid, qh)
    projf = spectra.build_projection(
        0, [spectra.mode_report(opf, -1.0, 0)], opf)
    return qh, projf


class TestShooting:
    def test_zero_perturbation_matches_zero_amplitude(self, grid, shooting_setup):
        qh, projf = shooting_setup
        res = evolution.shoot_stable_manifold(
            RadialFunction(grid, np.zeros(grid.n)), (-2e-3, 2e-3), projf,
            dt=0.02, horizon=4.0, base_profile=qh)
        assert abs(res.a_star) <= 1e-8 * 4e-3 * 10.0
        assert res.departure_sign_low != res.departure_sign_high

    def test_invalid_bracket_rejected(self, grid, shooting_setup):
        qh, projf = shooting_setup
        with pytest.raises(ValueError):
            evolution.shoot_stable_manifold(
                RadialFunction(grid, np.zeros(grid.n)), (1e-3, 2e-3), projf,
                dt=0.02, horizon=4.0, base_profile=qh)

    def test_matched_run_relaxes_to_profile(self, grid, shooting_setup):
        # at the matched amplitude the stably perturbed flow decays back
        qh, projf = shooting_setup
        w = operators.r2_mass_weights(grid)
        bump = np.real(projf.project_stable(
            np.exp(-(grid.nodes - 4.0) ** 2)))
        bump *= 1e-3 / np.sqrt(np.sum(w * bump ** 2))
        res = evolution.shoot_stable_manifold(
            RadialFunction(grid, bump), (-4e-3, 4e-3), projf, dt=0.02,
            horizon=6.0, base_profile=qh)
        assert res.converged
        lam_q = profile.lambda_q(grid.nodes)
        lam_q = lam_q / np.sqrt(np.sum(w * lam_q ** 2))
        tr = evolution.nonlinear_radial_evolve(
            RadialFunction(grid, qh + bump + res.a_star * lam_q), 0.02, 6.0,
            keep_states=True)
        devs = np.array([np.sqrt(np.sum(w * (s - qh) ** 2))
                         for s in tr.states])
        window = (tr.times >= 1.0) & (tr.times <= 6.0)
        assert devs[window][-1] < devs[window][0]
        assert np.polyfit(tr.times[window], np.log(devs[window]), 1)[0] < 0.0
