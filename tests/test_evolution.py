"""Linear and nonlinear renormalized-flow integration."""

import numpy as np
import pytest
import scipy.linalg

from ksmode import evolution, operators, profile, spectra
from ksmode.radial import RadialFunction, make_grid, panel_coefficients


@pytest.fixture(scope="module")
def grid():
    return make_grid(300, 40.0, "uniform")


@pytest.fixture(scope="module")
def op0(grid):
    return operators.assemble_Ll(0, grid)


@pytest.fixture(scope="module")
def proj0(grid, op0):
    return spectra.build_projection(op0, -1.0)


class TestLinear:
    def test_scaling_mode_growth_rate(self, grid, op0):
        tr = evolution.linear_evolve(
            op0, RadialFunction(grid, profile.lambda_q(grid.nodes)), 0.01, 3.0)
        assert abs(evolution.fit_rate(tr) - 1.0) <= 0.02

    def test_translation_mode_growth_rate(self, grid):
        op1 = operators.assemble_Ll(1, grid)
        tr = evolution.linear_evolve(
            op1, RadialFunction(grid, profile.q_deriv(grid.nodes, 1)), 0.01, 3.0)
        assert abs(evolution.fit_rate(tr) - 0.5) <= 0.02

    def test_stable_projected_data_decays(self, grid, op0, proj0):
        eps0 = np.real(proj0.project_stable(np.exp(-grid.nodes ** 2)))
        tr = evolution.linear_evolve(op0, RadialFunction(grid, eps0), 0.01, 6.0,
                                     projection=proj0)
        assert evolution.fit_rate(tr, (1.0, 6.0)) < 0.0

    def test_step_amplification_matches_eigenvalue(self, grid, op0, proj0):
        # Crank-Nicolson amplifies each discrete eigenpair coefficient by
        # (1 - dt lam/2)/(1 + dt lam/2) per step
        lam = proj0.lam.real
        dt = 0.01
        mode = np.real(proj0.right)
        tr = evolution.linear_evolve(op0, RadialFunction(grid, mode), dt, 0.5,
                                     projection=proj0)
        assert tr.mode_coeffs.shape == tr.times.shape
        coeffs = np.real(tr.mode_coeffs)
        expected = (1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)
        ratios = coeffs[1:] / coeffs[:-1]
        assert np.max(np.abs(ratios - expected)) < 1e-6

    def test_coefficient_evolution_commutes_with_flow(self, grid, op0, proj0):
        lam = proj0.lam.real
        mode = np.real(proj0.right)
        tr = evolution.linear_evolve(op0, RadialFunction(grid, mode), 0.01, 2.0,
                                     projection=proj0)
        coeffs = np.real(tr.mode_coeffs)
        target = coeffs[0] * np.exp(-lam * tr.times)
        assert np.max(np.abs(coeffs - target) / target) < 1e-4

    def test_large_step_rejected(self, grid, op0):
        with pytest.raises(ValueError):
            evolution.linear_evolve(
                op0, RadialFunction(grid, profile.lambda_q(grid.nodes)), 0.1, 1.0)

    def test_rate_refinement_consistency(self, grid, op0):
        # doubling n moves the fitted rate by less than its tolerance
        rates = []
        for g in (grid, make_grid(600, 40.0, "uniform")):
            tr = evolution.linear_evolve(
                operators.assemble_Ll(0, g),
                RadialFunction(g, profile.lambda_q(g.nodes)), 0.01, 3.0)
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
            evolution.linear_evolve(op0, psi, dt, horizon)
        with pytest.raises(ValueError):
            evolution.nonlinear_radial_evolve(psi, dt, horizon)

    def test_every_implicit_solve_is_checked(self, grid, op0, monkeypatch):
        # the nonlinear flow steps the banded IMEX matrix, never a dense LU
        calls = _count_solves(monkeypatch)
        _five_steps("nonlinear", grid, op0)
        assert calls == {"banded": 6, "dense": 0, "check": 6}

    def test_every_dense_solve_is_checked(self, grid, op0, monkeypatch):
        calls = _count_solves(monkeypatch)
        _five_steps("linear", grid, op0)
        assert calls == {"banded": 0, "dense": 5, "check": 5}

    @pytest.mark.parametrize("flow, owner, name", [
        ("nonlinear", operators.BandMatrix, "solve"),
        ("linear", scipy.linalg, "lu_solve")], ids=["banded", "dense"])
    def test_corrupted_solve_fails_the_defect_guard(self, grid, op0,
                                                    monkeypatch, flow, owner,
                                                    name):
        solver = getattr(owner, name)

        def off(*args, **kwargs):
            return (1.0 + 1e-6) * solver(*args, **kwargs)

        monkeypatch.setattr(owner, name, off)
        with pytest.raises(evolution.EvolutionError, match="solve defect"):
            _five_steps(flow, grid, op0)

    @pytest.mark.parametrize("flow", ["nonlinear", "linear"])
    def test_trace_records_the_largest_solve_defect(self, grid, op0,
                                                    monkeypatch, flow):
        seen = []
        check = evolution._check_solve

        def recorded(*args):
            defect = check(*args)
            seen.append(float(np.max(defect)))
            return defect

        monkeypatch.setattr(evolution, "_check_solve", recorded)
        tr = _five_steps(flow, grid, op0)
        assert tr.max_solve_defect == max(seen)
        assert 0.0 < tr.max_solve_defect <= evolution._SOLVE_TOL


def _count_solves(monkeypatch) -> dict:
    """Count banded solves, dense LU solves and solve checks from now on."""
    calls = {"banded": 0, "dense": 0, "check": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators.BandMatrix, "solve",
                        counted("banded", operators.BandMatrix.solve))
    monkeypatch.setattr(scipy.linalg, "lu_solve",
                        counted("dense", scipy.linalg.lu_solve))
    monkeypatch.setattr(evolution, "_check_solve",
                        counted("check", evolution._check_solve))
    return calls


def _five_steps(flow, grid, op0):
    """Five steps of dt = 0.01 from Q, nonlinear (banded) or linear (dense)."""
    psi = RadialFunction(grid, profile.q(grid.nodes))
    if flow == "nonlinear":
        return evolution.nonlinear_radial_evolve(psi, 0.01, 0.05)
    return evolution.linear_evolve(op0, psi, 0.01, 0.05)


class TestBandedStepper:
    @pytest.fixture(scope="class")
    def imex(self, grid):
        return operators.local_band(0, grid, zero_profile=True)

    def test_imex_operator_is_banded_and_l0_is_dense(self, grid, imex, op0):
        # the stepper's band is the matrix discrete_steady_profile solves with
        assert np.array_equal(imex.toarray(), operators.assemble_Ll(
            0, grid, zero_profile=True).entries)
        assert scipy.linalg.bandwidth(imex.toarray()) == (1, 2)
        assert isinstance(evolution._crank_nicolson(imex, 0.01)[0],
                          operators.BandMatrix)
        assert isinstance(evolution._crank_nicolson(op0.entries, 0.01)[0],
                          np.ndarray)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_step_matches_dense_solve(self, grid, imex, complex_data):
        dt = 0.01
        a = imex.toarray()
        rng = np.random.default_rng(2)
        y = rng.standard_normal(grid.n)
        if complex_data:
            y = y + 1j * rng.standard_normal(grid.n)
        explicit, solve = evolution._crank_nicolson(imex, dt)
        step, _, _ = solve(explicit @ y)
        eye = np.eye(grid.n)
        dense = np.linalg.solve(eye + 0.5 * dt * a, (eye - 0.5 * dt * a) @ y)
        assert step.dtype == dense.dtype
        assert np.max(np.abs(step - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_linear_flow_takes_complex_data_on_the_band(self, grid, imex):
        # gbtrs is typed, so complex rows reach it as their real and
        # imaginary parts; neither may be dropped
        explicit, solve = evolution._crank_nicolson(imex, 0.01)
        qv = profile.q(grid.nodes)
        factors = np.array([1 + 2j, 3 - 1j])
        real_half, cplx_half = explicit @ qv, explicit @ (factors[:, None] * qv)
        for _ in range(10):
            x_real, real_half, _ = solve(real_half)
            x, cplx_half, _ = solve(cplx_half)
            assert np.iscomplexobj(x) and x.shape == (2, grid.n)
            err = np.max(np.abs(x - factors[:, None] * x_real))
            assert err <= 1e-13 * np.max(np.abs(x_real))


class TestRowBatch:
    """A stack of states steps row by row: each row gets its lone bits."""

    @pytest.fixture(scope="class")
    def stack(self, grid):
        rng = np.random.default_rng(3)
        return profile.q(grid.nodes) * (1.0 + 0.1 * rng.standard_normal((4, grid.n)))

    def test_each_kernel_acts_row_by_row(self, grid, stack):
        a = operators.local_band(0, grid, zero_profile=True)
        explicit, solve = evolution._crank_nicolson(a, 0.01)
        flux = evolution.FluxGeometry(grid)
        w = operators.r2_mass_weights(grid)
        batched = {"solve": solve(stack)[0], "matvec": explicit @ stack,
                   "flux": evolution._nl_rhs(stack, flux),
                   "mass": flux.mass(stack),
                   "norm": np.sqrt(np.sum(w * stack ** 2, axis=-1))}
        for i, row in enumerate(stack):
            alone = {"solve": solve(row)[0], "matvec": explicit @ row,
                     "flux": evolution._nl_rhs(row, flux),
                     "mass": flux.mass(row),
                     "norm": np.sqrt(np.sum(w * row ** 2))}
            for key, value in alone.items():
                assert np.array_equal(batched[key][i], value), key

    def test_rows_retire_and_match_their_single_runs(self, grid):
        # row 0 sits at the steady state to the horizon, row 1 (2 Q) fails
        # the negativity guard mid-run, rows 2 and 3 leave their tubes early
        # on opposite sides of the scaling direction
        qh = evolution.discrete_steady_profile(grid)
        projf = spectra.build_projection(
            evolution.flow_linearization(grid, qh), -1.0)
        w = operators.r2_mass_weights(grid)
        lam_q = profile.lambda_q(grid.nodes)
        lam_q /= np.sqrt(np.sum(w * lam_q ** 2))
        rows = np.array([qh, 2.0 * profile.q(grid.nodes), qh + 1e-3 * lam_q,
                         qh - 1e-3 * lam_q])
        tubes = np.array([1e-3, 1e3, 2e-3, 2e-3])
        dt = 0.02
        ref = evolution.nonlinear_radial_evolve(
            RadialFunction(grid, qh), dt, 1.0, keep_states=True).states
        run = evolution._ImexRows(grid, dt)
        batch = evolution._departures(run, rows, tubes, ref, projf)
        for i in range(4):
            assert batch[i] == evolution._departures(run, rows[i:i + 1],
                                                     tubes[i:i + 1], ref,
                                                     projf)[0]
        (_, tau_stay, _), (_, tau_neg, _), (sign_up, tau_exit, _), \
            (sign_down, _, _) = batch
        assert tau_stay is None
        with pytest.raises(evolution.EvolutionError) as err:
            evolution.nonlinear_radial_evolve(RadialFunction(grid, rows[1]),
                                              dt, 1.0)
        assert "negativity" in str(err.value)
        assert 0.0 < tau_neg == err.value.tau < tau_exit < 1.0
        assert sign_up == -sign_down

    def test_batched_states_equal_single_runs_bit_for_bit(self, grid):
        qv = profile.q(grid.nodes)
        rows = np.array([qv, 2.0 * qv, qv + 0.05 * np.exp(-grid.nodes)])
        batch = evolution._ImexRows(grid, 0.02).start(rows)
        alone = [evolution._ImexRows(grid, 0.02).start(row) for row in rows]
        live = [0, 1, 2]
        for _ in range(30):
            failed = batch.step()
            for i, j in enumerate(live):
                assert (i in failed) == bool(alone[j].step())
                assert np.array_equal(batch.psi[i], alone[j].psi[0])
                assert np.array_equal(batch.last[i], alone[j].last[0])
                assert batch.defect[i] == alone[j].defect[0]
            if failed:
                keep = np.array([i not in failed for i in range(len(live))])
                batch.keep(keep)
                live = [j for j, k in zip(live, keep) if k]
        assert live == [0, 2]   # 2 Q failed the negativity guard

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_start_takes_any_layout_of_the_stack(self, grid, stack, layout):
        # start copies the stack into fresh C-ordered rows, so its layout
        # cannot change a bit
        given = {"C": stack, "F": np.asfortranarray(stack),
                 "strided": np.repeat(stack, 2, axis=1)[:, ::2]}[layout]
        assert np.array_equal(given, stack)
        batch = evolution._ImexRows(grid, 0.01).start(given)
        alone = [evolution._ImexRows(grid, 0.01).start(row) for row in stack]
        for _ in range(5):
            assert not batch.step()
            for i, run in enumerate(alone):
                assert not run.step()
                assert batch.psi[i].tobytes() == run.psi[0].tobytes()
                assert batch.defect[i] == run.defect[0]

    def test_rows_stay_c_contiguous(self, grid, stack):
        # gbtrs then reads the transposed stack as Fortran columns in place
        run = evolution._ImexRows(grid, 0.01).start(np.asfortranarray(stack))
        assert run.psi.flags.c_contiguous
        for k in range(6):
            run.step()
            assert run.psi.flags.c_contiguous
            if k == 2:
                run.keep(np.array([True, False, True, True]))
        assert run.psi.shape == (3, grid.n)

    def test_corrupted_row_trips_its_own_solve_guard(self, grid,
                                                     monkeypatch):
        # row 1 is a million times smaller than the others, so its defect
        # would vanish in a norm taken over the whole stack
        solver = operators.BandMatrix.solve

        def off(self, rhs):
            x = solver(self, rhs)
            x[1] *= 1.0 + 1e-6
            return x

        monkeypatch.setattr(operators.BandMatrix, "solve", off)
        qv = profile.q(grid.nodes)
        batch = evolution._ImexRows(grid, 0.01).start(
            np.array([qv, 1e-6 * qv, qv]))
        with pytest.raises(evolution.EvolutionError,
                           match="solve defect .* in row 1"):
            batch.step()

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nonfinite_row_leaves_every_other_row_alone(self, grid, bad, row):
        # no entry of a row is computed from another row, not even through
        # a zero weight, so a row of infs or NaNs cannot reach its neighbours
        qv = profile.q(grid.nodes)
        rows = np.array([qv, 0.5 * qv, qv + 0.05 * np.exp(-grid.nodes)])
        alone = {i: evolution._ImexRows(grid, 0.02).start(rows[i])
                 for i in range(3) if i != row}
        rows[row] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            batch = evolution._ImexRows(grid, 0.02).start(rows)
        for _ in range(10):
            with np.errstate(invalid="ignore", over="ignore"):
                assert row in batch.step()
            for i, run in alone.items():
                assert not run.step()
                assert batch.psi[i].tobytes() == run.psi[0].tobytes()
                assert batch.defect[i] == run.defect[0]


class TestOneProductPerStep:
    """A Crank-Nicolson solve hands back the explicit half of the next step,
    so each step applies the operator once."""

    @pytest.mark.parametrize("banded", [True, False], ids=["banded", "dense"])
    def test_solve_returns_the_product_of_its_solution(self, grid, op0, banded):
        a = (operators.local_band(0, grid, zero_profile=True) if banded
             else op0.entries)
        explicit, solve = evolution._crank_nicolson(a, 0.01)
        qv = profile.q(grid.nodes)
        for rhs in (qv, np.array([qv, 0.5 * qv])) if banded else (qv,):
            x, product, _ = solve(explicit @ rhs)
            assert np.array_equal(product, explicit @ x)

    def test_banded_step_makes_one_product(self, grid, monkeypatch):
        qv = profile.q(grid.nodes)
        run = evolution._ImexRows(grid, 0.01).start(np.array([qv, 0.5 * qv]))
        run.step()   # the first step also solves for its predictor
        calls = []
        product = operators.BandMatrix.__matmul__

        def counted(self, y):
            calls.append(y.shape)
            return product(self, y)

        monkeypatch.setattr(operators.BandMatrix, "__matmul__", counted)
        for _ in range(4):
            run.step()
        assert calls == [(2, grid.n)] * 4

    def test_dense_step_makes_one_product(self, grid, op0):
        class Counted(np.ndarray):
            calls = 0

            def __matmul__(self, other):
                Counted.calls += 1
                return np.asarray(self) @ other

        op = operators.OperatorMatrix(grid=grid, l=0,
                                      entries=op0.entries.view(Counted))
        psi = RadialFunction(grid, profile.q(grid.nodes))
        for steps in (5, 6):
            Counted.calls = 0
            evolution.linear_evolve(op, psi, 0.01, 0.01 * steps)
            assert Counted.calls == steps + 1   # one more starts the run


def _flux_term(values, grid):
    return evolution._nl_rhs(values, evolution.FluxGeometry(grid))


def _mass_oracle(psi, grid):
    """int_0^r psi s^2 ds with every grid quantity recomputed per call."""
    r1, r2 = grid.nodes[0], grid.nodes[1]
    b = (psi[1] - psi[0]) / (r2 * r2 - r1 * r1)
    a0 = psi[0] - b * r1 * r1
    origin = a0 * r1 ** 3.0 / 3.0 + b * r1 ** 5.0 / 5.0
    cu, cv = panel_coefficients(2.0, grid.nodes)
    out = np.empty(grid.n)
    out[0] = origin
    out[1:] = origin + np.cumsum(cu * psi[:-1] + cv * psi[1:])
    return out


def _flux_oracle(values, grid):
    """The flux term with every grid quantity recomputed per call."""
    psi = np.asarray(values)
    r = grid.nodes
    cum = _mass_oracle(psi, grid)
    mids = 0.5 * (r[:-1] + r[1:])
    u, v = r[:-1], r[1:]
    m0 = (mids ** 3 - u ** 3) / 3.0
    m1 = (mids ** 4 - u ** 4) / 4.0
    cv = (m1 - u * m0) / (v - u)
    cu = m0 - cv
    cum_mid = cum[:-1] + cu * psi[:-1] + cv * psi[1:]
    phi_mid = 0.5 * (psi[:-1] + psi[1:]) * cum_mid
    r_out = r[-1] + 0.5 * (r[-1] - r[-2])
    phi = np.concatenate(([0.0], phi_mid, [0.5 * psi[-1] * cum[-1]]))
    faces3 = np.concatenate(([0.0], mids ** 3, [r_out ** 3]))
    return 3.0 * np.diff(phi) / np.diff(faces3)


def _jacobian_oracle(base, flux):
    """The flux Jacobian one symmetric difference (two flux calls) a column."""
    n = base.size
    jac = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        jac[:, j] = 0.5 * (evolution._nl_rhs(base + e, flux)
                           - evolution._nl_rhs(base - e, flux))
        e[j] = 0.0
    return jac


class TestNonlinearTerm:
    @pytest.mark.parametrize("stretch", ["uniform", ("geometric", 1.01)],
                             ids=["uniform", "geometric"])
    def test_matches_per_call_formula_bit_for_bit(self, stretch):
        g = make_grid(300, 40.0, stretch)
        r = g.nodes
        flux = evolution.FluxGeometry(g)
        rng = np.random.default_rng(1)
        for vals in (profile.q(r), rng.standard_normal(g.n), np.exp(-r)):
            assert np.array_equal(flux.mass(vals), _mass_oracle(vals, g))
            assert np.array_equal(evolution._nl_rhs(vals, flux),
                                  _flux_oracle(vals, g))

    @pytest.mark.parametrize("stretch", ["uniform", ("geometric", 1.005)],
                             ids=["uniform", "geometric"])
    def test_batched_jacobian_equals_column_loop(self, stretch):
        g = make_grid(400, 40.0, stretch)
        flux = evolution.FluxGeometry(g)
        base = profile.q(g.nodes)
        assert np.array_equal(evolution._flux_jacobian(base, flux),
                              _jacobian_oracle(base, flux))

    def test_zero(self, grid):
        out = _flux_term(np.zeros(grid.n), grid)
        assert np.max(np.abs(out)) == 0.0

    def test_expanded_form_oracle(self):
        errs = []
        for n in (300, 600):
            g = make_grid(n, 40.0, "uniform")
            r = g.nodes
            out = _flux_term(profile.q(r), g)
            expanded = profile.q(r) ** 2 \
                + profile.q_deriv(r, 1) * profile.d2inv_q_closed(r)
            errs.append(np.max(np.abs(out - expanded)[:-1]))
        assert errs[1] < 0.35 * errs[0]

    def test_quadratic_homogeneity(self, grid):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid.n)
        once = _flux_term(vals, grid)
        scaled = _flux_term(2.0 * vals, grid)
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
        projf = spectra.build_projection(opf, -1.0)
        amp = 1e-3
        mode = np.real(projf.right)
        psi0 = RadialFunction(grid, qh + amp * mode)
        tr = evolution.nonlinear_radial_evolve(psi0, 0.01, 2.0, keep_states=True)
        coeffs = np.array([np.real(projf.coefficient(s - qh))
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
    projf = spectra.build_projection(opf, -1.0)
    return qh, projf


class TestShooting:
    def test_zero_perturbation_matches_zero_amplitude(self, grid, shooting_setup):
        qh, projf = shooting_setup
        (res,) = evolution.shoot_stable_manifold(
            [RadialFunction(grid, np.zeros(grid.n))], (-2e-3, 2e-3), projf,
            dt=0.02, horizon=4.0, base_profile=qh)
        assert abs(res.a_star) <= 1e-8 * 4e-3 * 10.0
        assert res.departure_sign_low != res.departure_sign_high

    def test_invalid_bracket_rejected(self, grid, shooting_setup):
        qh, projf = shooting_setup
        with pytest.raises(ValueError):
            evolution.shoot_stable_manifold(
                [RadialFunction(grid, np.zeros(grid.n))], (1e-3, 2e-3), projf,
                dt=0.02, horizon=4.0, base_profile=qh)

    def test_matched_run_relaxes_to_profile(self, grid, shooting_setup):
        # at the matched amplitude the stably perturbed flow decays back
        qh, projf = shooting_setup
        w = operators.r2_mass_weights(grid)
        bump = np.real(projf.project_stable(
            np.exp(-(grid.nodes - 4.0) ** 2)))
        bump *= 1e-3 / np.sqrt(np.sum(w * bump ** 2))
        (res,) = evolution.shoot_stable_manifold(
            [RadialFunction(grid, bump)], (-4e-3, 4e-3), projf, dt=0.02,
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

    def test_lockstep_equals_one_bisection_at_a_time(self, grid,
                                                     shooting_setup):
        qh, projf = shooting_setup
        bump = np.real(projf.project_stable(np.exp(-(grid.nodes - 4.0) ** 2)))
        bumps = [RadialFunction(grid, amp * bump) for amp in (1e-3, 3e-3)]

        def shoot(perturbations):
            return evolution.shoot_stable_manifold(
                perturbations, (-4e-3, 4e-3), projf, dt=0.02, horizon=2.0,
                base_profile=qh)

        together = shoot(bumps)
        assert together == [shoot([b])[0] for b in bumps]
        assert together[0] != together[1]

    def test_trail_walks_the_bisection(self, grid, shooting_setup):
        qh, projf = shooting_setup
        lo, hi = -2e-3, 2e-3
        (res,) = evolution.shoot_stable_manifold(
            [RadialFunction(grid, np.zeros(grid.n))], (lo, hi), projf,
            dt=0.02, horizon=2.0, base_profile=qh)
        ends, mids, last = res.trail[:2], res.trail[2:-1], res.trail[-1]
        assert ends == [(lo, res.departure_sign_low, ends[0][2]),
                        (hi, res.departure_sign_high, ends[1][2])]
        # each midpoint halves the bracket, keeping the end of its own sign
        for a, sign, _ in mids:
            assert a == 0.5 * (lo + hi)
            if sign == res.departure_sign_low:
                lo = a
            else:
                hi = a
        assert hi - lo == res.bracket_width
        assert last[0] == res.a_star == 0.5 * (lo + hi)
        assert (last[2] is None) == res.converged
        assert len(mids) == 27   # 2^-27 of the width is below 1e-8
        assert 0.0 < res.max_solve_defect <= evolution._SOLVE_TOL
