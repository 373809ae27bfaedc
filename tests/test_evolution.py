"""Linear and nonlinear renormalized-flow integration."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from ksmode import acceptance, evolution, operators, profile, spectra
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

    def test_rate_of_a_vanished_trace_rejected(self):
        # every norm underflowed to 0 (a tiny domain): no window to fit
        times = np.linspace(0.0, 1.0, 11)
        tr = evolution.EvolutionTrace(times=times, norms=np.zeros(11),
                                      mode_coeffs=None)
        with pytest.raises(evolution.EvolutionError, match="0 positive norms"):
            evolution.fit_rate(tr)
        tr.norms[3] = 1.0
        with pytest.raises(evolution.EvolutionError, match="1 positive norms"):
            evolution.fit_rate(tr)

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

    def test_norm_overflow_stops_the_flow(self, grid, op0, proj0):
        # the norm squares the state, so it overflows near |eps| ~ 1.3e154
        # while the state is still finite: the flow stops there and says so
        mode = np.real(proj0.right)
        mode *= 1e153 / np.max(np.abs(mode))
        with pytest.raises(evolution.EvolutionError,
                           match="norm overflow at tau") as err:
            evolution.linear_evolve(op0, RadialFunction(grid, mode), 0.01, 4.0,
                                    projection=proj0)
        assert 0.0 < err.value.tau < 4.0
        assert np.all(np.isfinite(err.value.state))

    def test_block_steps_match_the_per_step_solve(self, grid, op0, proj0):
        # eps_{k+1} = 2 (I + dt/2 A)^{-1} eps_k - eps_k is the Crank-Nicolson
        # step (I + dt/2 A)^{-1} (I - dt/2 A) eps_k up to round-off
        dt, steps = 0.01, 2 * evolution._CHECK_BLOCK + 10
        eps = np.real(proj0.project_stable(np.exp(-grid.nodes ** 2)))
        eps += 0.1 * np.real(proj0.right)
        tr = evolution.linear_evolve(op0, RadialFunction(grid, eps), dt,
                                     dt * steps, projection=proj0)
        eye = np.eye(grid.n)
        lu = scipy.linalg.lu_factor(eye + 0.5 * dt * op0.entries)
        explicit = eye - 0.5 * dt * op0.entries
        norms, coeffs = [grid.norm(eps)], [proj0.coefficient(eps)]
        for _ in range(steps):
            eps = scipy.linalg.lu_solve(lu, explicit @ eps)
            norms.append(grid.norm(eps))
            coeffs.append(proj0.coefficient(eps))
        assert np.max(np.abs(tr.norms / norms - 1.0)) <= 1e-13
        assert np.max(np.abs(tr.mode_coeffs / coeffs - 1.0)) <= 1e-13

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

    def test_trace_too_long_to_store_rejected(self, grid):
        limit = evolution._MAX_TRACE_VALUES
        assert evolution.step_count(1.0 / 64, (limit - 1) / 64) == limit - 1
        with pytest.raises(ValueError, match="limit"):
            evolution.step_count(1.0 / 64, limit / 64)
        with pytest.raises(ValueError, match="limit"):
            evolution.step_count(0.05, 1e12)
        # the nonlinear flow stores every state: grid.n values a step
        psi = RadialFunction(grid, profile.q(grid.nodes))
        with pytest.raises(ValueError, match="limit"):
            evolution.nonlinear_radial_evolve(psi, 1.0 / 64,
                                              limit // grid.n / 64)

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
        # one LU solve a step, and a defect row checked for every step
        calls = _count_solves(monkeypatch)
        _five_steps("linear", grid, op0)
        assert calls == {"banded": 0, "dense": 5, "check": 5}

    @pytest.mark.parametrize("flow, owner, name", [
        ("nonlinear", operators.BandMatrix, "solve"),
        ("linear", operators.DenseLU, "solve")], ids=["banded", "dense"])
    def test_corrupted_solve_fails_the_defect_guard(self, grid, op0,
                                                    monkeypatch, flow, owner,
                                                    name):
        solver = getattr(owner, name)

        def off(*args, **kwargs):
            return (1.0 + 1e-6) * solver(*args, **kwargs)

        monkeypatch.setattr(owner, name, off)
        with pytest.raises(evolution.EvolutionError, match="solve defect"):
            _five_steps(flow, grid, op0)

    def test_first_failing_dense_step_raises(self, grid, op0, proj0,
                                             monkeypatch):
        # the solves are checked a block at a time; the first bad step in
        # step order raises, also ahead of a norm overflow later in its block
        solver = operators.DenseLU.solve
        calls, bad = [], set()

        def off(*args, **kwargs):
            calls.append(None)
            return (1.0 + 1e-6 * (len(calls) in bad)) * solver(*args, **kwargs)

        monkeypatch.setattr(operators.DenseLU, "solve", off)
        psi = RadialFunction(grid, profile.q(grid.nodes))
        bad.update((100, 120))
        with pytest.raises(evolution.EvolutionError,
                           match="in row 35 of the steps from tau = 0.650$") as err:
            evolution.linear_evolve(op0, psi, 0.01, 2.0)
        assert err.value.tau == 0.64
        # the norm overflows at step 53; the bad solve of step 40, in the
        # same block, raises instead
        mode = np.real(proj0.right)
        mode *= 1e153 / np.max(np.abs(mode))
        huge = RadialFunction(grid, mode)
        calls.clear()
        bad.clear()
        with pytest.raises(evolution.EvolutionError, match="norm overflow") as err:
            evolution.linear_evolve(op0, huge, 0.05, 4.0)
        assert err.value.tau == 0.05 * 53
        calls.clear()
        bad.add(40)
        with pytest.raises(evolution.EvolutionError,
                           match="in row 39 of the steps from tau = 0.050$"):
            evolution.linear_evolve(op0, huge, 0.05, 4.0)
        # from step 41 the plain sums of squares of the check overflow; the
        # rows are measured again scaled, so a bad solve still raises, up to
        # the solve of step 53, which is checked before its norm overflow
        for step in range(41, 54):
            calls.clear()
            bad.clear()
            bad.add(step)
            with pytest.raises(evolution.EvolutionError,
                               match=f"solve defect .* in row {step - 1} of "
                                     "the steps from tau = 0.050$"):
                evolution.linear_evolve(op0, huge, 0.05, 4.0)

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
    """Count banded solves, dense LU solves and checked solve rows (one per
    solved state) from now on."""
    calls = {"banded": 0, "dense": 0, "check": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += len(np.atleast_2d(args[0])) if key == "check" else 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators.BandMatrix, "solve",
                        counted("banded", operators.BandMatrix.solve))
    monkeypatch.setattr(operators.DenseLU, "solve",
                        counted("dense", operators.DenseLU.solve))
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

    def test_imex_operator_is_banded_and_l0_is_dense(self, grid, imex, op0,
                                                     monkeypatch):
        assert scipy.linalg.bandwidth(imex.toarray()) == (1, 2)
        assert isinstance(evolution._crank_nicolson(imex, 0.01)[0],
                          operators.BandMatrix)
        # the linear flow of L_0 factors one dense n x n matrix
        shapes = []
        factor = operators.DenseLU.__init__
        monkeypatch.setattr(operators.DenseLU, "__init__", lambda self, a, *args:
                            shapes.append(np.shape(a)) or factor(self, a, *args))
        _five_steps("linear", grid, op0)
        assert shapes == [(grid.n, grid.n)]

    def test_step_matches_dense_solve(self, grid, imex):
        dt = 0.01
        a = imex.toarray()
        y = np.random.default_rng(2).standard_normal(grid.n)
        explicit, solve = evolution._crank_nicolson(imex, dt)
        step, _, _ = solve(explicit @ y)
        eye = np.eye(grid.n)
        dense = np.linalg.solve(eye + 0.5 * dt * a, (eye - 0.5 * dt * a) @ y)
        assert step.dtype == dense.dtype
        assert np.max(np.abs(step - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_complex_data_on_the_real_band_is_refused(self, grid, imex):
        # gbtrs is typed: on a real factor it would drop the imaginary part
        explicit, solve = evolution._crank_nicolson(imex, 0.01)
        rhs = explicit @ profile.q(grid.nodes) * (1 + 2j)
        with pytest.raises(TypeError, match="complex"):
            solve(rhs)


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
        batched = {"solve": solve(stack)[0], "matvec": explicit @ stack,
                   "flux": evolution._nl_rhs(stack, flux),
                   "mass": flux.mass(stack),
                   "norm": grid.norm(stack)}
        for i, row in enumerate(stack):
            alone = {"solve": solve(row)[0], "matvec": explicit @ row,
                     "flux": evolution._nl_rhs(row, flux),
                     "mass": flux.mass(row),
                     "norm": grid.norm(row)}
            for key, value in alone.items():
                assert np.array_equal(batched[key][i], value), key

    def test_rows_retire_and_match_their_single_runs(self, grid):
        # row 0 sits at the steady state to the horizon, row 1 (2 Q) fails
        # the negativity guard mid-run, rows 2 and 3 leave their tubes early
        # on opposite sides of the scaling direction
        qh, opf = evolution.discrete_steady_profile(grid)
        projf = spectra.build_projection(opf, -1.0)
        lam_q = profile.lambda_q(grid.nodes)
        lam_q /= grid.norm(lam_q)
        rows = np.array([qh, 2.0 * profile.q(grid.nodes), qh + 1e-3 * lam_q,
                         qh - 1e-3 * lam_q])
        tubes = np.array([1e-3, 1e3, 2e-3, 2e-3])
        dt = 0.02
        ref = evolution.nonlinear_radial_evolve(
            RadialFunction(grid, qh), dt, 1.0).states
        run = evolution._ImexRows(grid, dt)
        batch = evolution._departures(run, rows, tubes, ref, projf)
        for i in range(4):
            assert batch[i] == evolution._departures(run, rows[i:i + 1],
                                                     tubes[i:i + 1], ref,
                                                     projf)[0]
        (_, _, tau_stay, _), (_, _, tau_neg, _), \
            (sign_up, coef_up, tau_exit, _), (sign_down, coef_down, _, _) = batch
        assert tau_stay is None
        # the sign is the coefficient's
        assert sign_up == np.sign(coef_up) and sign_down == np.sign(coef_down)
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

    def test_guard_fast_path_returns_the_full_guards_failures(self, grid):
        # a step whose entries all lie in [0, the smallest blowup bound]
        # skips the guards; any other step runs them in full, so a mixed
        # stack returns exactly their failures
        def guards(new, scale0, tau):
            scale = np.max(np.abs(new), axis=-1)
            low = np.min(new, axis=-1)
            negative = low < -evolution._NEGATIVITY_TOL * np.maximum(scale,
                                                                     scale0)
            blowup = ~np.isfinite(scale) | (scale > 1e6 * np.maximum(scale0,
                                                                      1.0))
            failures = {int(i): f"norm blowup at tau = {tau:.3f}"
                        for i in np.flatnonzero(blowup)}
            failures.update({int(i): f"density negativity {low[i]:.2e} at "
                             f"tau = {tau:.3f}" for i in np.flatnonzero(negative)})
            return failures

        # a nonnegative row, one driven negative and one non-finite, and
        # the stacks of the first row with each other one
        qv = profile.q(grid.nodes)
        rows = np.array([qv, qv - 0.1 * np.exp(-(grid.nodes - 10.0) ** 2), qv])
        rows[2, 5] = np.inf
        for keep in ([0, 1, 2], [0, 1], [0, 2], [0]):
            with np.errstate(invalid="ignore", over="ignore"):
                batch = evolution._ImexRows(grid, 0.01).start(rows[keep])
                for k in range(1, 4):
                    failed = batch.step()
                    assert failed == guards(batch.psi, batch.scale0, 0.01 * k)
                    assert set(failed) == set(range(1, len(keep)))

    def test_emptied_stack_still_steps(self, grid, stack):
        run = evolution._ImexRows(grid, 0.01).start(stack)
        run.step()
        run.keep(np.zeros(len(stack), dtype=bool))
        for _ in range(2):
            assert run.step() == {}
        assert run.psi.shape == (0, grid.n) and run.defect.shape == (0,)


class TestOneProductPerStep:
    """A Crank-Nicolson solve hands back the explicit half of the next step,
    so each step applies the operator once."""

    def test_banded_solve_returns_the_product_of_its_solution(self, grid):
        a = operators.local_band(0, grid, zero_profile=True)
        explicit, solve = evolution._crank_nicolson(a, 0.01)
        qv = profile.q(grid.nodes)
        for rhs in (qv, np.array([qv, 0.5 * qv])):
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

    def test_dense_steps_make_one_product_per_block(self, grid, op0,
                                                    monkeypatch):
        # a dense step is one LU solve; (I - dt/2 A) is applied once per
        # block of steps, to the block's solutions, for their defect rows
        dt = 0.01
        explicit = np.eye(grid.n) - 0.5 * dt * op0.entries
        checks = []
        check = evolution._check_solve

        def recorded(x, product, rhs, lhs_norm):
            checks.append(len(x))
            assert np.array_equal(product, x @ explicit.T)
            return check(x, product, rhs, lhs_norm)

        monkeypatch.setattr(evolution, "_check_solve", recorded)
        psi = RadialFunction(grid, profile.q(grid.nodes))
        block = evolution._CHECK_BLOCK
        for steps, rows in ((5, [5]), (6, [6]),
                            (2 * block + 2, [block, block, 2])):
            checks.clear()
            evolution.linear_evolve(op0, psi, dt, dt * steps)
            assert checks == rows


def _flux_term(values, grid):
    return evolution._nl_rhs(values, evolution.FluxGeometry(grid))


def _mass_oracle(psi, grid):
    """int_0^r psi s^2 ds with every grid quantity recomputed per call."""
    r1, r2 = grid.nodes[0], grid.nodes[1]
    # the even-quadratic origin panel as weights on psi_1 and psi_2
    w1 = -2.0 * r1 ** 5.0 / (3.0 * 5.0 * (r2 * r2 - r1 * r1))
    w0 = r1 ** 3.0 / 3.0 - w1
    origin = w0 * psi[0] + w1 * psi[1]
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
                                               5.0)
        drift = max(grid.norm(s - qv) for s in tr.states) / grid.norm(qv)
        h = r[1] - r[0]
        assert drift <= 10.0 * (h * h + dt * dt)

    def test_steady_drift_holds_no_trace_sized_temporary(self, traced_peak):
        # 2,001 states at n = 400: the drift and the trace's norms are taken
        # over blocks of rows, so the peak stays near the stored trace
        grid = make_grid(400, 40.0, "uniform")
        (check, tr), _, peak = traced_peak(
            lambda: acceptance.steady_drift_check(grid, 0.01, 20.0), grid.n,
            warmup=lambda: acceptance.steady_drift_check(grid, 0.01, 0.1))
        assert tr.states.shape == (2001, 400)
        assert peak * 8 * grid.n ** 2 < 1.5 * tr.states.nbytes
        # with the bits of the norms written out over the whole trace
        w = grid.r2_weights
        qv = profile.q(grid.nodes)
        assert np.array_equal(tr.norms, np.sqrt(np.sum(w * tr.states ** 2, axis=-1)))
        drift = np.sqrt(np.sum(w * (tr.states - qv) ** 2, axis=-1))
        assert check.value == float(np.max(drift)) / grid.norm(qv)

    def test_discrete_steady_profile_is_fixed_point(self, grid):
        qh, _ = evolution.discrete_steady_profile(grid)
        assert np.max(np.abs(qh - profile.q(grid.nodes))) < 0.2
        tr = evolution.nonlinear_radial_evolve(RadialFunction(grid, qh), 0.01,
                                               1.0)
        drift = np.max(np.abs(tr.states[-1] - qh))
        assert drift < 1e-12

    @pytest.mark.parametrize("n,rmax", [(16, 40.0), (16, 1.0)])
    def test_newton_collapse_onto_zero_is_refused(self, n, rmax):
        # the residual test is relative to max |Q|, so an iterate that
        # collapses onto the trivial steady state would pass it
        with pytest.raises(evolution.EvolutionError,
                           match="collapsed onto the trivial steady state"):
            evolution.discrete_steady_profile(make_grid(n, rmax, "uniform"))

    def test_coarse_grid_that_holds_the_profile_solves(self):
        qh, _ = evolution.discrete_steady_profile(make_grid(32, 40.0, "uniform"))
        assert 2.0 < np.max(qh) < 2.1

    def test_newton_matrix_is_the_stepper_linearization(self, grid):
        # the matrix at the converged iterate, lin - N'(state), bit for bit
        qh, opf = evolution.discrete_steady_profile(grid)
        lin = operators.local_band(0, grid, zero_profile=True).toarray()
        jac = evolution._flux_jacobian(qh, evolution.FluxGeometry(grid))
        assert (opf.grid, opf.l) == (grid, 0)
        assert np.array_equal(opf.entries, lin - jac)

    def test_scheme_order_against_reference(self, grid):
        # one fixed state, horizon 0.5: halving dt cuts the error ~4x
        r = grid.nodes
        psi0 = RadialFunction(grid, profile.q(r) + 0.05 * np.exp(-(r - 4.0) ** 2))
        ref = evolution.nonlinear_radial_evolve(psi0, 0.00125, 0.5).states[-1]
        errs = []
        for dt in (0.02, 0.01, 0.005):
            out = evolution.nonlinear_radial_evolve(psi0, dt, 0.5).states[-1]
            errs.append(np.max(np.abs(out - ref)))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios > 3.0)

    def test_unstable_amplitude_grows_at_unit_rate(self, grid):
        # deviation measured from the discrete steady state, whose flow is
        # stationary, so the coefficient isolates the scaling instability;
        # the fitted rate cross-checks the linearized prediction
        qh, opf = evolution.discrete_steady_profile(grid)
        projf = spectra.build_projection(opf, -1.0)
        amp = 1e-3
        mode = np.real(projf.right)
        psi0 = RadialFunction(grid, qh + amp * mode)
        tr = evolution.nonlinear_radial_evolve(psi0, 0.01, 2.0)
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
    qh, opf = evolution.discrete_steady_profile(grid)
    projf = spectra.build_projection(opf, -1.0)
    return qh, projf


@pytest.fixture(scope="module")
def shoot_bump(grid, shooting_setup):
    """One shooting of a 1e-3 stable bump over (-2e-3, 2e-3) to tau = 2; its
    bracket ends stay in the tube from the second level on, so the secant
    path engages."""
    qh, projf = shooting_setup
    bump = np.real(projf.project_stable(np.exp(-(grid.nodes - 4.0) ** 2)))
    bump *= 1e-3 / grid.norm(bump)

    def shoot():
        return evolution.shoot_stable_manifold(
            [RadialFunction(grid, bump)], (-2e-3, 2e-3), projf, dt=0.02,
            horizon=2.0, base_profile=qh)[0]
    return shoot


def _fields(res):
    """Every ShootingResult field the bisection's walk fixes."""
    return (res.a_star, res.bracket_width, res.converged,
            res.departure_sign_low, res.departure_sign_high)


def _plain_bisection(perturbations, bracket, projection, base, dt, horizon):
    """The plain bisection of each shooting search, with no secant: the
    ShootingResults the searches must match.

    The searches walk side by side.  Each round integrates, in one
    _departures call, the midpoints of every unfinished search's next
    _LOOKAHEAD levels (the first round the bracket ends too), and every
    midpoint takes its own run's departure sign.
    """
    grid = perturbations[0].grid
    lam_q = profile.lambda_q(grid.nodes)
    lam_q = lam_q / grid.norm(lam_q)
    ref = evolution.nonlinear_radial_evolve(RadialFunction(grid, base), dt,
                                            horizon)
    run = evolution._ImexRows(grid, dt)
    stop = evolution._WIDTH_TOL * (bracket[1] - bracket[0])
    searches = [SimpleNamespace(
        eps=eps.values, lo=bracket[0], hi=bracket[1], runs={}, trail=[],
        tube=evolution._TUBE_FACTOR * (grid.norm(eps.values) or stop),
        defect=ref.max_solve_defect, rounds=0, result=None)
        for eps in perturbations]

    def integrate(batch):
        found = evolution._departures(
            run, np.array([base + s.eps + a * lam_q for s, a in batch]),
            np.array([s.tube for s, _ in batch]), ref.states, projection)
        for (s, a), departure in zip(batch, found):
            s.runs[a] = departure
            s.defect = max(s.defect, departure[3])
        for s in {id(s): s for s, _ in batch}.values():
            s.rounds += 1

    def levels(pending):
        return [(s, a) for s in pending
                for a in evolution._lookahead(s.lo, s.hi, evolution._LOOKAHEAD)]

    def use(s, a):
        sign, _, tau, _ = s.runs[a]
        s.trail.append((a, sign, tau))
        return sign, tau

    integrate([(s, a) for s in searches for a in (s.lo, s.hi)]
              + levels(searches))
    for s in searches:
        (s.sign_lo, _), (s.sign_hi, _) = use(s, s.lo), use(s, s.hi)
    pending = searches
    while pending:
        for s in pending:
            for _ in range(evolution._LOOKAHEAD):
                mid = 0.5 * (s.lo + s.hi)
                sign, tau = use(s, mid)
                if s.hi - s.lo <= stop:
                    s.result = evolution.ShootingResult(
                        a_star=mid, bracket_width=s.hi - s.lo,
                        converged=tau is None, departure_sign_low=s.sign_lo,
                        departure_sign_high=s.sign_hi, trail=s.trail,
                        max_solve_defect=s.defect, rounds=s.rounds)
                    break
                if sign == s.sign_lo:
                    s.lo = mid
                else:
                    s.hi = mid
        pending = [s for s in pending if s.result is None]
        if pending:
            integrate(levels(pending))
    return [s.result for s in searches]


@pytest.fixture(scope="module")
def plain_bump(grid, shooting_setup):
    """The plain bisection of shoot_bump's search."""
    qh, projf = shooting_setup
    bump = np.real(projf.project_stable(np.exp(-(grid.nodes - 4.0) ** 2)))
    bump *= 1e-3 / grid.norm(bump)
    (plain,) = _plain_bisection([RadialFunction(grid, bump)], (-2e-3, 2e-3),
                                projf, qh, 0.02, 2.0)
    return plain


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
        bump = np.real(projf.project_stable(
            np.exp(-(grid.nodes - 4.0) ** 2)))
        bump *= 1e-3 / grid.norm(bump)
        (res,) = evolution.shoot_stable_manifold(
            [RadialFunction(grid, bump)], (-4e-3, 4e-3), projf, dt=0.02,
            horizon=6.0, base_profile=qh)
        assert res.converged
        lam_q = profile.lambda_q(grid.nodes)
        lam_q = lam_q / grid.norm(lam_q)
        tr = evolution.nonlinear_radial_evolve(
            RadialFunction(grid, qh + bump + res.a_star * lam_q), 0.02, 6.0)
        devs = grid.norm(tr.states - qh)
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

    def test_trail_walks_the_bisection(self, shoot_bump, plain_bump):
        # the runs made, in order: the bisection levels walked while runs
        # leave the tube, the secant iterates, then the final lo, hi and a*
        lo, hi = -2e-3, 2e-3
        res, plain = shoot_bump(), plain_bump
        assert _fields(res) == _fields(plain)
        assert res.trail[:2] == plain.trail[:2] == [
            (lo, res.departure_sign_low, res.trail[0][2]),
            (hi, res.departure_sign_high, res.trail[1][2])]
        # each level halves the bracket, keeping the end of its own sign,
        # until both ends stay in the tube to the horizon
        walked = 2
        while res.trail[walked][0] == 0.5 * (lo + hi):
            a, sign, _ = res.trail[walked]
            if sign == res.departure_sign_low:
                lo = a
            else:
                hi = a
            walked += 1
        assert res.trail[:walked] == plain.trail[:walked]
        exits = {a: tau for a, _, tau in res.trail}
        assert exits[lo] is None and exits[hi] is None
        *secant, final_lo, final_hi, last = res.trail[walked:]
        assert secant and all(lo <= a <= hi and tau is None
                              for a, _, tau in secant)
        assert final_lo[1] == res.departure_sign_low
        assert final_hi[1] == res.departure_sign_high
        assert final_hi[0] - final_lo[0] == res.bracket_width
        assert last[0] == res.a_star == 0.5 * (final_lo[0] + final_hi[0])
        assert (last[2] is None) == res.converged
        # the plain bisection lists every level: 2^-27 of the width is below 1e-8
        assert len(plain.trail) == 2 + 28
        assert len(res.trail) < len(plain.trail)
        assert 0.0 < res.max_solve_defect <= plain.max_solve_defect \
            <= evolution._SOLVE_TOL

    def test_failed_confirmation_falls_back_to_the_bisection(
            self, shoot_bump, plain_bump, monkeypatch):
        plain = plain_bump
        walk = evolution._walk

        def replay_from_the_top(lo, hi, stop, below, levels=None):
            # the replay, the one walk with no level limit, from a root at
            # the top of the in-tube bracket puts the final bracket above
            # the true root, so its low end has the high end's sign
            if levels is None:
                return walk(lo, hi, stop, lambda mid: mid < hi)
            return walk(lo, hi, stop, below, levels)
        monkeypatch.setattr(evolution, "_walk", replay_from_the_top)
        res = shoot_bump()
        assert _fields(res) == _fields(plain)
        # the fallback resumes the plain bisection where the secant started:
        # the secant iterates and the three confirmation runs come between
        first = next(i for i, (a, b) in enumerate(zip(res.trail, plain.trail))
                     if a != b)
        extra = len(res.trail) - len(plain.trail)
        assert extra >= 1 + 3
        assert res.trail[:first] == plain.trail[:first]
        assert res.trail[first + extra:] == plain.trail[first:]
        final_lo, final_hi = res.trail[first + extra - 3:first + extra - 1]
        assert final_lo[1] == res.departure_sign_high
        assert final_hi[1] == res.departure_sign_high

    @pytest.mark.parametrize("bracket, wrong_slope", [
        ((-4e-3 - 1e-6, 4e-3 - 1e-6), False), ((-4e-3, 4e-3), True)],
        ids=["low-end-in-tube", "wrong-signed-slope"])
    def test_newton_start_keeps_the_bisection_bits(self, grid, shooting_setup,
                                                   monkeypatch, bracket,
                                                   wrong_slope):
        # one walked end stays in the tube after the first round, and the
        # secant path starts there with a Newton step
        qh, projf = shooting_setup
        bump = np.real(projf.project_stable(np.exp(-(grid.nodes - 4.0) ** 2)))
        bump *= 1e-3 / grid.norm(bump)
        perturbations = [RadialFunction(grid, bump)]
        if wrong_slope:
            search = evolution._search
            monkeypatch.setattr(evolution, "_search",
                                lambda lo, hi, slope: search(lo, hi, -slope))
        (res,) = evolution.shoot_stable_manifold(
            perturbations, bracket, projf, dt=0.02, horizon=2.0,
            base_profile=qh)
        (plain,) = _plain_bisection(perturbations, bracket, projf, qh, 0.02,
                                    2.0)
        assert _fields(res) == _fields(plain)
        assert res.rounds < plain.rounds
        # the first round's two walked levels: the in-tube end and the end
        # whose run leaves the tube
        (a_in, sign_in, tau_in), (a_out, _, tau_out) = res.trail[2:4]
        assert tau_in is None and tau_out is not None
        if wrong_slope:
            # the Newton step leaves the sign bracket, so the first secant
            # run bisects it
            assert sign_in == res.departure_sign_high
            assert res.trail[4][0] == 0.5 * (a_in + a_out)
        else:
            assert sign_in == res.departure_sign_low and a_in < a_out

    def test_missed_final_bracket_takes_the_final_round(
            self, shoot_bump, plain_bump, monkeypatch):
        # each secant round integrates the final lo, hi and a* its root
        # replays to; when the root the secant stops at replays elsewhere,
        # a round of its own integrates them, and nothing else changes
        hit = shoot_bump()
        walk = evolution._walk
        replays = []

        def counted(lo, hi, stop, below, levels=None):
            if levels is None:
                replays.append(None)
            return walk(lo, hi, stop, below, levels)
        monkeypatch.setattr(evolution, "_walk", counted)
        shoot_bump()
        last = len(replays)   # the secant rounds' replays, then the final one
        assert last >= 2
        replays.clear()

        def ahead_from_the_top(lo, hi, stop, below, levels=None):
            if levels is None:
                replays.append(None)
                if len(replays) < last:
                    return walk(lo, hi, stop, lambda mid: mid < hi)
            return walk(lo, hi, stop, below, levels)
        monkeypatch.setattr(evolution, "_walk", ahead_from_the_top)
        rows = []
        departures = evolution._departures
        monkeypatch.setattr(evolution, "_departures", lambda run, batch, *args:
                            rows.append(len(batch)) or departures(run, batch,
                                                                  *args))
        res = shoot_bump()
        assert _fields(res) == _fields(plain_bump)
        assert res.trail == hit.trail
        # the missed runs count in no defect
        assert res.max_solve_defect == hit.max_solve_defect
        assert res.rounds == hit.rounds + 1
        assert rows[-1] == 3

    def test_reference_row_is_the_reference_run(self, grid, shooting_setup):
        # row 0 writes the reference trajectory with the bits of its own
        # run, and the other rows read it as they would the stored one
        qh, projf = shooting_setup
        lam_q = profile.lambda_q(grid.nodes)
        lam_q /= grid.norm(lam_q)
        rows = np.array([qh, qh + 1e-3 * lam_q, qh - 1e-3 * lam_q, qh])
        tubes = np.array([np.inf, 2e-3, 2e-3, 1e-3])
        dt, horizon = 0.02, 1.0
        ref = evolution.nonlinear_radial_evolve(RadialFunction(grid, qh), dt,
                                                horizon)
        run = evolution._ImexRows(grid, dt)
        states = np.full_like(ref.states, np.nan)
        found = evolution._departures(run, rows, tubes, states, projf, True)
        assert states.tobytes() == ref.states.tobytes()
        assert found[0][3] == ref.max_solve_defect
        assert found[1:] == evolution._departures(run, rows[1:], tubes[1:],
                                                  ref.states, projf)

    def test_failing_reference_raises_its_own_error(self, grid,
                                                    shooting_setup):
        # 2 Q fails the negativity guard mid-run, alone and as the reference
        # row of the first round alike
        _, projf = shooting_setup
        base = 2.0 * profile.q(grid.nodes)
        with pytest.raises(evolution.EvolutionError) as alone:
            evolution.nonlinear_radial_evolve(RadialFunction(grid, base),
                                              0.02, 2.0)
        with pytest.raises(evolution.EvolutionError) as err:
            evolution.shoot_stable_manifold(
                [RadialFunction(grid, np.zeros(grid.n))], (-2e-3, 2e-3),
                projf, dt=0.02, horizon=2.0, base_profile=base)
        assert "negativity" in str(alone.value)
        assert str(err.value) == str(alone.value)
        assert err.value.tau == alone.value.tau > 0.0
        assert np.array_equal(err.value.state, alone.value.state)

    @pytest.mark.parametrize("dt, horizon", [(0.1, 2.0), (0.02, 2.01)])
    def test_bad_step_raises_before_integrating(self, grid, shooting_setup,
                                                monkeypatch, dt, horizon):
        qh, projf = shooting_setup
        with pytest.raises(ValueError) as alone:
            evolution.nonlinear_radial_evolve(RadialFunction(grid, qh), dt,
                                              horizon)
        steps = []
        monkeypatch.setattr(evolution._ImexRows, "step",
                            lambda self: steps.append(None))
        with pytest.raises(ValueError) as err:
            evolution.shoot_stable_manifold(
                [RadialFunction(grid, np.zeros(grid.n))], (-2e-3, 2e-3),
                projf, dt=dt, horizon=horizon, base_profile=qh)
        assert str(err.value) == str(alone.value)
        assert not steps

    def test_criterion_8_shooting_rounds_and_bits(self, monkeypatch):
        # criterion 8's call: the secant path engages at the first in-tube
        # run and keeps the plain bisection's a* bits in 3 batched rounds
        # against its 14
        grid = make_grid(400, 40.0, "uniform")
        qh, projf, bump = acceptance.shooting_setup(grid)
        perturbations = [RadialFunction(grid, amp * bump) for amp in (1e-3, 2e-3)]
        rows = []
        departures = evolution._departures
        with monkeypatch.context() as m:
            m.setattr(evolution, "_departures", lambda run, batch, *args:
                      rows.append(len(batch)) or departures(run, batch, *args))
            results = evolution.shoot_stable_manifold(
                perturbations, (-4e-3, 4e-3), projf, qh, *acceptance.SHOOTING_RUN)
        # the reference run as row 0 of the first round; per search: one
        # exit-regime round (the bracket ends and 3 midpoints; the midpoint
        # a = 0 stays in the tube), a Newton round of one run, and a secant
        # round of its root and the final lo, hi and a* that root replays
        # to, which the next root confirms
        assert rows == [11, 2, 8]
        plain = _plain_bisection(perturbations, (-4e-3, 4e-3), projf, qh,
                                 *acceptance.SHOOTING_RUN)
        assert [_fields(r) for r in results] == [_fields(r) for r in plain]
        assert all(r.converged for r in results)
        assert [r.rounds for r in results] == [3, 3]
        assert [r.rounds for r in plain] == [14, 14]
