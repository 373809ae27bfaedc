"""Time integration of the renormalized flow, linear and nonlinear.

Linear runs integrate d_tau eps = -L_l eps with Crank-Nicolson (one dense
LU factorization, reused every step) and record L^2(r^2 dr) norms plus the
coefficients against supplied left modes; the fitted growth rates reproduce
the eigenvalues +1 and +1/2 of the scaling and translation modes.

Nonlinear runs integrate the radial renormalized equation

    d_tau Psi = Delta_0 Psi - (1/2) Lambda Psi + (1/r^2) d_r(r^2 Psi D_2^{-1} Psi)

with an IMEX scheme: the stiff linear part is Crank-Nicolson on the band
of the local operator (operators.local_band; one banded LU, reused every
step, makes a step O(n)), the flux term second-order Adams-Bashforth after
a predictor-corrector first step.  One stepper advances a stack of
independent states, the rows of a plain (m, n) array, with row-wise
arithmetic only: the band product and solve act on each row alone
(operators.BandMatrix), the flux term's neighbour terms are shifted slices
along the rows.  So a row gets the same bits in a batch as alone.
The blowup profile is the steady state; a shooting experiment tunes the
amplitude of the unstable direction so that stably-perturbed data relaxes
back to the profile, the desk-scale analog of the stable-manifold matching.
Its bisections run in lockstep, each round integrating the next bisection
levels of every bracket as one batch.

Evolution grids default to uniform spacing: the flux term is explicit, so
node clustering near the origin would only tighten its CFL restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import profile
from .operators import (BandMatrix, OperatorMatrix, assemble_Ll,
                        local_band, r2_mass_weights)
from .radial import EvenPrefixIntegral, RadialFunction, RadialGrid, \
    cumulative_power_integral, fd_deriv

__all__ = [
    "EvolutionTrace", "ShootingResult", "EvolutionError", "linear_evolve",
    "nonlinear_radial_evolve", "FluxGeometry", "partial_mass", "step_count",
    "partial_mass_crosscheck", "shoot_stable_manifold", "fit_rate",
]

_SOLVE_TOL = 1e-10
_NEGATIVITY_TOL = 1e-8  # relative undershoot below zero that fails a step
_TUBE_FACTOR = 10.0     # shooting tube radius in units of the initial deviation
_WIDTH_TOL = 1e-8       # shooting bisection stops at this fraction of the bracket
_NEWTON_TOL = 1e-12     # steady-state Newton residual, relative to max |Q|
_NEWTON_MAX_ITER = 12
_LOOKAHEAD = 2          # bisection levels each shooting round integrates
_JACOBIAN_ROWS = 32     # flux-Jacobian columns per row-batched flux call


class EvolutionError(RuntimeError):
    """Step failure; carries the last valid state and its time."""

    def __init__(self, message, tau=None, state=None):
        super().__init__(message)
        self.tau = tau
        self.state = state


@dataclass
class EvolutionTrace:
    """Recorded time series of one run."""
    times: np.ndarray
    norms: np.ndarray
    mode_coeffs: np.ndarray | None   # projection coefficient per step
    states: np.ndarray | None = field(default=None, repr=False)
    boundary_flag: bool = False
    max_solve_defect: float = 0.0   # largest relative defect of an implicit solve


@dataclass
class ShootingResult:
    a_star: float
    bracket_width: float
    converged: bool
    departure_sign_low: int
    departure_sign_high: int
    # (a, departure sign, exit tau or None) of every run the bisection used,
    # in order: the bracket ends, each midpoint, and a_star last
    trail: list
    max_solve_defect: float   # largest relative implicit-solve defect


def fit_rate(trace: EvolutionTrace, window=(0.0, None)) -> float:
    """Least-squares exponential rate of the norm history over a tau window."""
    t0, t1 = window
    t1 = trace.times[-1] if t1 is None else t1
    mask = (trace.times >= t0) & (trace.times <= t1) & (trace.norms > 0.0)
    return float(np.polyfit(trace.times[mask], np.log(trace.norms[mask]), 1)[0])


def step_count(dt: float, horizon: float) -> int:
    """Number of steps of size dt to ``horizon``; ValueError on a bad pair."""
    if not 0.0 < dt <= 0.05:
        raise ValueError(f"dt = {dt} outside (0, 0.05]")
    steps = horizon / dt
    n_steps = round(steps) if np.isfinite(steps) else 0
    if n_steps < 1:
        raise ValueError(f"horizon = {horizon} is shorter than one step dt = {dt}")
    if abs(steps - n_steps) > 1e-9 * steps:
        raise ValueError(f"horizon = {horizon} is not a whole multiple of dt = {dt}")
    return n_steps


def _check_solve(x, product, rhs, lhs_norm):
    """Relative defect of the Crank-Nicolson solve x of (I + dt/2 A) x = rhs,
    per row of a stack, from ``product`` = (I - dt/2 A) x.

    The two sides sum to 2I, so (I + dt/2 A) x is 2x - product: exact off
    the diagonal and one rounding on it.  Raises EvolutionError when the
    defect of any row passes _SOLVE_TOL relative to that row's own scale.
    """
    # the residual, x and rhs side by side, so one reduction gives the
    # norms of all three, row by row
    rows = np.empty((3,) + np.shape(x), dtype=np.result_type(x, product, rhs))
    np.multiply(x, 2.0, out=rows[0])
    rows[0] -= product
    rows[0] -= rhs
    rows[1], rows[2] = x, rhs
    defect, x_norm, rhs_norm = np.sqrt(
        np.einsum("k...i,k...i->k...", rows, rows.conj()).real)
    denom = lhs_norm * x_norm + rhs_norm
    bad = defect > _SOLVE_TOL * denom
    if bad.any():
        i = np.flatnonzero(bad)[0]
        row = f" in row {i}" if np.ndim(x) > 1 else ""
        raise EvolutionError(f"implicit solve defect "
                             f"{np.ravel(defect)[i]:.2e} too large{row}")
    return np.divide(defect, denom, out=np.zeros_like(defect), where=defect > 0)


def _crank_nicolson(a: BandMatrix | np.ndarray, dt: float):
    """Crank-Nicolson for y' = -A y.

    Returns ``(explicit, solve)``: ``explicit @ y`` is (I - dt/2 A) y and
    ``solve(rhs)`` returns x = (I + dt/2 A)^{-1} rhs, ``explicit @ x``
    (the next step's explicit half) and the relative defect from
    _check_solve, which checks every solve with that product, so a step
    makes one product with the operator.  A BandMatrix A (the local IMEX
    operator) keeps both sides on its band: the left side is factored once
    by LAPACK gbtrf, so a step is O(n) and takes a stack of rows; a dense A
    such as L_l gets one dense LU and one vector.
    """
    if isinstance(a, BandMatrix):
        lhs, explicit = a.eye_plus(0.5 * dt), a.eye_plus(-0.5 * dt)
        lhs_norm = lhs.norm_inf()
        lhs.factor()
        backsolve = lhs.solve
    else:
        eye = np.eye(a.shape[0])
        lhs, explicit = eye + 0.5 * dt * a, eye - 0.5 * dt * a
        lhs_norm = np.linalg.norm(lhs, np.inf)
        lu = scipy.linalg.lu_factor(lhs)

        def backsolve(rhs):
            return scipy.linalg.lu_solve(lu, rhs)

    def solve(rhs):
        x = backsolve(rhs)
        product = explicit @ x
        return x, product, _check_solve(x, product, rhs, lhs_norm)

    return explicit, solve


def linear_evolve(op: OperatorMatrix, eps0: RadialFunction, dt: float,
                  horizon: float, projection=None,
                  keep_states: bool = False) -> EvolutionTrace:
    """Crank-Nicolson integration of d_tau eps = -A eps for the operator ``op``.

    Records the L^2(r^2 dr) norm each step and, when a ProjectionPair is
    supplied, the coefficient against its left mode.
    """
    n_steps = step_count(dt, horizon)
    grid = eps0.grid
    explicit, solve = _crank_nicolson(op.entries, dt)
    w = r2_mass_weights(grid)
    eps = eps0.values.astype(complex if np.iscomplexobj(eps0.values) else float)
    times = dt * np.arange(n_steps + 1)
    norms = np.empty(n_steps + 1)
    coeffs = [] if projection is not None else None
    states = [] if keep_states else None

    def record(k, vec):
        norms[k] = np.sqrt(np.real(np.sum(w * np.abs(vec) ** 2)))
        if coeffs is not None:
            coeffs.append(projection.coefficient(vec))
        if states is not None:
            states.append(vec.copy())

    record(0, eps)
    worst = 0.0
    product = explicit @ eps
    for k in range(1, n_steps + 1):
        eps, product, defect = solve(product)
        worst = max(worst, float(defect))
        record(k, eps)
    return EvolutionTrace(times=times, norms=norms,
                          mode_coeffs=np.array(coeffs) if coeffs else None,
                          states=np.array(states) if states else None,
                          max_solve_defect=worst)


class FluxGeometry:
    """Grid-only part of the flux term N(psi) = (1/r^2) d_r (r^2 psi D_2^{-1} psi).

    _nl_rhs evaluates the term in finite-volume divergence form: it writes
    r^2 psi D_2^{-1} psi = psi(r) int_0^r psi s^2 ds =: phi and takes
    N_j = 3 (phi_R - phi_L) / (r_R^3 - r_L^3) over the cell around node j.
    A plain stencil for (1/r^2) d_r phi loses all accuracy at the first
    nodes (the 1/r^2 amplifies its truncation error to O(1)); the exact cell
    volumes make the scheme exact for constant psi and uniformly O(h^2).
    Cell faces at midpoints, [0, .] for the first cell, Dirichlet ghost past
    rmax for the last.  Build one per grid and pass it to every evaluation:
    the half-panel moments, the cell volumes and the panel coefficients of
    the mass integral depend only on the nodes.
    """

    def __init__(self, grid: RadialGrid):
        r = grid.nodes
        self.mass = EvenPrefixIntegral(r, 2.0)   # int_0^r psi s^2 ds
        mids = 0.5 * (r[:-1] + r[1:])
        u, v = r[:-1], r[1:]
        # int_u^mid psi s^2 ds = cu psi_u + cv psi_v on the interpolant
        m0 = (mids ** 3 - u ** 3) / 3.0
        m1 = (mids ** 4 - u ** 4) / 4.0
        self.cv = (m1 - u * m0) / (v - u)
        self.cu = m0 - self.cv
        r_out = r[-1] + 0.5 * (r[-1] - r[-2])
        self.cell_cubes = np.diff(np.concatenate(([0.0], mids ** 3,
                                                  [r_out ** 3])))


def _nl_rhs(values, flux: FluxGeometry) -> np.ndarray:
    """The flux term N(psi) at nodal data, in the form FluxGeometry describes.

    ``values`` is one data set or a stack of them as rows.  Every neighbour
    term is a shifted slice along the last axis and the prefix sums run
    along each row, so each row is evaluated alone, with the operations of
    the one-row formula.
    """
    psi = np.asarray(values)
    psi = psi.astype(np.result_type(psi, float), copy=False)
    # cum + cu psi_j + cv psi_{j+1} and 0.5 (psi_j + psi_{j+1}) at the
    # midpoints; at the last node they give the outer face's 0.5 psi cum
    cum_mid = flux.mass(psi)
    cum_mid[..., :-1] += flux.cu * psi[..., :-1]
    cum_mid[..., :-1] += flux.cv * psi[..., 1:]
    phi = psi.copy()
    phi[..., :-1] += psi[..., 1:]
    phi *= 0.5
    phi *= cum_mid
    out = phi.copy()   # the inner face of the first cell is 0
    out[..., 1:] -= phi[..., :-1]
    out *= 3.0
    out /= flux.cell_cubes
    return out


class _ImexRows:
    """IMEX (Crank-Nicolson + AB2) stepper for a stack of independent runs.

    Built once per grid and dt; ``start(psi0)`` then (re)starts it on a
    stack of initial states (one data set or the rows of an array of any
    layout), which it copies into fresh float rows, reusing the set-up.
    ``psi`` is the C-contiguous (m, n) array of the m runs' current states;
    each solve returns it so, and gbtrs reads its transpose in place.  The
    linear part -Delta_0 + (1/2) Lambda is implicit with one banded LU,
    reused by every row and step; the quadratic flux is explicit (AB2
    after a predictor-corrector first step).  Each solve also returns the
    explicit half of the next step, so a step makes one band product.  All
    arithmetic is row-wise, so a row gets the same bits in any batch as
    alone.  ``step()`` advances every row and returns ``{row: message}``
    for the rows whose new state fails the negativity guard (min below
    -_NEGATIVITY_TOL ||Psi||_inf) or the blowup guard; ``last`` holds the
    states before that step, so a failing row keeps its last valid state.
    ``keep(mask)`` retires rows between steps, and ``defect`` is each row's
    largest relative solve defect.
    """

    def __init__(self, grid: RadialGrid, dt: float):
        self.explicit, self._solve = _crank_nicolson(
            local_band(0, grid, zero_profile=True), dt)
        self.flux = FluxGeometry(grid)
        self.grid, self.dt = grid, dt

    def start(self, psi0: np.ndarray) -> "_ImexRows":
        rows = np.atleast_2d(psi0)
        self.psi = np.array(rows, dtype=np.result_type(rows, float), order="C")
        self.last = self.psi
        self._explicit_half = self.explicit @ self.psi
        self.scale0 = np.max(np.abs(self.psi), axis=-1)
        self.defect = np.zeros(len(self.psi))
        self.k = 0
        self._n_prev = None   # flux term of the state one step back
        return self

    def _checked_solve(self, rhs):
        x, product, defect = self._solve(rhs)
        np.maximum(self.defect, defect, out=self.defect)
        return x, product

    def step(self) -> dict:
        psi, dt = self.psi, self.dt
        n_cur = _nl_rhs(psi, self.flux)
        if self.k == 0:
            # predictor-corrector first step keeps the start O(dt^2)
            pred, _ = self._checked_solve(self._explicit_half + dt * n_cur)
            term = 0.5 * (n_cur + _nl_rhs(pred, self.flux))
        else:
            term = 1.5 * n_cur - 0.5 * self._n_prev
        self.psi, self._explicit_half = self._checked_solve(
            self._explicit_half + dt * term)
        self.k += 1
        self.last, self._n_prev = psi, n_cur
        tau = self.dt * self.k
        new = self.psi
        scale = np.max(np.abs(new), axis=-1)
        low = np.min(new, axis=-1)
        negative = low < -_NEGATIVITY_TOL * np.maximum(scale, self.scale0)
        blowup = ~np.isfinite(scale) | (scale > 1e6 * np.maximum(self.scale0, 1.0))
        if not np.any(negative | blowup):
            return {}
        failures = {int(i): f"norm blowup at tau = {tau:.3f}"
                    for i in np.flatnonzero(blowup)}
        failures.update({int(i): f"density negativity {low[i]:.2e} at tau = {tau:.3f}"
                         for i in np.flatnonzero(negative)})
        return failures

    def keep(self, mask: np.ndarray) -> None:
        self.psi, self._n_prev = self.psi[mask], self._n_prev[mask]
        self._explicit_half = self._explicit_half[mask]
        self.scale0, self.defect = self.scale0[mask], self.defect[mask]


def nonlinear_radial_evolve(psi0: RadialFunction, dt: float, horizon: float,
                            keep_states: bool = False) -> EvolutionTrace:
    """IMEX (Crank-Nicolson + AB2) integration of the radial renormalized flow.

    The one-row case of _ImexRows.  A step driving min(Psi) below
    -_NEGATIVITY_TOL ||Psi||_inf or blowing up the norm raises
    EvolutionError with the last valid state; the trace flags any run whose
    boundary value exceeds 1e-6 ||Psi||_inf.
    """
    n_steps = step_count(dt, horizon)
    grid = psi0.grid
    run = _ImexRows(grid, dt).start(psi0.values)
    w = r2_mass_weights(grid)
    psi = run.psi[0]
    times = dt * np.arange(n_steps + 1)
    norms = np.empty(n_steps + 1)
    states = [psi.copy()] if keep_states else None
    boundary_flag = False
    norms[0] = np.sqrt(np.sum(w * psi ** 2))
    for k in range(1, n_steps + 1):
        failures = run.step()
        if failures:
            raise EvolutionError(failures[0], tau=times[k - 1],
                                 state=run.last[0])
        psi = run.psi[0]
        norms[k] = np.sqrt(np.sum(w * psi ** 2))
        if abs(psi[-1]) > 1e-6 * np.max(np.abs(psi)):
            boundary_flag = True
        if states is not None:
            states.append(psi.copy())
    return EvolutionTrace(times=times, norms=norms, mode_coeffs=None,
                          states=np.array(states) if states is not None else None,
                          boundary_flag=boundary_flag,
                          max_solve_defect=float(run.defect[0]))


def _flux_jacobian(base: np.ndarray, flux: FluxGeometry) -> np.ndarray:
    """Exact Jacobian of the (quadratic) finite-volume flux at ``base``.

    Row i of the stacks base +- e_{j+i} (i < _JACOBIAN_ROWS) is one
    perturbed data set, so one row-batched flux call per sign gives the
    symmetric differences of that many columns.  Blocks of rows rather
    than all n keep the stacks in cache and their memory O(n).
    """
    n = base.size
    jac = np.empty((n, n))
    for j in range(0, n, _JACOBIAN_ROWS):
        e = np.eye(min(_JACOBIAN_ROWS, n - j), n, j)
        jac[:, j:j + len(e)] = 0.5 * (_nl_rhs(base + e, flux)
                                      - _nl_rhs(base - e, flux)).T
    return jac


def discrete_steady_profile(grid: RadialGrid) -> np.ndarray:
    """Newton solve for the stepper's own steady state near the profile.

    The IMEX scheme's fixed points are exactly the solutions of
    (-Delta_0 + Lambda/2) Psi = N(Psi) in its discretization; the solution
    differs from the continuum profile by the O(h^2) truncation of the
    grid.  Shooting experiments use it as base point so that the reference
    flow sits still instead of drifting along the scaling instability.
    """
    lin = assemble_Ll(0, grid, zero_profile=True).entries
    flux = FluxGeometry(grid)
    psi = profile.q(grid.nodes)
    scale = np.max(np.abs(psi))
    for _ in range(_NEWTON_MAX_ITER):
        res = -lin @ psi + _nl_rhs(psi, flux)
        if np.max(np.abs(res)) < _NEWTON_TOL * scale:
            return psi
        delta = scipy.linalg.solve(lin - _flux_jacobian(psi, flux), res)
        psi = psi + delta
    raise EvolutionError("Newton iteration for the discrete steady state "
                         f"stalled at residual {np.max(np.abs(res)):.2e}")


def flow_linearization(grid: RadialGrid, base: np.ndarray) -> OperatorMatrix:
    """The nonlinear stepper's own discrete linearization about ``base``.

    Returns the matrix of L = (-Delta_0 + Lambda/2) - N'(base) built from
    the same implicit matrix and finite-volume flux the stepper uses; the
    flux is exactly quadratic, so symmetric differencing with unit
    increments gives its Jacobian without truncation error.  About the
    discrete steady profile it agrees with the assembled class-0 operator
    to O(h^2).
    """
    lin = assemble_Ll(0, grid, zero_profile=True).entries
    return OperatorMatrix(grid=grid, l=0,
                          entries=lin - _flux_jacobian(base, FluxGeometry(grid)))


def partial_mass(psi: RadialFunction) -> np.ndarray:
    """m(r) = 4 pi int_0^r psi s^2 ds on the grid nodes."""
    return 4.0 * np.pi * cumulative_power_integral(psi.values, psi.grid, 2.0, 0.0)


def partial_mass_crosscheck(psi: RadialFunction, dt: float = 1e-3) -> float:
    """Defect between evolving the partial mass and integrating the density.

    The radial flow localizes in the partial mass variable
    mbar(r) = int_0^r Psi s^2 ds as

        d_tau mbar = mbar'' - (2/r + r/2) mbar' + mbar/2 + mbar mbar' / r^2,

    an equation not needed elsewhere in the package, so this cross-check is
    its validation: one explicit Euler step of it must agree with the
    partial mass of one IMEX step of the density to scheme order.  Returns
    the max-norm defect in the 4 pi-scaled mass.
    """
    grid = psi.grid
    r = grid.nodes
    mass = EvenPrefixIntegral(r, 2.0)
    mbar = mass(psi.values)
    dm = fd_deriv(mbar, r, 1)
    d2m = fd_deriv(dm, r, 1)
    rhs = d2m - (2.0 / r + 0.5 * r) * dm + 0.5 * mbar + mbar * dm / (r * r)
    mbar_step = mbar + dt * rhs
    trace = nonlinear_radial_evolve(psi, dt, dt, keep_states=True)
    psi1 = RadialFunction(grid, trace.states[-1])
    mbar_psi = mass(psi1.values)
    return float(4.0 * np.pi * np.max(np.abs(mbar_step - mbar_psi)))


def _departures(run: _ImexRows, rows: np.ndarray, tubes: np.ndarray,
                ref_states: np.ndarray, projection) -> list:
    """Evolve a stack of initial states; per row (sign, exit tau, defect).

    ``run`` is restarted on ``rows``, and ``ref_states`` holds the reference
    trajectory at each of its steps.  The sign is that of the scaling-mode
    coefficient of a row's deviation from the reference when the row
    retires, and the defect is its largest relative solve defect.  A row
    retires when its deviation leaves its tube (radius ``tubes[i]``; the
    exit tau is that step's time), when it reaches the horizon (exit tau
    None unless it leaves the tube on the last step), or when its step
    fails the negativity or blowup guard; that counts as a departure at
    the time of its last valid state, which it is classified from.  The
    deviation is measured against the simultaneously evolved unperturbed
    trajectory, so the O(h^2) steady-state residual (which seeds the
    scaling instability identically in both runs) cancels and the
    functional isolates the perturbation's own unstable content.
    """
    w = r2_mass_weights(run.grid)
    dt = run.dt
    run.start(rows)
    live = np.arange(len(rows))   # input index of each row still running
    out = [None] * len(rows)

    def retire(i, state, k, exited):
        coef = float(np.real(projection.coefficient(state - ref_states[k])))
        out[live[i]] = ((1 if coef >= 0.0 else -1), dt * k if exited else None,
                        float(run.defect[i]))

    n_steps = len(ref_states) - 1
    for k in range(1, n_steps + 1):
        failed = run.step()
        if failed:
            for i in failed:
                retire(i, run.last[i], k - 1, True)
            stay = np.ones(len(live), dtype=bool)
            stay[list(failed)] = False
            run.keep(stay)
            live = live[stay]
        dist = np.sqrt(np.sum(w * (run.psi - ref_states[k]) ** 2, axis=-1))
        outside = dist > tubes[live]
        done = outside | (k == n_steps)
        if np.any(done):
            for i in np.flatnonzero(done):
                retire(i, run.psi[i], k, bool(outside[i]))
            run.keep(~done)
            live = live[~done]
        if not live.size:
            break
    return out


def _lookahead(lo: float, hi: float, depth: int) -> list:
    """Every midpoint the next ``depth`` bisection levels of [lo, hi] can use."""
    if depth == 0:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _lookahead(lo, mid, depth - 1) + _lookahead(mid, hi, depth - 1)


class _Bisection:
    """One shooting bisection, advanced a round of _LOOKAHEAD levels at a time.

    ``wanted()`` lists the amplitudes the next round must integrate (the
    bracket ends in the first round, then the look-ahead midpoints);
    ``walk(runs)`` takes the departures of those runs, keyed by amplitude,
    and bisects through them exactly as a one-run-at-a-time bisection
    would, setting ``result`` once the width falls below ``_WIDTH_TOL``
    times the initial width and a_star has been run.
    """

    def __init__(self, eps: np.ndarray, tube: float, bracket, ref_defect: float):
        self.eps, self.tube = eps, tube
        self.lo, self.hi = float(bracket[0]), float(bracket[1])
        self.width0 = self.hi - self.lo
        self.sign_lo = self.sign_hi = None   # set by the first walk
        self.trail = []
        self.defect = ref_defect
        self.result = None

    def wanted(self) -> list:
        ends = [] if self.trail else [self.lo, self.hi]
        return ends + _lookahead(self.lo, self.hi, _LOOKAHEAD)

    def walk(self, runs: dict) -> None:
        self.defect = max(self.defect, *(run[2] for run in runs.values()))

        def use(a):
            sign, tau, _ = runs[a]
            self.trail.append((a, sign, tau))
            return sign, tau

        if not self.trail:
            self.sign_lo, _ = use(self.lo)
            self.sign_hi, _ = use(self.hi)
            if self.sign_lo == self.sign_hi:
                raise ValueError(f"departure sign {self.sign_lo} identical "
                                 "at both bracket ends")
        for _ in range(_LOOKAHEAD):
            mid = 0.5 * (self.lo + self.hi)
            sign, tau = use(mid)
            if self.hi - self.lo <= _WIDTH_TOL * self.width0:
                self.result = ShootingResult(
                    a_star=mid, bracket_width=self.hi - self.lo,
                    converged=tau is None, departure_sign_low=self.sign_lo,
                    departure_sign_high=self.sign_hi, trail=self.trail,
                    max_solve_defect=self.defect)
                return
            if sign == self.sign_lo:
                self.lo = mid
            else:
                self.hi = mid


def shoot_stable_manifold(stable_perturbations, bracket, projection,
                          base_profile: np.ndarray, dt: float = 0.01,
                          horizon: float = 8.0) -> list[ShootingResult]:
    """Bisection over the unstable amplitude a in Psi_0 = Q + eps_s0 + a LQ/||LQ||.

    Runs one bisection per stable perturbation eps_s0 (RadialFunctions on
    one grid) over the same bracket and returns one ShootingResult for each,
    in order.  The departure functional is the sign of the scaling-mode
    coefficient at the exit time, the first tau at which the deviation
    from the reference flow (started at the unperturbed base profile)
    leaves the tube of radius ``_TUBE_FACTOR`` times the initial deviation
    size.  The base point is normally the discrete steady profile, about
    which the reference flow is stationary; ``projection`` should then come
    from ``flow_linearization`` about it so that the prepared data is stable
    for the discrete dynamics that actually run.  The bracket must produce
    opposite departure signs; bisection stops when its width falls below
    ``_WIDTH_TOL`` times the initial width, and the result is converged when
    the matched amplitude stays in the tube for the whole horizon.

    The bisections run in lockstep against one reference trajectory: each
    round integrates, as one batch, the next ``_LOOKAHEAD`` levels of every
    unfinished bisection (the bracket ends too in the first round).  Every
    row of a batch is computed as it would be alone, and the bisection
    walks the same midpoints as one run at a time, so each result equals
    that of its own one-perturbation shooting.
    """
    grid = stable_perturbations[0].grid
    w = r2_mass_weights(grid)
    lam_q = profile.lambda_q(grid.nodes)
    lam_q = lam_q / np.sqrt(np.sum(w * lam_q ** 2))
    ref = nonlinear_radial_evolve(RadialFunction(grid, base_profile), dt,
                                  horizon, keep_states=True)
    run = _ImexRows(grid, dt)
    searches = []
    for eps_s0 in stable_perturbations:
        size0 = np.sqrt(np.sum(w * eps_s0.values ** 2))
        if size0 == 0.0:
            size0 = _WIDTH_TOL * (float(bracket[1]) - float(bracket[0]))
        searches.append(_Bisection(eps_s0.values, _TUBE_FACTOR * size0,
                                   bracket, ref.max_solve_defect))
    pending = searches
    while pending:
        batch = [(s, a) for s in pending for a in s.wanted()]
        found = _departures(
            run, np.array([base_profile + s.eps + a * lam_q for s, a in batch]),
            np.array([s.tube for s, _ in batch]), ref.states, projection)
        for s in pending:
            s.walk({a: departure for (owner, a), departure in zip(batch, found)
                    if owner is s})
        pending = [s for s in pending if s.result is None]
    return [s.result for s in searches]
