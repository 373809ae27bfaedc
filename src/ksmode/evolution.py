"""Time integration of the renormalized flow, linear and nonlinear.

Linear runs integrate d_tau eps = -L_l eps with Crank-Nicolson (one dense
LU factorization, reused every step) and record L^2(r^2 dr) norms plus the
coefficients against supplied left modes; the fitted growth rates reproduce
the eigenvalues +1 and +1/2 of the scaling and translation modes.

Nonlinear runs integrate the radial renormalized equation

    d_tau Psi = Delta_0 Psi - (1/2) Lambda Psi + (1/r^2) d_r(r^2 Psi D_2^{-1} Psi)

with an IMEX scheme: the stiff linear part is Crank-Nicolson (its matrix is
banded, so one banded LU, reused every step, makes a step O(n)), the flux
term second-order Adams-Bashforth after a predictor-corrector first step.
The blowup profile is the steady state; a shooting experiment tunes the
amplitude of the unstable direction so that stably-perturbed data relaxes
back to the profile, the desk-scale analog of the stable-manifold matching.

Evolution grids default to uniform spacing: the flux term is explicit, so
node clustering near the origin would only tighten its CFL restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import profile
from .operators import assemble_Ll, r2_mass_weights, OperatorMatrix
from .radial import EvenPrefixIntegral, RadialFunction, RadialGrid, \
    cumulative_power_integral, fd_deriv1

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
    scheme: str
    dt: float
    l: int | None
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


def _check_solve(lhs, x, rhs, lhs_norm) -> float:
    """Relative defect of the solve x of lhs x = rhs; raises past _SOLVE_TOL."""
    defect = np.linalg.norm(lhs @ x - rhs)
    denom = lhs_norm * np.linalg.norm(x) + np.linalg.norm(rhs)
    if defect > _SOLVE_TOL * denom:
        raise EvolutionError(f"implicit solve defect {defect:.2e} too large")
    return defect / denom if defect else 0.0


class _BandMatrix:
    """A matrix with kl subdiagonals and ku superdiagonals, kept as diagonals.

    ``@`` applies it in O(n); after ``factor()`` (LAPACK gbtrf), ``solve``
    runs gbtrs.  The diagonals sit in LAPACK band layout: row ku + i - j of
    ``band`` holds m[i, j].
    """

    def __init__(self, m: np.ndarray, kl: int, ku: int):
        n = m.shape[0]
        self.kl, self.ku = kl, ku
        self.band = np.zeros((kl + ku + 1, n), dtype=m.dtype)
        self._offdiag = []   # (rows, diagonal, columns) of each off-diagonal
        for k in range(-kl, ku + 1):
            lo, hi = max(-k, 0), n - max(k, 0)
            self.band[ku - k, lo + k:hi + k] = np.diagonal(m, k)
            if k:
                cols = slice(lo + k, hi + k)
                self._offdiag.append((slice(lo, hi), self.band[ku - k, cols], cols))

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        out = self.band[self.ku] * y
        for rows, diagonal, cols in self._offdiag:
            out[rows] += diagonal * y[cols]
        return out

    def factor(self) -> None:
        gbtrf, self._gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"),
                                                           (self.band,))
        # gbtrf keeps the fill-in of its row pivoting in kl extra top rows
        fill = np.zeros((self.kl, self.band.shape[1]), dtype=self.band.dtype)
        self._lu, self._piv, info = gbtrf(np.vstack((fill, self.band)),
                                          self.kl, self.ku)
        if info != 0:
            raise EvolutionError("banded LU of the implicit matrix failed "
                                 f"(LAPACK info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs) and not np.iscomplexobj(self._lu):
            # gbtrs is typed: solve the real and imaginary parts together
            x = self.solve(np.column_stack((rhs.real, rhs.imag)))
            return x[:, 0] + 1j * x[:, 1]
        return self._gbtrs(self._lu, self.kl, self.ku, rhs, self._piv)[0]


def _crank_nicolson(a: np.ndarray, dt: float):
    """Crank-Nicolson for y' = -A y.

    Returns ``(explicit, solve, worst)``: ``explicit @ y`` is
    (I - dt/2 A) y, ``solve(rhs)`` is (I + dt/2 A)^{-1} rhs with every
    solve checked by _check_solve, and ``worst()`` is the largest relative
    defect of the solves so far.  When the band storage of A is smaller than
    the dense matrix (the local IMEX operator has one subdiagonal and, from
    the origin ghost, two superdiagonals) the left side is factored once by
    LAPACK gbtrf and both sides are applied from their diagonals, so a step
    is O(n); a dense A such as L_l gets one dense LU.
    """
    n = a.shape[0]
    eye = np.eye(n)
    lhs = eye + 0.5 * dt * a
    explicit = eye - 0.5 * dt * a
    lhs_norm = np.linalg.norm(lhs, np.inf)
    kl, ku = scipy.linalg.bandwidth(a)
    if 2 * kl + ku + 1 < n:   # gbtrf's band storage is (2 kl + ku + 1) x n
        lhs = _BandMatrix(lhs, kl, ku)
        explicit = _BandMatrix(explicit, kl, ku)
        lhs.factor()
        backsolve = lhs.solve
    else:
        lu = scipy.linalg.lu_factor(lhs)

        def backsolve(rhs):
            return scipy.linalg.lu_solve(lu, rhs)

    worst = 0.0

    def solve(rhs):
        nonlocal worst
        x = backsolve(rhs)
        worst = max(worst, _check_solve(lhs, x, rhs, lhs_norm))
        return x

    return explicit, solve, lambda: worst


def linear_evolve(l: int, eps0: RadialFunction, dt: float, horizon: float,
                  op: OperatorMatrix | None = None, projection=None,
                  keep_states: bool = False) -> EvolutionTrace:
    """Crank-Nicolson integration of d_tau eps = -L_l eps.

    Records the L^2(r^2 dr) norm each step and, when a ProjectionPair is
    supplied, the coefficient against its left mode.
    """
    n_steps = step_count(dt, horizon)
    grid = eps0.grid
    explicit, solve, worst_defect = _crank_nicolson(
        (op or assemble_Ll(l, grid)).entries, dt)
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
    for k in range(1, n_steps + 1):
        eps = solve(explicit @ eps)
        record(k, eps)
    return EvolutionTrace(times=times, norms=norms,
                          mode_coeffs=np.array(coeffs) if coeffs else None,
                          scheme="crank-nicolson", dt=dt, l=l,
                          states=np.array(states) if states else None,
                          max_solve_defect=worst_defect())


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
        self.cell_cubes = np.diff(np.concatenate(([0.0], mids ** 3, [r_out ** 3])))


def _nl_rhs(values, flux: FluxGeometry) -> np.ndarray:
    """The flux term N(psi) at nodal data, in the form FluxGeometry describes."""
    psi = np.asarray(values)
    cum = flux.mass(psi)
    cum_mid = cum[:-1] + flux.cu * psi[:-1] + flux.cv * psi[1:]
    phi_mid = 0.5 * (psi[:-1] + psi[1:]) * cum_mid
    phi = np.concatenate(([0.0], phi_mid, [0.5 * psi[-1] * cum[-1]]))
    return 3.0 * np.diff(phi) / flux.cell_cubes


def nonlinear_radial_evolve(psi0: RadialFunction, dt: float, horizon: float,
                            keep_states: bool = False,
                            stop_when=None) -> EvolutionTrace:
    """IMEX (Crank-Nicolson + AB2) integration of the radial renormalized flow.

    The linear part -Delta_0 + (1/2) Lambda is implicit with one reused
    banded LU; the quadratic flux is explicit (AB2 after a
    predictor-corrector start).
    A step driving min(Psi) below -_NEGATIVITY_TOL ||Psi||_inf or blowing
    up the norm raises EvolutionError with the last valid state; the trace
    flags any run whose boundary value exceeds 1e-6 ||Psi||_inf.  An
    optional ``stop_when(state, step_index)`` predicate truncates the run
    (the offending state is kept in the trace).
    """
    n_steps = step_count(dt, horizon)
    grid = psi0.grid
    explicit, solve, worst_defect = _crank_nicolson(
        assemble_Ll(0, grid, zero_profile=True).entries, dt)
    flux = FluxGeometry(grid)
    w = r2_mass_weights(grid)
    psi = psi0.values.astype(float).copy()
    scale0 = np.max(np.abs(psi))
    times = dt * np.arange(n_steps + 1)
    norms = np.empty(n_steps + 1)
    states = [psi.copy()] if keep_states else None
    boundary_flag = False
    norms[0] = np.sqrt(np.sum(w * psi ** 2))

    def advance(current, flux_term, k):
        new = solve(explicit @ current + dt * flux_term)
        scale = np.max(np.abs(new))
        if np.min(new) < -_NEGATIVITY_TOL * max(scale, scale0):
            raise EvolutionError(
                f"density negativity {np.min(new):.2e} at tau = {times[k]:.3f}",
                tau=times[k - 1], state=current)
        if not np.isfinite(scale) or scale > 1e6 * max(scale0, 1.0):
            raise EvolutionError(
                f"norm blowup at tau = {times[k]:.3f}", tau=times[k - 1],
                state=current)
        return new

    n_prev = _nl_rhs(psi, flux)
    # predictor-corrector first step keeps the start O(dt^2)
    pred = solve(explicit @ psi + dt * n_prev)
    psi = advance(psi, 0.5 * (n_prev + _nl_rhs(pred, flux)), 1)
    n_cur = _nl_rhs(psi, flux)
    last = n_steps
    for k in range(1, n_steps + 1):
        if k > 1:
            psi = advance(psi, 1.5 * n_cur - 0.5 * n_prev, k)
            n_prev, n_cur = n_cur, _nl_rhs(psi, flux)
        norms[k] = np.sqrt(np.sum(w * psi ** 2))
        if abs(psi[-1]) > 1e-6 * np.max(np.abs(psi)):
            boundary_flag = True
        if states is not None:
            states.append(psi.copy())
        if stop_when is not None and stop_when(psi, k):
            last = k
            break
    return EvolutionTrace(times=times[:last + 1], norms=norms[:last + 1],
                          mode_coeffs=None, scheme="imex-cnab2", dt=dt, l=None,
                          states=np.array(states) if states is not None else None,
                          boundary_flag=boundary_flag,
                          max_solve_defect=worst_defect())


def _flux_jacobian(base: np.ndarray, flux: FluxGeometry) -> np.ndarray:
    """Exact Jacobian of the (quadratic) finite-volume flux at ``base``."""
    n = base.size
    jac = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        jac[:, j] = 0.5 * (_nl_rhs(base + e, flux) - _nl_rhs(base - e, flux))
        e[j] = 0.0
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
    return OperatorMatrix(grid=grid, l=0, tag="Ll",
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
    dm = fd_deriv1(mbar, r)
    d2m = fd_deriv1(dm, r)
    rhs = d2m - (2.0 / r + 0.5 * r) * dm + 0.5 * mbar + mbar * dm / (r * r)
    mbar_step = mbar + dt * rhs
    trace = nonlinear_radial_evolve(psi, dt, dt, keep_states=True)
    psi1 = RadialFunction(grid, trace.states[-1])
    mbar_psi = mass(psi1.values)
    return float(4.0 * np.pi * np.max(np.abs(mbar_step - mbar_psi)))


def _departure(psi0_vals, grid, ref_states, size0, projection, dt, horizon):
    """Evolve and report (sign of the scaling-mode coefficient, exited?).

    The deviation is measured against the simultaneously evolved
    unperturbed trajectory, so the O(h^2) steady-state residual (which
    seeds the scaling instability identically in both runs) cancels and
    the functional isolates the perturbation's own unstable content.
    """
    w = r2_mass_weights(grid)
    tube = _TUBE_FACTOR * size0

    def outside(state, k):
        return np.sqrt(np.sum(w * (state - ref_states[k]) ** 2)) > tube

    try:
        trace = nonlinear_radial_evolve(RadialFunction(grid, psi0_vals), dt,
                                        horizon, keep_states=True,
                                        stop_when=outside)
        state = trace.states[-1]
        k = len(trace.states) - 1
        exited = bool(outside(state, k))
    except EvolutionError as err:
        # negativity/blowup counts as departure; classify the last valid state
        state = err.state
        k = int(round(err.tau / dt))
        exited = True
    dev = state - ref_states[k]
    coef = float(np.real(projection.coefficient(dev)))
    return (1 if coef >= 0.0 else -1), exited


def shoot_stable_manifold(eps_s0: RadialFunction, bracket, projection,
                          base_profile: np.ndarray, dt: float = 0.01,
                          horizon: float = 8.0) -> ShootingResult:
    """Bisection over the unstable amplitude a in Psi_0 = Q + eps_s0 + a LQ/||LQ||.

    The departure functional is the sign of the scaling-mode coefficient at
    the exit time, the first tau at which the deviation from the reference
    flow (started at the unperturbed base profile) leaves the tube of
    radius ``_TUBE_FACTOR`` times the initial deviation size.  The base
    point is normally the discrete steady profile, about which the
    reference flow is stationary; ``projection`` should then come from
    ``flow_linearization`` about it so that the prepared data is stable for
    the discrete dynamics that actually run.  The bracket must produce opposite
    departure signs; bisection stops when its width falls below
    ``_WIDTH_TOL`` times the initial width, and the result is converged when
    the matched amplitude stays in the tube for the whole horizon.
    """
    grid = eps_s0.grid
    r = grid.nodes
    w = r2_mass_weights(grid)
    lam_q = profile.lambda_q(r)
    lam_q = lam_q / np.sqrt(np.sum(w * lam_q ** 2))
    ref = nonlinear_radial_evolve(RadialFunction(grid, base_profile), dt,
                                  horizon, keep_states=True).states
    size0 = np.sqrt(np.sum(w * eps_s0.values ** 2))
    if size0 == 0.0:
        size0 = _WIDTH_TOL * (float(bracket[1]) - float(bracket[0]))

    def run(a):
        vals = base_profile + eps_s0.values + a * lam_q
        return _departure(vals, grid, ref, size0, projection, dt, horizon)

    a_lo, a_hi = float(bracket[0]), float(bracket[1])
    width0 = a_hi - a_lo
    sign_lo, _ = run(a_lo)
    sign_hi, _ = run(a_hi)
    if sign_lo == sign_hi:
        raise ValueError(
            f"departure sign {sign_lo} identical at both bracket ends")
    while a_hi - a_lo > _WIDTH_TOL * width0:
        mid = 0.5 * (a_lo + a_hi)
        sign_mid, _ = run(mid)
        if sign_mid == sign_lo:
            a_lo = mid
        else:
            a_hi = mid
    a_star = 0.5 * (a_lo + a_hi)
    _, exited = run(a_star)
    return ShootingResult(a_star=a_star, bracket_width=a_hi - a_lo,
                          converged=not exited,
                          departure_sign_low=sign_lo,
                          departure_sign_high=sign_hi)
