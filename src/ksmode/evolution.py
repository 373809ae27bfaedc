"""Time integration of the renormalized flow, linear and nonlinear.

Linear runs integrate d_tau eps = -L_l eps with Crank-Nicolson (one dense
LU factorization, reused every step; a step is one solve on it, and one
product checks the solves of a block of steps) and record L^2(r^2 dr)
norms plus the coefficients against supplied left modes; the fitted growth
rates reproduce the eigenvalues +1 and +1/2 of the scaling and translation
modes.

Nonlinear runs integrate the radial renormalized equation

    d_tau Psi = Delta_0 Psi - (1/2) Lambda Psi + (1/r^2) d_r(r^2 Psi D_2^{-1} Psi)

with an IMEX scheme: the stiff linear part is Crank-Nicolson on the band
of the local operator (operators.local_band; one banded LU, reused every
step, makes a step O(n)), the flux term second-order Adams-Bashforth after
a predictor-corrector first step.  One stepper advances a stack of
independent states, the rows of a plain (m, n) array, with row-wise
arithmetic only: the band product and solve act on each row alone
(operators.BandMatrix), the flux term's neighbour terms are shifted slices
along the rows.  So a row gets the same bits in a batch as alone.  One
loop steps it (_departures): the plain flow is its reference row alone.
The blowup profile is the steady state; a shooting experiment tunes the
amplitude of the unstable direction so that stably-perturbed data relaxes
back to the profile, the desk-scale analog of the stable-manifold matching.
Its searches run in lockstep, each round integrating the runs every search
needs next as one batch, and the unperturbed reference run rides as row 0
of the first; each search is one generator (_search, which describes it)
that the driver sends its departures.  A search solves for the root of
the scaling-mode coefficient at the horizon by secant steps kept inside
its sign bracket, so criterion 8's two searches take 2 rounds.

Evolution grids default to uniform spacing: the flux term is explicit, so
node clustering near the origin would only tighten its CFL restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import profile
# assemble_Ll is unused here, but ksbench's traced run checks that it
# rebinds the name in this module too
from .operators import BandMatrix, DenseLU, OperatorMatrix, assemble_Ll, \
    local_band
from .radial import RadialFunction, RadialGrid, \
    cumulative_power_integral, fd_deriv, panel_coefficients

__all__ = [
    "EvolutionTrace", "ShootingResult", "EvolutionError", "linear_evolve",
    "nonlinear_radial_evolve", "FluxGeometry", "partial_mass", "step_count",
    "partial_mass_crosscheck", "shoot_stable_manifold", "fit_rate",
]

_SOLVE_TOL = 1e-10
_NEGATIVITY_TOL = 1e-8  # relative undershoot below zero that fails a step
_TUBE_FACTOR = 10.0     # shooting tube radius in units of the initial deviation
_WIDTH_TOL = 1e-8       # shooting stops at a step below this fraction of the bracket
_NEWTON_TOL = 1e-12     # steady-state Newton residual, relative to max |Q|
_NEWTON_MAX_ITER = 12
_JACOBIAN_ROWS = 32     # flux-Jacobian columns per row-batched flux call
_CHECK_BLOCK = 64       # linear steps whose solve defects one product checks
# Value limit of a stored trace.  The nonlinear flow keeps every state,
# 8 (steps + 1) n bytes, 256 MiB at this limit; its norms, taken from the
# stored states after the run, need two temporaries of that size.
_MAX_TRACE_VALUES = 2 ** 25


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
    max_solve_defect: float = 0.0   # largest relative defect of an implicit solve


@dataclass
class ShootingResult:
    a_star: float
    step: float               # size of the step the search stopped at
    converged: bool
    departure_sign_low: int
    departure_sign_high: int
    # (a, departure sign, exit tau or None) of every run, in the order the
    # search integrated them: the bracket ends, its midpoint m and m + delta,
    # then one run a round; a_star is the last
    trail: list
    max_solve_defect: float   # largest relative implicit-solve defect
    rounds: int               # batched rounds of integration the search took


def fit_rate(trace: EvolutionTrace, window=(0.0, None)) -> float:
    """Least-squares exponential rate of the norm history over a tau window;
    EvolutionError when the window holds fewer than two positive norms."""
    t0, t1 = window
    t1 = trace.times[-1] if t1 is None else t1
    mask = (trace.times >= t0) & (trace.times <= t1) & (trace.norms > 0.0)
    count = np.count_nonzero(mask)
    if count < 2:
        raise EvolutionError(f"no rate: {count} positive norms in the window "
                             f"tau in [{t0:g}, {t1:g}]")
    return float(np.polyfit(trace.times[mask], np.log(trace.norms[mask]), 1)[0])


def step_count(dt: float, horizon: float, width: int = 1) -> int:
    """Number of steps of size dt to ``horizon``; ValueError on a bad pair,
    or when a trace of ``width`` values per step passes _MAX_TRACE_VALUES."""
    if not 0.0 < dt <= 0.05:
        raise ValueError(f"dt = {dt} outside (0, 0.05]")
    steps = horizon / dt
    n_steps = round(steps) if np.isfinite(steps) else 0
    if n_steps < 1:
        raise ValueError(f"horizon = {horizon} is shorter than one step dt = {dt}")
    if abs(steps - n_steps) > 1e-9 * steps:
        raise ValueError(f"horizon = {horizon} is not a whole multiple of dt = {dt}")
    if (n_steps + 1) * width > _MAX_TRACE_VALUES:
        raise ValueError(f"a trace of {n_steps + 1} steps of {width} values "
                         f"passes the limit of {_MAX_TRACE_VALUES} values")
    return n_steps


def _check_solve(x, product, rhs, lhs_norm):
    """Relative defect of the Crank-Nicolson solve x of (I + dt/2 A) x = rhs,
    per row of a stack, from ``product`` = (I - dt/2 A) x.

    The two sides sum to 2I, so (I + dt/2 A) x is 2x - product: exact off
    the diagonal and one rounding on it.  Raises EvolutionError when the
    defect of any row passes _SOLVE_TOL relative to that row's own scale.
    The plain sums of squares overflow for states above about 1e153: a row
    whose sum is not finite gets its three norms again from its data
    scaled by the row's largest magnitude.
    """
    # the residual, x and rhs side by side, so one reduction gives the
    # norms of all three, row by row
    rows = np.empty((3,) + np.shape(x), dtype=np.result_type(x, product, rhs))
    np.multiply(x, 2.0, out=rows[0])
    rows[0] -= product
    rows[0] -= rhs
    rows[1], rows[2] = x, rhs
    norms = np.sqrt(np.einsum("k...i,k...i->k...", rows, rows.conj()).real)
    over = ~np.isfinite(norms).all(axis=0)
    if over.any():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scale = np.max(np.abs(rows), axis=(0, -1))
            scaled = rows / scale[..., None]
            rescaled = scale * np.sqrt(
                np.einsum("k...i,k...i->k...", scaled, scaled.conj()).real)
        # a row with a non-finite entry keeps its plain norms
        norms = np.where(over & np.isfinite(scale), rescaled, norms)
    defect, x_norm, rhs_norm = norms
    denom = lhs_norm * x_norm + rhs_norm
    bad = defect > _SOLVE_TOL * denom
    if bad.any():
        i = np.flatnonzero(bad)[0]
        row = f" in row {i}" if np.ndim(x) > 1 else ""
        raise EvolutionError(f"implicit solve defect "
                             f"{np.ravel(defect)[i]:.2e} too large{row}")
    return np.divide(defect, denom, out=np.zeros_like(defect), where=defect > 0)


def _crank_nicolson(a: BandMatrix, dt: float):
    """Crank-Nicolson for y' = -A y on the band of A.

    Returns ``(explicit, solve)``: ``explicit @ y`` is (I - dt/2 A) y and
    ``solve(rhs)`` returns x = (I + dt/2 A)^{-1} rhs, ``explicit @ x``
    (the next step's explicit half) and the relative defect from
    _check_solve, which checks every solve with that product, so a step
    makes one product with the operator.  Both sides stay on the band:
    the left side is factored once by LAPACK gbtrf, so a step is O(n) and
    takes a stack of rows.
    """
    lhs, explicit = a.eye_plus(0.5 * dt), a.eye_plus(-0.5 * dt)
    lhs_norm = lhs.norm_inf()
    lhs.factor()

    def solve(rhs):
        x = lhs.solve(rhs)
        product = explicit @ x
        return x, product, _check_solve(x, product, rhs, lhs_norm)

    return explicit, solve


def linear_evolve(op: OperatorMatrix, eps0: RadialFunction, dt: float,
                  horizon: float, projection=None) -> EvolutionTrace:
    """Crank-Nicolson integration of d_tau eps = -A eps for the operator ``op``.

    (I + dt/2 A)^{-1} (I - dt/2 A) = 2 (I + dt/2 A)^{-1} - I, so a step is
    eps_{k+1} = 2 y_k - eps_k with y_k = (I + dt/2 A)^{-1} eps_k: one solve
    on the one dense LU and no product with the operator, which keeps the
    LU alone in cache.  The solves are checked in blocks of _CHECK_BLOCK
    steps: one product (I - dt/2 A) Y of the block's solutions gives
    _check_solve a defect row for every step, and the first failing step
    raises.  Records the L^2(r^2 dr) norm each step and, when a
    ProjectionPair is supplied, the coefficient against its left mode.  A
    norm that overflows raises EvolutionError with that state and its
    time, once the solves up to that step are checked: the norm squares
    the state, so it overflows while the state itself is still finite.
    """
    n_steps = step_count(dt, horizon)
    grid = eps0.grid
    eye = np.eye(grid.n)
    lhs, explicit = eye + 0.5 * dt * op.entries, eye - 0.5 * dt * op.entries
    lhs_norm = np.linalg.norm(lhs, np.inf)
    lu = DenseLU(lhs)
    eps = eps0.values.astype(complex if np.iscomplexobj(eps0.values) else float)
    times = dt * np.arange(n_steps + 1)
    norms = np.empty(n_steps + 1)
    coeffs = [] if projection is not None else None
    # right sides and solutions of the block's steps, one row a step
    rhs = np.empty((_CHECK_BLOCK, grid.n), dtype=eps.dtype)
    sol = np.empty_like(rhs)
    worst = 0.0

    def check(first, count):
        """Check the solves of the ``count`` steps from step ``first``."""
        nonlocal worst
        x = sol[:count]
        try:
            defect = _check_solve(x, x @ explicit.T, rhs[:count], lhs_norm)
        except EvolutionError as err:   # its row counts steps from ``first``
            raise EvolutionError(f"{err} of the steps from tau = "
                                 f"{times[first]:.3f}", tau=times[first - 1],
                                 state=rhs[0].copy()) from None
        worst = max(worst, float(np.max(defect)))

    def record(k, vec):
        with np.errstate(over="ignore"):   # caught on the next line
            norms[k] = grid.norm(vec)
        if not np.isfinite(norms[k]):
            raise EvolutionError(f"L^2 norm overflow at tau = {times[k]:.3f}",
                                 tau=times[k], state=vec)
        if coeffs is not None:
            coeffs.append(projection.coefficient(vec))

    record(0, eps)
    for first in range(1, n_steps + 1, _CHECK_BLOCK):
        block = range(min(_CHECK_BLOCK, n_steps + 1 - first))
        try:
            for j in block:
                rhs[j] = eps
                sol[j] = lu.solve(eps)
                eps = 2.0 * sol[j] - eps
                record(first + j, eps)
        except EvolutionError:
            check(first, j + 1)   # a failed solve before the overflow raises first
            raise
        check(first, len(block))
    return EvolutionTrace(times=times, norms=norms,
                          mode_coeffs=np.array(coeffs) if coeffs else None,
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
    the half-panel moments and the cell volumes depend only on the nodes,
    and the mass integral is the grid's own.
    """

    def __init__(self, grid: RadialGrid):
        r = grid.nodes
        self.mass = grid.prefix_integral(2.0)   # int_0^r psi s^2 ds
        mids = 0.5 * (r[:-1] + r[1:])
        # int_u^mid psi s^2 ds = cu psi_u + cv psi_v on the interpolant
        self.cu, self.cv = panel_coefficients(2.0, r, mids)
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
    inner = cum_mid[..., :-1]
    part = flux.cu * psi[..., :-1]
    inner += part
    inner += np.multiply(flux.cv, psi[..., 1:], out=part)
    phi = np.empty_like(psi)
    np.add(psi[..., :-1], psi[..., 1:], out=phi[..., :-1])
    phi[..., -1] = psi[..., -1]
    phi *= 0.5
    phi *= cum_mid
    # the inner face of the first cell is 0; cum_mid's buffer takes the
    # face differences
    out = cum_mid
    out[..., 0] = phi[..., 0]
    np.subtract(phi[..., 1:], phi[..., :-1], out=out[..., 1:])
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
        self._set_bound()
        self.defect = np.zeros(len(self.psi))
        self.k = 0
        self._n_prev = None   # flux term of the state one step back
        return self

    def _set_bound(self):
        # the smallest blowup bound of the rows, at most the largest float
        self._bound = np.min(1e6 * np.maximum(self.scale0, 1.0),
                             initial=np.finfo(float).max)

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
        new = self.psi
        # every entry in [0, the smallest blowup bound]: both guards pass
        if len(new) and new.min() >= 0.0 and new.max() <= self._bound:
            return {}
        tau = self.dt * self.k
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
        self._set_bound()


def nonlinear_radial_evolve(psi0: RadialFunction, dt: float,
                            horizon: float) -> EvolutionTrace:
    """IMEX (Crank-Nicolson + AB2) integration of the radial renormalized flow.

    The plain flow is the reference row of _departures alone, stepped by
    its one stepping loop; the trace keeps the state of every step, and
    the norms are taken from the stored states in one stacked pass after
    the run.  A step driving min(Psi) below -_NEGATIVITY_TOL ||Psi||_inf
    or blowing up the norm raises EvolutionError with the last valid state.
    """
    grid = psi0.grid
    n_steps = step_count(dt, horizon, grid.n)
    states = np.empty((n_steps + 1, grid.n))
    (_, _, _, defect), = _departures(_ImexRows(grid, dt), psi0.values[None],
                                     np.array([np.inf]), states, None, True)
    return EvolutionTrace(times=dt * np.arange(n_steps + 1),
                          norms=grid.norm(states), mode_coeffs=None,
                          states=states, max_solve_defect=defect)


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


def discrete_steady_profile(grid: RadialGrid) -> tuple[np.ndarray, OperatorMatrix]:
    """Newton solve for the stepper's own steady state near the profile.

    The IMEX scheme's fixed points are exactly the solutions of
    (-Delta_0 + Lambda/2) Psi = N(Psi) in its discretization; the solution
    differs from the continuum profile by the O(h^2) truncation of the
    grid.  Shooting experiments use it as base point so that the reference
    flow sits still instead of drifting along the scaling instability.

    Returns the state and the Newton matrix at it, the stepper's own
    discrete linearization L = (-Delta_0 + Lambda/2) - N'(state), built
    from the implicit matrix and finite-volume flux the stepper uses.  The
    flux is exactly quadratic, so symmetric differencing with unit
    increments gives its Jacobian without truncation error.  The implicit
    matrix is the dense form of the stepper's band (``local_band`` without
    the profile), so L agrees with the assembled class-0 operator to O(h^2).
    """
    lin = local_band(0, grid, zero_profile=True).toarray()
    flux = FluxGeometry(grid)
    psi = profile.q(grid.nodes)
    scale = np.max(np.abs(psi))
    for _ in range(_NEWTON_MAX_ITER):
        res = -lin @ psi + _nl_rhs(psi, flux)
        # lin - N'(psi) in the Jacobian's buffer: no third n x n array
        jac = _flux_jacobian(psi, flux)
        np.subtract(lin, jac, out=jac)
        if np.max(np.abs(res)) < _NEWTON_TOL * scale:
            # the residual test is relative to the profile's size, so an
            # iterate that collapsed onto the trivial steady state passes it
            size = np.max(np.abs(psi))
            if size < _NEWTON_TOL * scale:
                raise EvolutionError(
                    "Newton iteration collapsed onto the trivial steady state "
                    f"psi = 0 (max |psi| = {size:.2e} against max |Q| = "
                    f"{scale:.2e}): the grid is too coarse for the profile")
            return psi, OperatorMatrix(grid=grid, l=0, entries=jac)
        psi = psi + scipy.linalg.solve(jac, res)
    raise EvolutionError("Newton iteration for the discrete steady state "
                         f"stalled at residual {np.max(np.abs(res)):.2e}")


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
    mass = grid.prefix_integral(2.0)
    mbar = mass(psi.values)
    dm = fd_deriv(mbar, grid, 1)
    d2m = fd_deriv(dm, grid, 1)
    rhs = d2m - (2.0 / r + 0.5 * r) * dm + 0.5 * mbar + mbar * dm / (r * r)
    mbar_step = mbar + dt * rhs
    trace = nonlinear_radial_evolve(psi, dt, dt)
    psi1 = RadialFunction(grid, trace.states[-1])
    mbar_psi = mass(psi1.values)
    return float(4.0 * np.pi * np.max(np.abs(mbar_step - mbar_psi)))


def _departures(run: _ImexRows, rows: np.ndarray, tubes: np.ndarray,
                ref_states: np.ndarray, projection,
                reference: bool = False) -> list:
    """Evolve a stack of initial states; per row (sign, coefficient, exit
    tau, defect).

    ``run`` is restarted on ``rows``, and ``ref_states`` holds the reference
    trajectory at each of its steps.  The coefficient is the scaling-mode
    coefficient of a row's deviation from the reference when the row
    retires, the sign is its sign (+1 at 0), and the defect is the row's
    largest relative solve defect.  A row retires when its deviation
    leaves its tube (radius ``tubes[i]``; the exit tau is that step's
    time), when it reaches the horizon (exit tau None unless it leaves the
    tube on the last step), or when its step fails the negativity or
    blowup guard; that counts as a departure at the time of its last valid
    state, which it is classified from.  The deviation is measured against
    the unperturbed trajectory, so the O(h^2) steady-state residual (which
    seeds the scaling instability identically in both runs) cancels and
    the functional isolates the perturbation's own unstable content.

    With ``reference``, row 0 is that unperturbed run itself, with an
    infinite tube: its state is written into ``ref_states`` at every step
    before the distances are taken, its coefficient is 0 with no projection
    or distance taken, and a guard failure of it raises EvolutionError with
    its last valid state.  Alone it is the plain flow (nonlinear_radial_evolve
    passes no ``projection``): this is the one IMEX stepping loop.
    Otherwise ``ref_states`` holds the whole trajectory already.
    """
    dt = run.dt
    run.start(rows)
    if reference:
        ref_states[0] = run.psi[0]
    tracked = int(reference)   # rows from here on take distances
    live = np.arange(len(rows))   # input index of each row still running
    out = [None] * len(rows)

    def retire(i, state, k, exited):
        coef = 0.0 if live[i] < tracked else float(
            np.real(projection.coefficient(state - ref_states[k])))
        out[live[i]] = ((1 if coef >= 0.0 else -1), coef,
                        dt * k if exited else None, float(run.defect[i]))

    n_steps = len(ref_states) - 1
    for k in range(1, n_steps + 1):
        failed = run.step()
        if failed:
            # the reference never retires early, so it stays row 0
            if reference and 0 in failed:
                raise EvolutionError(failed[0], tau=dt * (k - 1),
                                     state=run.last[0])
            for i in failed:
                retire(i, run.last[i], k - 1, True)
            stay = np.ones(len(live), dtype=bool)
            stay[list(failed)] = False
            run.keep(stay)
            live = live[stay]
        if reference:
            ref_states[k] = run.psi[0]
        outside = np.zeros(len(live), dtype=bool)
        if len(live) > tracked:
            outside[tracked:] = run.grid.norm(
                run.psi[tracked:] - ref_states[k]) > tubes[live[tracked:]]
        if k == n_steps or outside.any():
            done = outside | (k == n_steps)
            for i in np.flatnonzero(done):
                retire(i, run.psi[i], k, bool(outside[i]))
            run.keep(~done)
            live = live[~done]
        if not live.size:
            break
    return out


def _search(lo: float, hi: float, slope: float, tube: float):
    """One shooting search over the bracket [lo, hi], as a generator.

    It yields the amplitudes each round must integrate, is sent that
    round's departures, ``{a: (sign, coefficient, exit tau, defect)}``, and
    returns its ShootingResult.  The search solves c(a) = 0 for the
    scaling-mode coefficient c at the horizon; ``slope`` is the linear
    dc/da and ``tube`` the runs' tube radius.

    The first round integrates the bracket ends, which must be ordered and
    give opposite departure signs (ValueError otherwise), its midpoint m
    and m + delta, delta = 0.01 tube / |slope| (at most a quarter of the
    bracket): c moves by a hundredth of the tube across the pair, so near
    the root both stay in the tube.  Each later round integrates one
    amplitude: the secant root of the last two runs that stayed in the
    tube, or, with one such run, a Newton step of ``slope`` from it.  The
    departure signs keep a sign bracket of the root, closed at its ends
    (Brent's safeguard): the search bisects it when no in-tube run gives a
    step, when the step leaves it, when the last run after the first round
    left the tube, or when the bracket has not halved over the last two
    rounds, so every search ends.  It stops once the next step is no
    larger than _WIDTH_TOL times the width of [lo, hi]; a_star is then the
    last run, converged when that run stayed in the tube.  Near a simple
    root that step estimates the error of a_star, since the secant steps
    shrink faster than linearly; it bounds nothing.  On a flat root the
    steps shrink slowly and a_star can lie many steps from the root, and a
    secant through a far run can stop far from it: only the sign
    bracket, which the trail gives, holds the root.
    The result's max_solve_defect covers the search's runs; the driver
    adds the reference run's.
    """
    if not lo < hi:
        raise ValueError(f"shooting bracket ({lo}, {hi}) is empty")
    stop = _WIDTH_TOL * (hi - lo)
    mid, quarter = 0.5 * (lo + hi), 0.25 * (hi - lo)
    delta = min(0.01 * tube / abs(slope), quarter) if slope else quarter
    amplitudes = [lo, hi, mid, mid + delta]
    trail = []
    in_tube = []   # (a, c) of the runs that stayed in the tube, in order
    low, high = lo, hi   # sign bracket of the root
    widths = [np.inf, hi - lo]   # of the sign bracket, round by round
    worst = 0.0
    rounds = 0
    while True:
        runs = yield amplitudes
        rounds += 1
        if rounds == 1:
            sign_lo, sign_hi = runs[lo][0], runs[hi][0]
            if sign_lo == sign_hi:
                raise ValueError(f"departure sign {sign_lo} identical "
                                 "at both bracket ends")
        for a in amplitudes:
            sign, coef, tau, defect = runs[a]
            trail.append((a, sign, tau))
            worst = max(worst, defect)
            if tau is None:
                in_tube.append((a, coef))
            if low < a < high:
                if sign == sign_lo:
                    low = a
                else:
                    high = a
        widths.append(high - low)
        root = np.nan
        if len(in_tube) > 1:
            (a0, c0), (a1, c1) = in_tube[-2:]
            if c1 != c0:   # in this form a root on a run is that run exactly
                root = a1 - (a1 - a0) * (c1 / (c1 - c0))
        elif in_tube and slope:
            (a1, c1), = in_tube
            root = a1 - c1 / slope
        last, _, tau = trail[-1]
        # a later run that left the tube adds no point, so the step would
        # repeat it
        if (not low <= root <= high or widths[-1] > 0.5 * widths[-3]
                or rounds > 1 and tau is not None):
            root = 0.5 * (low + high)
        if abs(root - last) <= stop:
            return ShootingResult(
                a_star=last, step=abs(root - last), converged=tau is None,
                departure_sign_low=sign_lo, departure_sign_high=sign_hi,
                trail=trail, max_solve_defect=worst, rounds=rounds)
        amplitudes = [root]


def shoot_stable_manifold(stable_perturbations, bracket, projection,
                          base_profile: np.ndarray, dt: float,
                          horizon: float) -> list[ShootingResult]:
    """Shooting over the unstable amplitude a in Psi_0 = Q + eps_s0 + a LQ/||LQ||.

    Runs one search per stable perturbation eps_s0 (RadialFunctions on one
    grid) over the same bracket and returns one ShootingResult for each, in
    order.  The departure functional is the sign of the scaling-mode
    coefficient at the exit time, the first tau at which the deviation
    from the reference flow (started at the unperturbed base profile)
    leaves the tube of radius ``_TUBE_FACTOR`` times the initial deviation
    size.  The base point is normally the discrete steady profile, about
    which the reference flow is stationary; ``projection`` should then come
    from the linearization ``discrete_steady_profile`` returns with it, so
    that the prepared data is stable for the discrete dynamics that
    actually run.  The bracket must produce opposite departure signs.
    a_star is the run at which the next step toward the root of the
    scaling-mode coefficient at the horizon is no larger than
    ``_WIDTH_TOL`` times the bracket width, an error estimate near a
    simple root but not a bound (see _search), and it is converged when
    that amplitude stays in the tube for the whole horizon.

    Each search is the generator _search, whose docstring describes it:
    secant steps on that coefficient, kept inside the sign bracket of the
    departures.  The Newton step's slope, which also spaces the first
    secant pair, is the linear one, dc/da = kappa e^{-lam horizon}: kappa
    is the ``projection`` coefficient of the unit scaling direction and
    lam its eigenvalue.  Each result counts the batched rounds its search
    took, and its max_solve_defect includes the reference run's.

    The searches run in lockstep against one reference trajectory: each
    round integrates, as one batch, the runs every unfinished search needs
    next.  The reference run is row 0 of the first round, with an infinite
    tube; it writes the trajectory the later rounds read, and a guard
    failure of it raises the EvolutionError of nonlinear_radial_evolve.
    dt and the horizon are checked (step_count) before anything is
    integrated.  Every row of a batch is computed as it would be alone, so
    each result equals that of its own one-perturbation shooting.
    """
    grid = stable_perturbations[0].grid
    n_steps = step_count(dt, horizon, grid.n)
    lam_q = profile.lambda_q(grid.nodes)
    lam_q = lam_q / grid.norm(lam_q)
    run = _ImexRows(grid, dt)
    lo, hi = float(bracket[0]), float(bracket[1])
    eps = [eps_s0.values for eps_s0 in stable_perturbations]
    # a zero perturbation sizes its tube by the search's stopping step instead
    tubes = [_TUBE_FACTOR * float(grid.norm(e) or _WIDTH_TOL * (hi - lo))
             for e in eps]
    # the Newton slope dc/da = kappa e^{-lam horizon}
    slope = float(np.real(projection.coefficient(lam_q)
                          * np.exp(-projection.lam * horizon)))
    searches = [_search(lo, hi, slope, tube) for tube in tubes]
    results = [None] * len(searches)
    # the reference trajectory, written by row 0 of the first round
    ref_states = np.empty((n_steps + 1, grid.n))
    ref_defect = None
    # the amplitudes each unfinished search needs next, by search
    wanted = {i: next(search) for i, search in enumerate(searches)}
    while wanted:
        batch = [(i, a) for i, amplitudes in wanted.items() for a in amplitudes]
        rows = [base_profile + eps[i] + a * lam_q for i, a in batch]
        radii = [tubes[i] for i, _ in batch]
        first = ref_defect is None
        if first:
            rows, radii = [base_profile, *rows], [np.inf, *radii]
        found = _departures(run, np.array(rows), np.array(radii), ref_states,
                            projection, first)
        if first:
            ref_defect = found.pop(0)[3]
        for i in list(wanted):
            try:
                wanted[i] = searches[i].send(
                    {a: departure for (owner, a), departure in zip(batch, found)
                     if owner == i})
            except StopIteration as end:
                results[i] = replace(end.value, max_solve_defect=max(
                    ref_defect, end.value.max_solve_defect))
                del wanted[i]
    return results
