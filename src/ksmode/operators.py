"""Dense matrix discretizations of the class-l linearized operators.

Local terms use second-order finite differences with ghost-node elimination:
the origin ghost sits at r = 0 and carries the class-l indicial model
f ~ A r^l (an even quadratic fit for l = 0, zero for l >= 1); the outer
ghost one spacing past rmax is homogeneous Dirichlet.

Nonlocal terms never differentiate the kernel:

* the derivative of the class-l inverse Laplacian is assembled from the
  first-order factorization (2l+1) d_r Delta_l^{-1} = (l+1) D_{l+2}^{-1}
  + l D_{-(l-1)}^{-1};
* the inverse Laplacian itself exists in two independently assembled
  representations, the explicit kernel form and the composed factorized
  form D_{-l}^{-1} D_{l+2}^{-1}; both integrate the piecewise-linear
  interpolant exactly, so they agree to round-off and serve as a standing
  cross-representation check.

All cumulative quadratures treat the input as zero beyond rmax (consistent
with the Dirichlet truncation); residual oracles that need the analytic
tail use the vector path `apply_Ll` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ggmt, profile
from .radial import (RadialGrid, power_moment, power_prefix_integral,
                     suffix_power_integral, deriv_deltal_inverse,
                     RadialFunction, fd_deriv, three_point)

__all__ = [
    "OperatorMatrix", "assemble_Ll", "assemble_tilde_Ll_alpha",
    "assemble_tilde_L1_prime", "assemble_H_l_alpha_W",
    "apply_Ll", "kernel_deltal_inv_matrix", "factorized_deltal_inv_matrix",
    "deriv_deltal_inv_matrix", "kernel_deriv_deltal_inv_matrix",
    "dk_inv_matrix", "deriv1_matrix", "deriv2_matrix", "r2_mass_weights",
]


@dataclass
class OperatorMatrix:
    """Dense discretization of a radial operator for one spherical class."""
    grid: RadialGrid
    l: int
    tag: str
    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n


# ---------------------------------------------------------------------------
# finite-difference matrices with ghost elimination
# ---------------------------------------------------------------------------

def _origin_ghost_coeffs(grid: RadialGrid, closure) -> np.ndarray:
    """Coefficients c with ghost value f(0) = sum_i c_i f_{i+1}.

    Class-0 data is even in r: extrapolate with a + b r^2 + c r^4 through
    the first three nodes (Lagrange in x = r^2).  Class l >= 1 vanishes at
    the origin like r^l, so the ghost value is 0, as for Dirichlet.
    """
    if closure == "dirichlet":
        return np.zeros(1)
    if isinstance(closure, tuple) and closure[0] == "class":
        l = closure[1]
        if l == 0:
            x = grid.nodes[:3] ** 2
            return np.array([x[1] * x[2] / ((x[1] - x[0]) * (x[2] - x[0])),
                             x[0] * x[2] / ((x[0] - x[1]) * (x[2] - x[1])),
                             x[0] * x[1] / ((x[0] - x[2]) * (x[1] - x[2]))])
        return np.zeros(1)
    raise ValueError(f"unknown origin closure {closure!r}")


def _fd_matrix(grid: RadialGrid, order: int, origin_closure) -> np.ndarray:
    """Derivative matrix of given order with ghost elimination at both ends."""
    h = grid.cell_spacings()
    # three-point weights of every row, ghost rows included; the outer ghost
    # value is 0 (Dirichlet), the origin ghost's weight goes to its model
    wl, wc, wr = (three_point(order, *unit, h[:-1], h[1:]) for unit in np.eye(3))
    a = np.diag(wl[1:], -1) + np.diag(wc) + np.diag(wr[:-1], 1)
    ghost = _origin_ghost_coeffs(grid, origin_closure)
    a[0, :ghost.size] += wl[0] * ghost
    return a


def deriv1_matrix(grid: RadialGrid, origin_closure="dirichlet") -> np.ndarray:
    return _fd_matrix(grid, 1, origin_closure)


def deriv2_matrix(grid: RadialGrid, origin_closure="dirichlet") -> np.ndarray:
    return _fd_matrix(grid, 2, origin_closure)


# ---------------------------------------------------------------------------
# cumulative quadrature matrices: row j of radial's integral of np.eye(n)
# integrates e_j, so its transpose is the matrix of the integral
# ---------------------------------------------------------------------------

def _prefix_matrix(grid: RadialGrid, a: float, p: float) -> np.ndarray:
    """Matrix of f -> int_0^{r_i} f(s) s^a ds with origin model f ~ (s/r_1)^p."""
    return power_prefix_integral(np.eye(grid.n), grid.nodes, a, p).T


def _suffix_matrix(grid: RadialGrid, a: float) -> np.ndarray:
    """Matrix of f -> int_{r_i}^{rmax} f(s) s^a ds (f treated as 0 beyond rmax)."""
    return suffix_power_integral(np.eye(grid.n), grid, a, tail=False).T


def _row_scaled(scale: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """diag(scale) @ mat, C-ordered: the layout sets later BLAS rounding."""
    return np.multiply(scale[:, None], mat, order="C")


def dk_inv_matrix(grid: RadialGrid, k: float, origin_power: float = 0.0) -> np.ndarray:
    """Matrix of D_k^{-1} on the grid (zero extension beyond rmax for k <= 0)."""
    r = grid.nodes
    if k > 0:
        return _row_scaled(r ** (-k), _prefix_matrix(grid, k, origin_power))
    return _row_scaled(-(r ** (-k)), _suffix_matrix(grid, k))


def kernel_deltal_inv_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """Explicit-kernel form of Delta_l^{-1} (zero extension beyond rmax)."""
    r = grid.nodes
    low = _prefix_matrix(grid, l + 2.0, float(l))
    up = _suffix_matrix(grid, 1.0 - l)
    return -(_row_scaled(r ** (-(l + 1.0)), low) + _row_scaled(r ** float(l), up)) \
        / (2 * l + 1)


def factorized_deltal_inv_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """Composed form D_{-l}^{-1} D_{l+2}^{-1} of Delta_l^{-1}.

    The inner stage I(s) = int_0^s f t^{l+2} dt is exact on the interpolant;
    the outer integral int_r^inf s^{-2l-2} I(s) ds uses the exact per-panel
    closed form of I and the exact tail I(rmax) rmax^{-(2l+1)}/(2l+1) that a
    zero-extended f induces.  Agrees with the kernel form to round-off.
    """
    r = grid.nodes
    n = grid.n
    low = _prefix_matrix(grid, l + 2.0, float(l))
    u, v = r[:-1], r[1:]
    dt = v - u
    m_out = power_moment(-2.0 * l - 2.0, u, v)
    m1 = power_moment(1.0 - l, u, v)
    m2 = power_moment(2.0 - l, u, v)

    # I(s) on panel j: I_j + c1 s^{l+3} + c2 s^{l+4} + const(f_j, f_{j+1})
    # with f(s) = f_j + d (s - u), d = (f_{j+1} - f_j)/dt; collect each
    # panel integral as I_j * m_out + alpha_j f_j + beta_j f_{j+1}
    la, lb = l + 3.0, l + 4.0
    c1_fj = (1.0 / la) + u / (la * dt)          # s^{l+3} coeff of f_j
    c1_fj1 = -u / (la * dt)                     # ... of f_{j+1}
    c2_fj = -1.0 / (lb * dt)
    c2_fj1 = 1.0 / (lb * dt)
    const_fj = (-u ** la / la) - (-u ** lb / lb - u * (-u ** la) / la) / dt
    const_fj1 = (u ** lb / la - u ** lb / lb) / dt
    alpha = const_fj * m_out + c1_fj * m1 + c2_fj * m2
    beta = const_fj1 * m_out + c1_fj1 * m1 + c2_fj1 * m2
    panels = _row_scaled(m_out, low[:-1, :])
    idx = np.arange(n - 1)
    panels[idx, idx] += alpha
    panels[idx, idx + 1] += beta

    acc = np.zeros((n, n))
    acc[:-1] = np.cumsum(panels[::-1], axis=0)[::-1]
    acc += grid.rmax ** (-(2.0 * l + 1.0)) / (2 * l + 1) * low[-1, :]  # exact tail
    return -(r ** float(l))[:, None] * acc


def deriv_deltal_inv_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """Matrix of d_r Delta_l^{-1} from the first-order factorization."""
    mat = (l + 1) * dk_inv_matrix(grid, l + 2.0, float(l))
    if l > 0:
        mat = mat + l * dk_inv_matrix(grid, -(l - 1.0))
    return mat / (2 * l + 1)


def kernel_deriv_deltal_inv_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """Matrix of d_r Delta_l^{-1} from the differentiated kernel.

    Independent code path for cross-representation checks: differentiates
    the kernel analytically (the boundary terms cancel) instead of
    composing D_k^{-1} factors,

        (2l+1) d_r Delta_l^{-1} f = (l+1) r^{-(l+2)} int_0^r s^{l+2} f ds
                                    - l r^{l-1} int_r^rmax s^{1-l} f ds.
    """
    r = grid.nodes
    low = _prefix_matrix(grid, l + 2.0, float(l))
    mat = _row_scaled((l + 1) * r ** (-(l + 2.0)), low)
    if l > 0:
        mat = mat - _row_scaled(l * r ** (l - 1.0), _suffix_matrix(grid, 1.0 - l))
    return mat / (2 * l + 1)


def r2_mass_weights(grid: RadialGrid) -> np.ndarray:
    """Lumped L^2(r^2 dr) quadrature weights, origin panel included."""
    w = grid.quad_weights * grid.nodes ** 2
    w[0] += 0.5 * grid.nodes[0] ** 3  # trapezoid on [0, r_1] with zero limit
    return w


# ---------------------------------------------------------------------------
# operator assemblies
# ---------------------------------------------------------------------------

def assemble_Ll(l: int, grid: RadialGrid, zero_profile: bool = False) -> OperatorMatrix:
    """Class-l linearized operator

        L_l = -Delta_l + (1/2) Lambda - 2Q - (D_2^{-1}Q) d_r - Q' d_r Delta_l^{-1},

    with Lambda f = r f' + 2 f.  Origin closure f ~ r^l, outer Dirichlet.
    With ``zero_profile`` all Q-dependent terms are dropped.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    r = grid.nodes
    d1 = deriv1_matrix(grid, ("class", l))
    d2 = deriv2_matrix(grid, ("class", l))
    lap = d2 + (2.0 / r)[:, None] * d1 - np.diag(l * (l + 1) / (r * r))
    a = -lap + (0.5 * r)[:, None] * d1 + np.eye(grid.n)
    if not zero_profile:
        a -= 2.0 * np.diag(profile.q(r))
        a -= profile.d2inv_q_closed(r)[:, None] * d1
        a -= profile.q_deriv(r, 1)[:, None] * deriv_deltal_inv_matrix(grid, l)
    return OperatorMatrix(grid=grid, l=l, tag="Ll", entries=a)


def apply_Ll(l: int, grid: RadialGrid, values) -> np.ndarray:
    """Apply L_l to nodal data without assembling a matrix.

    One-sided O(h^2) stencils at the ends; the nonlocal term extends the
    integrals past rmax with the fitted power-law tail, so residual oracles
    can use functions that do not vanish at rmax.
    """
    r = grid.nodes
    f = np.asarray(values)
    ddli = deriv_deltal_inverse(l, RadialFunction(grid, f)).values
    d1 = fd_deriv(f, r, 1)
    lap = fd_deriv(f, r, 2) + 2.0 / r * d1 - l * (l + 1) / (r * r) * f
    return (-lap + 0.5 * (r * d1 + 2.0 * f) - 2.0 * profile.q(r) * f
            - profile.d2inv_q_closed(r) * d1 - profile.q_deriv(r, 1) * ddli)


def assemble_tilde_Ll_alpha(l: int, alpha: float, grid: RadialGrid) -> OperatorMatrix:
    """Conjugated, partially localized operator r^a D_{l+2}^{-1} L_l D_{l+2} r^{-a}.

    Expanded form: local Schroedinger-with-drift part plus the nonlocal piece
    l (D_{l+2-a}^{-1} V_1 + D_{l+2-a}^{-1} V_2 D_{-l-a}^{-1}), assembled as
    products of triangular quadrature matrices.  Requires -l <= a < l + 1/2.
    """
    if not (-l <= alpha < l + 0.5):
        raise ValueError(f"alpha = {alpha} outside [-l, l + 1/2) for l = {l}")
    r = grid.nodes
    d1 = deriv1_matrix(grid, "dirichlet")
    d2 = deriv2_matrix(grid, "dirichlet")
    a_mat = (-d2 - ((2.0 - 2.0 * alpha) / r)[:, None] * d1
             + np.diag((alpha - alpha ** 2 + (l + 1) * (l + 2)) / (r * r))
             + 0.5 * (r[:, None] * d1 + (1.0 - alpha) * np.eye(grid.n))
             - profile.d2inv_q_closed(r)[:, None] * (d1 + np.diag((2.0 - alpha) / r))
             - np.diag(profile.q(r)))
    if l > 0:
        low = dk_inv_matrix(grid, l + 2.0 - alpha, 1.0)
        up = dk_inv_matrix(grid, -(l + alpha))
        a_mat = a_mat + l * (low * profile.v1(r)[None, :]
                             + (low * profile.v2(r)[None, :]) @ up)
    return OperatorMatrix(grid=grid, l=l, tag="TildeLlAlpha", entries=a_mat)


def _symmetric_schrodinger(grid: RadialGrid, potential: np.ndarray) -> np.ndarray:
    """Symmetric matrix of -d_r^2 + V on L^2(dr) with Dirichlet ends.

    Piecewise-linear stiffness with lumped mass, symmetrized by the diagonal
    similarity W^{1/2} (.) W^{-1/2}; the eigenvalues are the Ritz values of
    the quadratic form, and the matrix is symmetric to round-off on any
    (also stretched) grid.
    """
    h = grid.cell_spacings()
    stiff = (np.diag(1.0 / h[:-1] + 1.0 / h[1:])
             - np.diag(1.0 / h[1:-1], 1) - np.diag(1.0 / h[1:-1], -1))
    w = 0.5 * (h[:-1] + h[1:])
    sqw = np.sqrt(w)
    sym = stiff / sqw[:, None] / sqw[None, :] + np.diag(potential)
    return 0.5 * (sym + sym.T)


def assemble_tilde_L1_prime(grid: RadialGrid) -> OperatorMatrix:
    """Symmetric Schroedinger form -d_r^2 + 12/r^2 + r^2/16 - 8/(2+r^2) - 3/4."""
    v = profile.tilde_L1_prime_potential(grid.nodes)
    return OperatorMatrix(grid=grid, l=1, tag="TildeL1Prime",
                          entries=_symmetric_schrodinger(grid, v))


def assemble_H_l_alpha_W(l: int, alpha: float, W, mu: float,
                         grid: RadialGrid) -> OperatorMatrix:
    """Schroedinger comparison operator

        H = -d_r^2 + L_{l,a}/r^2 + (1-2a)/4 + (1/2) D_{2a-4} D_2^{-1}Q - Q
            - l mu W(r),

    with L_{l,a} = -(a-1)^2 + (l+1)(l+2), the potential of
    ``ggmt.schrodinger_potential`` at theta = 1.  ``W`` is a weight descriptor
    providing ``fn``/``w_inf`` and a ``check(l, alpha)`` validity test.
    """
    W.check(l, alpha)
    potential, _ = ggmt.schrodinger_potential(l, alpha, 1.0, mu, W)
    v = potential(grid.nodes)
    return OperatorMatrix(grid=grid, l=l, tag="HlAlphaW",
                          entries=_symmetric_schrodinger(grid, v))

