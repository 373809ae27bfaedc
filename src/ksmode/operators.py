"""Matrix discretizations of the class-l linearized operators.

Local terms use second-order finite differences with ghost-node elimination:
the origin ghost sits at r = 0 and carries the class-l indicial model
f ~ A r^l (for l = 0 the even quartic a + b r^2 + c r^4, quadratic in r^2,
through the first three nodes; zero for l >= 1, as for Dirichlet); the
outer ghost one spacing past rmax is homogeneous Dirichlet.  Every local
operator lives on its band: a BandMatrix, or the (diag, off) pair of the
symmetric Schroedinger form; the nonlocal term makes L_l dense.

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
import scipy.linalg
import scipy.sparse

from . import profile
from .radial import (RadialGrid, power_moment, prefix_column_weights,
                     suffix_column_weights, deriv_deltal_inverse,
                     RadialFunction, fd_deriv, three_point)

__all__ = [
    "OperatorMatrix", "BandMatrix", "assemble_Ll", "local_band",
    "assemble_tilde_L1_prime", "apply_Ll", "kernel_deltal_inv_matrix",
    "factorized_deltal_inv_matrix", "deriv_deltal_inv_matrix",
    "kernel_deriv_deltal_inv_matrix", "dk_inv_matrix", "deriv1_matrix",
    "deriv2_matrix", "r2_mass_weights",
]


@dataclass
class OperatorMatrix:
    """Dense discretization of a radial operator for one spherical class."""
    grid: RadialGrid
    l: int
    entries: np.ndarray


class BandMatrix:
    """A square matrix with kl subdiagonals and ku superdiagonals, kept as
    LAPACK band rows: ``band[ku + i - j, j]`` is entry (i, j), so band row
    ku - k is diagonal k aligned by column, as in the DIA layout of offset
    k; entries that fall outside the matrix are never read.  ``@`` (scipy's
    DIA product, summing each entry over the diagonals in ascending offset
    order) and ``solve`` after ``factor()`` (LAPACK gbtrf, then one gbtrs
    call with the columns of the transposed stack, Fortran-ordered for a
    C-ordered one, as right-hand sides) take one vector or the rows of an
    (m, n) stack, and act on each row alone, with the same bits.
    """

    def __init__(self, band: np.ndarray, kl: int, ku: int):
        self.band, self.kl, self.ku, self.n = band, kl, ku, band.shape[1]
        self._dia = scipy.sparse.dia_array(
            (band[::-1].copy(), np.arange(-kl, ku + 1)), shape=(self.n, self.n))
        self._rows = np.arange(self.n) + np.arange(-ku, kl + 1)[:, None]

    def at_rows(self, v: np.ndarray) -> np.ndarray:
        """v_i at every band entry (i, j), the nearest row's at the padding."""
        return v[np.clip(self._rows, 0, self.n - 1)]

    def add_to(self, a: np.ndarray) -> np.ndarray:
        """a + M in place, one addition per band entry; returns ``a``."""
        inside = (self._rows >= 0) & (self._rows < self.n)
        a[self._rows[inside], np.nonzero(inside)[1]] += self.band[inside]
        return a

    def toarray(self) -> np.ndarray:
        return self.add_to(np.zeros((self.n, self.n), dtype=self.band.dtype))

    def eye_plus(self, c: float) -> BandMatrix:
        """I + c M on the same band."""
        band = c * self.band
        band[self.ku] += 1.0
        return BandMatrix(band, self.kl, self.ku)

    def norm_inf(self) -> float:
        """max_i sum_j |m_ij|, each row summed in ascending offset order."""
        return float(np.max(abs(self._dia) @ np.ones(self.n)))

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return (self._dia @ y.T).T

    def factor(self) -> None:
        gbtrf, self._gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"),
                                                           (self.band,))
        # gbtrf keeps the fill-in of its row pivoting in kl extra top rows
        fill = np.zeros((self.kl, self.n), dtype=self.band.dtype)
        self._lu, self._piv, info = gbtrf(np.vstack((fill, self.band)),
                                          self.kl, self.ku)
        if info != 0:
            raise np.linalg.LinAlgError(f"banded LU failed (LAPACK info {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs) and not np.iscomplexobj(self._lu):
            # gbtrs is typed: solve the real and imaginary parts together
            x = self.solve(np.concatenate((np.atleast_2d(rhs.real),
                                           np.atleast_2d(rhs.imag))))
            half = len(x) // 2
            return (x[:half] + 1j * x[half:]).reshape(rhs.shape)
        x = self._gbtrs(self._lu, self.kl, self.ku, np.atleast_2d(rhs).T,
                        self._piv)[0]
        return x.T.reshape(rhs.shape)


# ---------------------------------------------------------------------------
# finite-difference matrices with ghost elimination
# ---------------------------------------------------------------------------

def _origin_ghost_coeffs(grid: RadialGrid, l: int) -> np.ndarray:
    """Coefficients c with ghost value f(0) = sum_i c_i f_{i+1}.

    Class-0 data is even in r: extrapolate with a + b r^2 + c r^4 through
    the first three nodes (Lagrange in x = r^2).  Class l >= 1 vanishes at
    the origin like r^l, so the ghost value is 0, as for Dirichlet.
    """
    if l > 0:
        return np.zeros(1)
    x = grid.nodes[:3] ** 2
    return np.array([x[1] * x[2] / ((x[1] - x[0]) * (x[2] - x[0])),
                     x[0] * x[2] / ((x[0] - x[1]) * (x[2] - x[1])),
                     x[0] * x[1] / ((x[0] - x[2]) * (x[1] - x[2]))])


def _fd_matrix(grid: RadialGrid, order: int, l: int) -> BandMatrix:
    """Derivative matrix of given order on class-l data, ghosts eliminated:
    kl = 1, and ku = 2 where the class-0 origin ghost reaches entry (0, 2)."""
    h = grid.cell_spacings()
    # three-point weights of every row, ghost rows included; the outer ghost
    # value is 0 (Dirichlet), the origin ghost's weight goes to its model
    wl, wc, wr = (three_point(order, *unit, h[:-1], h[1:]) for unit in np.eye(3))
    ghost = _origin_ghost_coeffs(grid, l)
    ku = max(1, ghost.size - 1)
    band = np.zeros((ku + 2, grid.n))
    band[ku - 1, 1:] = wr[:-1]
    band[ku] = wc
    band[ku + 1, :-1] = wl[1:]
    cols = np.arange(ghost.size)
    band[ku - cols, cols] += wl[0] * ghost   # entries (0, j) of row 0
    return BandMatrix(band, 1, ku)


def deriv1_matrix(grid: RadialGrid, l: int) -> BandMatrix:
    return _fd_matrix(grid, 1, l)


def deriv2_matrix(grid: RadialGrid, l: int) -> BandMatrix:
    return _fd_matrix(grid, 2, l)


# ---------------------------------------------------------------------------
# cumulative quadrature matrices: triangular, column j holds radial's
# closed-form weights of the integral of e_j
# ---------------------------------------------------------------------------

def _triangular(diag: np.ndarray, off: np.ndarray, lower: bool) -> np.ndarray:
    """C-ordered matrix with ``diag`` on its diagonal, off_j strictly below
    (``lower``) or above it in column j, and zeros elsewhere."""
    n = diag.size
    mask = np.tri(n, k=-1, dtype=bool) if lower else ~np.tri(n, dtype=bool)
    mat = np.where(mask, off, 0.0)
    mat.flat[::n + 1] = diag
    return mat


def _prefix_matrix(grid: RadialGrid, a: float, p: float) -> np.ndarray:
    """Matrix of f -> int_0^{r_i} f(s) s^a ds with origin model f ~ (s/r_1)^p."""
    return _triangular(*prefix_column_weights(grid.nodes, a, p), lower=True)


def _suffix_matrix(grid: RadialGrid, a: float) -> np.ndarray:
    """Matrix of f -> int_{r_i}^{rmax} f(s) s^a ds (f treated as 0 beyond rmax)."""
    return _triangular(*suffix_column_weights(grid.nodes, a), lower=False)


def dk_inv_matrix(grid: RadialGrid, k: float, origin_power: float = 0.0) -> np.ndarray:
    """Matrix of D_k^{-1} on the grid (zero extension beyond rmax for k <= 0)."""
    r = grid.nodes
    if k > 0:
        mat, scale = _prefix_matrix(grid, k, origin_power), r ** (-k)
    else:
        mat, scale = _suffix_matrix(grid, k), -(r ** (-k))
    mat *= scale[:, None]
    return mat


def kernel_deltal_inv_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """Explicit-kernel form of Delta_l^{-1} (zero extension beyond rmax)."""
    r = grid.nodes
    low = _prefix_matrix(grid, l + 2.0, float(l))
    up = _suffix_matrix(grid, 1.0 - l)
    return -((r ** (-(l + 1.0)))[:, None] * low + (r ** float(l))[:, None] * up) \
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
    panels = m_out[:, None] * low[:-1, :]
    idx = np.arange(n - 1)
    panels[idx, idx] += alpha
    panels[idx, idx + 1] += beta

    acc = np.zeros((n, n))
    acc[:-1] = np.cumsum(panels[::-1], axis=0)[::-1]
    acc += grid.rmax ** (-(2.0 * l + 1.0)) / (2 * l + 1) * low[-1, :]  # exact tail
    return -(r ** float(l))[:, None] * acc


def deriv_deltal_inv_matrix(grid: RadialGrid, l: int) -> np.ndarray:
    """Matrix of d_r Delta_l^{-1} from the first-order factorization.

    Built in place; at l = 0 the factors l + 1 and 2l + 1 are 1 and the
    matrix is D_2^{-1} itself.
    """
    mat = dk_inv_matrix(grid, l + 2.0, float(l))
    if l > 0:
        mat *= l + 1
        up = dk_inv_matrix(grid, -(l - 1.0))
        up *= l
        mat += up
        mat /= 2 * l + 1
    return mat


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
    mat = ((l + 1) * r ** (-(l + 2.0)))[:, None] * low
    if l > 0:
        mat = mat - (l * r ** (l - 1.0))[:, None] * _suffix_matrix(grid, 1.0 - l)
    return mat / (2 * l + 1)


def r2_mass_weights(grid: RadialGrid) -> np.ndarray:
    """Lumped L^2(r^2 dr) quadrature weights, origin panel included."""
    w = grid.quad_weights * grid.nodes ** 2
    w[0] += 0.5 * grid.nodes[0] ** 3  # trapezoid on [0, r_1] with zero limit
    return w


# ---------------------------------------------------------------------------
# operator assemblies
# ---------------------------------------------------------------------------

def local_band(l: int, grid: RadialGrid, zero_profile: bool = False) -> BandMatrix:
    """The local part of L_l on the band of its derivative matrices,

        -(d2 + (2/r) d1 - l(l+1)/r^2) + (r/2) d1 + 1 - 2Q - (D_2^{-1}Q) d1,

    entry by entry in the order of that dense expression; with
    ``zero_profile`` the Q-dependent terms are dropped.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    r = grid.nodes
    d1, d2 = deriv1_matrix(grid, l), deriv2_matrix(grid, l)
    ri = d1.at_rows(r)
    on_diag = (np.arange(d1.band.shape[0]) == d1.ku)[:, None]
    lap = d2.band + (2.0 / ri) * d1.band \
        - np.where(on_diag, l * (l + 1) / (ri * ri), 0.0)
    local = -lap + (0.5 * ri) * d1.band + on_diag
    if not zero_profile:
        local -= np.where(on_diag, 2.0 * d1.at_rows(profile.q(r)), 0.0)
        local -= d1.at_rows(profile.d2inv_q_closed(r)) * d1.band
    return BandMatrix(local, d1.kl, d1.ku)


def assemble_Ll(l: int, grid: RadialGrid, zero_profile: bool = False) -> OperatorMatrix:
    """Class-l linearized operator

        L_l = -Delta_l + (1/2) Lambda - 2Q - (D_2^{-1}Q) d_r - Q' d_r Delta_l^{-1},

    with Lambda f = r f' + 2 f.  Origin closure f ~ r^l, outer Dirichlet.
    With ``zero_profile`` all Q-dependent terms are dropped.

    The nonlocal term fills the matrix; local_band is added on its band
    (local + (-Q' x) is local - Q' x, exactly).
    """
    local = local_band(l, grid, zero_profile)
    if zero_profile:
        return OperatorMatrix(grid=grid, l=l, entries=local.toarray())
    a = deriv_deltal_inv_matrix(grid, l)
    a *= -profile.q_deriv(grid.nodes, 1)[:, None]   # all of L_l off the band
    return OperatorMatrix(grid=grid, l=l, entries=local.add_to(a))


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


def _symmetric_schrodinger(grid: RadialGrid,
                           potential: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the symmetric tridiagonal matrix of -d_r^2 + V on
    L^2(dr) with Dirichlet ends.

    Piecewise-linear stiffness with lumped mass, symmetrized by the diagonal
    similarity W^{1/2} (.) W^{-1/2}; the eigenvalues are the Ritz values of
    the quadratic form.  Each off-diagonal entry is the mean of the two
    scaled entries, which agree to round-off on any (also stretched) grid.
    """
    h = grid.cell_spacings()
    sqw = np.sqrt(0.5 * (h[:-1] + h[1:]))
    off = -(1.0 / h[1:-1])
    mean_off = 0.5 * (off / sqw[:-1] / sqw[1:] + off / sqw[1:] / sqw[:-1])
    return (1.0 / h[:-1] + 1.0 / h[1:]) / sqw / sqw + potential, mean_off


def assemble_tilde_L1_prime(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """(diag, off) of the symmetric Schroedinger form
    -d_r^2 + 12/r^2 + r^2/16 - 8/(2+r^2) - 3/4."""
    return _symmetric_schrodinger(grid, profile.tilde_L1_prime_potential(grid.nodes))
