"""Matrix discretizations of the class-l linearized operators.

Local terms use second-order finite differences with ghost-node elimination:
the origin ghost sits at r = 0 and carries the class-l indicial model
f ~ A r^l (for l = 0 the even quartic a + b r^2 + c r^4, quadratic in r^2,
through the first three nodes; zero for l >= 1, as for Dirichlet); the
outer ghost one spacing past rmax is homogeneous Dirichlet.  Every local
operator lives on its band: a BandMatrix, or the (diag, off) pair of the
symmetric Schroedinger form.  ``local_band`` is the one constructor of the
local part of L_l, with or without the profile terms; ``assemble_Ll`` adds
the nonlocal term, which makes L_l dense.

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
from .radial import (RadialGrid, power_moment, deltal_inverse,
                     RadialFunction, fd_deriv, row_blocks, three_point)

__all__ = [
    "OperatorMatrix", "BandMatrix", "DenseLU", "assemble_Ll", "local_band",
    "assemble_tilde_L1_prime", "apply_Ll", "kernel_deltal_inv_matrix",
    "factorized_deltal_inv_matrix", "deriv_deltal_inv_matrix",
    "kernel_deriv_deltal_inv_matrix", "deriv1_matrix",
    "deriv2_matrix", "origin_ghost_underflows",
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
    (m, n) stack, and act on each row alone, with the same bits.  ``solve``
    refuses complex rows on a real band with TypeError.
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
            # gbtrs is typed: a real factor would drop the imaginary part
            raise TypeError("complex right-hand side for a real banded LU")
        stack = rhs if rhs.ndim == 2 else rhs[None]
        x = self._gbtrs(self._lu, self.kl, self.ku, stack.T, self._piv)[0].T
        return x if rhs.ndim == 2 else x[0]


class DenseLU:
    """The LU factorization of A - shift I for a dense square A, made once.

    A Fortran-ordered copy of A - shift I (in complex arithmetic for a
    complex shift) is factored in place by LAPACK getrf, its one n x n
    array, and ``solve`` runs getrs on it: the bits of scipy.linalg's
    lu_factor and lu_solve on the same matrix, without their copies and
    batch wrapper.  A complex right-hand side on a real factor is solved on
    a complex copy of the factor, made once, as lu_solve casts it.
    ``shape``, ``dtype`` and ``matvec`` (the solve) make it the ``OPinv``
    of scipy's shift-invert ``eigs``.  Non-finite entries raise ValueError,
    an exactly singular factor LinAlgError.
    """

    def __init__(self, a: np.ndarray, shift=0.0):
        # checked before the copy, so the check's mask is gone by then
        if not (np.isfinite(a).all() and np.isfinite(shift)):
            raise ValueError("matrix has non-finite entries")
        lu = np.array(a, dtype=np.result_type(a, shift), order="F")
        if shift != 0.0:
            lu.flat[::lu.shape[1] + 1] -= shift
        getrf, self._getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"),
                                                           (lu,))
        self._lu, self._piv, info = getrf(lu, overwrite_a=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dense LU failed (LAPACK info {info})")
        self.shape, self.dtype = lu.shape, lu.dtype
        self._complex = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        lu, getrs = self._lu, self._getrs
        if np.iscomplexobj(rhs) and not np.iscomplexobj(lu):
            if self._complex is None:
                lu = lu.astype(complex)
                self._complex = lu, scipy.linalg.get_lapack_funcs(("getrs",),
                                                                  (lu,))[0]
            lu, getrs = self._complex
        return getrs(lu, self._piv, rhs)[0]

    def matvec(self, rhs: np.ndarray) -> np.ndarray:
        return self.solve(rhs)


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
    numerators, denominators = _origin_ghost_products(grid)
    return numerators / denominators


def _origin_ghost_products(grid: RadialGrid) -> tuple:
    """Numerators and denominators of the class-0 ghost coefficients:
    products of r^2 at the first three nodes and of their differences."""
    x = grid.nodes[:3] ** 2
    return (np.array([x[1] * x[2], x[0] * x[2], x[0] * x[1]]),
            np.array([(x[1] - x[0]) * (x[2] - x[0]),
                      (x[0] - x[1]) * (x[2] - x[1]),
                      (x[0] - x[2]) * (x[1] - x[2])]))


def origin_ghost_underflows(grid: RadialGrid) -> bool:
    """Whether a product of the class-0 ghost coefficients falls below the
    normal floats (about 2.2e-308), as it does once r_1 is below about
    1e-77: the coefficients would lose their precision or turn to NaN."""
    products = np.concatenate(_origin_ghost_products(grid))
    return bool(np.min(np.abs(products)) < np.finfo(float).tiny)


def _fd_matrix(grid: RadialGrid, order: int, l: int) -> BandMatrix:
    """Derivative matrix of given order on class-l data, ghosts eliminated:
    kl = 1, and ku = 2 where the class-0 origin ghost reaches entry (0, 2)."""
    spacing = grid.three_point_spacings()
    # three-point weights of every row, ghost rows included; the outer ghost
    # value is 0 (Dirichlet), the origin ghost's weight goes to its model
    wl, wc, wr = (three_point(order, *unit, spacing) for unit in np.eye(3))
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
# cumulative quadrature matrices: triangular, the running sums of the
# panels cu_j f_j + cv_j f_{j+1} (the grid's panels) for unit data; the
# prefix matrix adds the origin weights of the grid's prefix_integral
# ---------------------------------------------------------------------------

def _panel_weights(cu: np.ndarray, cv: np.ndarray, lower: bool) -> tuple:
    """(whole, half): the weights of column j of the running panel sums
    from the origin (``lower``) or from rmax inwards.

    Column j is the integral of e_j: its half-hat weight half_j on the
    diagonal (cv_{j-1} from the origin, cu_j from rmax; 0 where that panel
    is missing), its whole-hat weight whole_j = cu_j + cv_{j-1} past it,
    zeros before.
    """
    whole = np.concatenate((cu[:1], cu[1:] + cv[:-1], cv[-1:]))
    half = np.concatenate(([0.0], cv)) if lower else np.append(cu, 0.0)
    return whole, half


def _prefix_weights(grid: RadialGrid, a: float, p: float) -> tuple:
    """``_panel_weights`` of f -> int_0^{r_i} f(s) s^a ds with origin model
    f ~ (s/r_1)^p: the running sums plus the origin weight in column 0."""
    prefix = grid.prefix_integral(a, p)
    whole, half = _panel_weights(prefix.cu, prefix.cv, lower=True)
    whole[0] += prefix.origin[0]
    half[0] += prefix.origin[0]
    return whole, half


def _triangular_rows(out: np.ndarray, whole: np.ndarray, half: np.ndarray,
                     lower: bool) -> None:
    """Rows of the triangular matrix of the weights (whole, half) of
    ``_panel_weights`` into ``out``, only the columns where they can be
    nonzero: ``out`` ends (``lower``) or starts with the square block of
    those rows on the diagonal, and ``whole`` is cut to its columns."""
    b = out.shape[0]
    out[:] = whole
    block = out[:, -b:] if lower else out[:, :b]
    block[~np.tri(b, dtype=bool) if lower else np.tri(b, k=-1, dtype=bool)] = 0.0
    np.fill_diagonal(block, half)


def _triangular(whole: np.ndarray, half: np.ndarray, lower: bool) -> np.ndarray:
    """C-ordered matrix of the weights (whole, half), zero beyond rmax."""
    mat = np.empty((whole.size, whole.size))
    _triangular_rows(mat, whole, half, lower)
    return mat


def _prefix_matrix(grid: RadialGrid, a: float, p: float) -> np.ndarray:
    """Matrix of f -> int_0^{r_i} f(s) s^a ds with origin model f ~ (s/r_1)^p."""
    return _triangular(*_prefix_weights(grid, a, p), lower=True)


def _suffix_matrix(grid: RadialGrid, a: float) -> np.ndarray:
    """Matrix of f -> int_{r_i}^{rmax} f(s) s^a ds (f treated as 0 beyond rmax)."""
    return _triangular(*_panel_weights(*grid.panels(a), lower=False), lower=False)


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
    """Matrix of d_r Delta_l^{-1} from the first-order factorization
    (2l+1) d_r Delta_l^{-1} = (l+1) D_{l+2}^{-1} + l D_{-(l-1)}^{-1}, with
    D_k^{-1} f = r^{-k} int_0^r s^k f ds for k > 0 and
    -r^{-k} int_r^rmax s^k f ds for k <= 0 (zero extension beyond rmax).

    Built in one array, a block of rows at a time: each factor only on its
    own triangle and the diagonal block, which both share, every entry by
    the operations of ((l+1) D_{l+2}^{-1} + l D_{-(l-1)}^{-1}) / (2l+1)
    over the two full matrices.  At l = 0 the factors l + 1 and 2l + 1 are
    1 and the matrix is D_2^{-1} itself.
    """
    r = grid.nodes
    n = grid.n
    low, low_half = _prefix_weights(grid, l + 2.0, float(l))
    low_rows = r ** (-(l + 2.0))
    if l > 0:
        up, up_half = _panel_weights(*grid.panels(1.0 - l), lower=False)
        up_rows = -(r ** (l - 1.0))
    mat = np.zeros((n, n))
    start = 0
    for rows in row_blocks(mat):
        stop = start + len(rows)
        below = rows[:, :stop]
        _triangular_rows(below, low[:stop], low_half[start:stop], lower=True)
        below *= low_rows[start:stop, None]
        if l > 0:
            below *= l + 1
            above = np.empty((stop - start, n - start))
            _triangular_rows(above, up[start:], up_half[start:stop], lower=False)
            above *= up_rows[start:stop, None]
            above *= l
            rows[:, start:] += above
            rows /= 2 * l + 1
        start = stop
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


def assemble_Ll(l: int, grid: RadialGrid) -> OperatorMatrix:
    """Class-l linearized operator

        L_l = -Delta_l + (1/2) Lambda - 2Q - (D_2^{-1}Q) d_r - Q' d_r Delta_l^{-1},

    with Lambda f = r f' + 2 f.  Origin closure f ~ r^l, outer Dirichlet.

    The nonlocal term fills the matrix; local_band is added on its band
    (local + (-Q' x) is local - Q' x, exactly).
    """
    local = local_band(l, grid)
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
    ddli = deltal_inverse(l, RadialFunction(grid, f))[1].values
    d1 = fd_deriv(f, grid, 1)
    lap = fd_deriv(f, grid, 2) + 2.0 / r * d1 - l * (l + 1) / (r * r) * f
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
