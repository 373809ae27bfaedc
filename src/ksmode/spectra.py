"""Eigenanalysis of the class-l operators with spurious-mode filtering.

Truncating and discretizing a half-line operator pollutes the finite
spectrum with artifacts of the mesh and of the artificial outer boundary.
A candidate unstable eigenvalue is accepted only when it survives a triple
filter:

1. grid refinement is Richardson-consistent over an (n, 2n, 4n) ladder,
2. the value is insensitive to doubling the domain radius rmax,
3. the eigenvector carries the far-field decay and near-origin power
   signatures that genuine eigenfunctions must have (decay at least
   r^{-3/2}; origin behaviour ~ r^l).

The expected outcome per class: one mode (the scaling mode, eigenvalue -1)
for l = 0, one mode (the translation mode, eigenvalue -1/2) for l = 1, and
an empty set for every l >= 2.

Before any eigensolve the scan bounds the spectrum from the left by the
numerical range in L^2(r^2 dr): every eigenvalue of the discrete operator
has real part at least the bottom eigenvalue of its M-Hermitian part
(Bendixson; Trefethen and Embree, Spectra and Pseudospectra, 2005, ch. 17).
A class whose floor lies above the threshold has no candidate, and no
eigensolve runs.

Otherwise the scan deflates the one eigenvector nearest the floor, found
by one shift-invert Arnoldi solve, and bounds the rest of the spectrum by
the floor of the Hermitian part compressed onto the complement of its span
(Schur deflation; Stewart and Sun, Matrix Perturbation Theory, 1990,
ch. V), as the paper removes the one symmetry mode of a class.  When that
floor certifies the threshold, the deflated eigenpair is the candidate if
it lies below it, with the backward-error guarantee of a dense eigensolve;
this certifies l = 0 and l = 1 on the pinned ladder.  Otherwise the finest
grid is solved in full.  Deflating more vectors would not help: the
far-field numerical range of the operator (about 1/4) holds the floors with
1, 2 or 4 vectors deflated below 0.3 on the pinned ladder for l <= 3, and
no deflation lifts the floor that the Dirichlet row at rmax pulls down on
a grid with a coarse outer spacing.

The filters compare each candidate with the nearest eigenvalue of the
coarser and smaller grids, and those grids are solved by shift-invert
Arnoldi at the candidates (Lehoucq, Sorensen and Yang, ARPACK Users'
Guide, 1998), each pair under the same residual guard as the full solve.

Memory, not arithmetic, limits the grids: every n x n array the scan makes
is the one work array of its step, beside the operator.  A shift-invert
solve factors one copy of A - sigma I (operators.DenseLU); the frame S is
built only after that factor is gone, compressed and packed in place, and
consumed by the floor's solve, a Cholesky factor in place (or, when S is
not positive definite, a one-eigenvalue eigh) that leaves n-vectors and
ARPACK's n x ncv basis beside it; the norms are LAPACK's lange, with no
temporary, and the residual guard works over blocks of rows or columns.
The dense fallback holds its eigenvectors alone beside the operator once
scipy's eig returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .operators import DenseLU, OperatorMatrix, assemble_Ll
from .radial import RadialGrid, make_grid, row_blocks

__all__ = [
    "EigenReport", "ProjectionPair", "RangeFloor", "Scan",
    "check_scan_grids", "class_overflows", "eig_dense",
    "exponent_fits", "refinement_ladder",
    "unstable_scan_detailed", "build_projection",
    "schrodinger_spectrum_check",
]

# Tolerances of the spurious-mode filters.
_ABS_TOL = 5e-3        # ladder (Richardson and rmax) agreement of an eigenvalue
_DECAY_CAP = -1.5      # far-field decay exponent a genuine mode must reach
_ORIGIN_SLACK = 0.3    # allowed |origin exponent - l|
_DECAY_SLACK = 0.5     # allowed excess over the resolvent decay bound
_RESIDUAL_TOL = 1e-8   # eigen residual relative to ||A||_inf
# Relative gap below which two partner eigenvalues found from different
# shifts are one eigenvalue: two solves of one eigenvalue agree to 3e-11 on
# the pinned ladder, and the filters resolve gaps of _ABS_TOL.
_SAME_EIGENVALUE = 1e-8
# Node limit of a ladder grid.  One n x n float matrix takes 8 n^2 bytes,
# 328 MB at n = 6400, and the scan of the finest grid holds two at once: the
# operator and one work array, the LU of a shift-invert solve or S, which
# the floor consumes in place.  Only the dense fallback holds three beside
# the operator: scipy's eigenvectors, real and then complex.
_MAX_LADDER_NODES = 6400


@dataclass
class EigenReport:
    """One candidate eigenvalue with its filter diagnostics."""
    l: int
    lam: complex
    residual: float     # ||A v - lam v|| / ||v|| from the residual guard
    converged: bool
    decay_exponent: float
    origin_exponent: float
    accepted: bool
    h_defect: float
    rmax_defect: float
    vector: np.ndarray = field(repr=False)
    grid: RadialGrid = field(repr=False)
    # first filter the candidate fails, in the order richardson, rmax,
    # unreliable, decay, origin, consistency; "" if accepted
    rejected_by: str = ""
    # partner grids solved by shift-invert at this eigenvalue, and the largest
    # relative residual ||A v - mu v|| / (||v|| ||A||_inf) of those pairs
    partner_solves: int = 0
    partner_residual: float = 0.0


def eig_dense(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full eigendecomposition of a dense matrix with a residual guarantee.

    Returns (eigenvalues, eigenvectors, residuals) sorted by real part; the
    residual ||A v - lam v|| / ||v|| of every pair is below 1e-8 ||A||, or
    the solve raises (``_guard_residuals``).
    """
    mat = a.entries if isinstance(a, OperatorMatrix) else np.asarray(a)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    lams, vecs = scipy.linalg.eig(mat)
    res = _guard_residuals(mat, lams, vecs, scipy.linalg.norm(
        mat, np.inf, check_finite=False))
    order = np.argsort(lams.real)
    # sort the columns in place, a block of rows at a time
    for rows in row_blocks(vecs):
        rows[:] = rows[:, order]
    return lams[order], vecs, res[order]


def _guard_residuals(mat, lams, vecs, scale) -> np.ndarray:
    """Residuals ||A v - lam v|| / ||v|| of the eigenpairs (columns of
    ``vecs``); raises when one exceeds _RESIDUAL_TOL ``scale``, which is
    ||A||_inf.

    The pairs are taken in the blocks of ``radial.row_blocks`` of
    ``vecs.T``, so no temporary is larger than a block.  A real A
    multiplies complex vectors as one real product with their real and
    imaginary parts side by side, never cast to complex; real vectors keep
    the plain expression, block by block.
    """
    def norms(x):
        # column norms of a C-ordered complex block from its real view, with
        # one temporary of its size (np.linalg.norm makes two)
        sums = (x.view(float) ** 2).sum(axis=0)
        return np.sqrt(sums[0::2] + sums[1::2])

    def residuals(v, lam):
        if not np.iscomplexobj(v) or np.iscomplexobj(mat):
            return np.linalg.norm(mat @ v - v * lam[None, :], axis=0) \
                / np.linalg.norm(v, axis=0)
        v = np.array(v, order="C")
        v_norm = norms(v)
        av = (mat @ v.view(float)).view(complex)
        v *= lam
        av -= v
        del v
        return norms(av) / v_norm

    res = np.empty(lams.size)
    start = 0
    for rows in row_blocks(vecs.T):
        stop = start + len(rows)
        res[start:stop] = residuals(rows.T, lams[start:stop])
        start = stop
    if np.any(res > _RESIDUAL_TOL * scale):
        bad = int(np.argmax(res))
        raise RuntimeError(
            f"eigen residual {res[bad]:.3e} exceeds 1e-8*||A|| = "
            f"{_RESIDUAL_TOL * scale:.3e} for eigenvalue {lams[bad]!r}")
    return res


@dataclass(frozen=True)
class RangeFloor:
    """Bottom ``nu`` of the numerical range of L_l in L^2(r^2 dr), with the
    rounding ``margin`` of its computation, on the whole space (``count``
    0) or on the complement of one deflated eigenvector (``count`` 1).
    ``residual`` is ||B x0 - x0 (x0^H B x0)||_2 / ||A||_inf of the unit
    vector x0 of its span in the M-scaled frame of ``_m_frame``, 0 with
    nothing deflated.  ``solver`` names what computed ``nu`` (see
    ``_range_floor``): ``"cholesky"``, Lanczos on the inverse of a frame
    its Cholesky factorization showed positive definite, or ``"eigh"``,
    the one-eigenvalue dense solve of any other frame."""
    nu: float
    margin: float
    count: int = 0
    residual: float = 0.0
    solver: str = "eigh"

    def certifies(self, threshold: float) -> bool:
        """Whether, up to a backward error of ``residual`` ||A||_inf, every
        eigenvalue but the deflated one has real part above ``threshold``;
        with nothing deflated, whether every eigenvalue has."""
        return self.residual <= _RESIDUAL_TOL and self.nu - self.margin > threshold


def _m_frame(a: OperatorMatrix) -> np.ndarray:
    """The M-Hermitian part S = (B + B^T)/2 of B = M^{1/2} A M^{-1/2}, with
    M = diag(grid.r2_weights) of the operator's grid; B is scaled in place
    into S, and symmetrized a block of rows at a time, so S is the one
    n x n array.  S is exactly symmetric: entries (i, j) and (j, i) are
    both (b_ij + b_ji) / 2.

    Every eigenpair A v = lam v has Re lam = x^H S x / x^H x with
    x = M^{1/2} v, so the bottom eigenvalue of S, the floor of the numerical
    range of A in L^2(r^2 dr), bounds every eigenvalue from the left.
    """
    root = np.sqrt(a.grid.r2_weights)
    s = root[:, None] * a.entries
    s /= root[None, :]
    start = 0
    for rows in row_blocks(s):
        # the block's rows right of its first column, with the columns
        # below them: both untouched by the blocks before
        stop = start + len(rows)
        upper = rows[:, start:]
        upper += s[start:, start:stop].T
        upper *= 0.5
        s[start:, start:stop] = upper.T
        start = stop
    return s


def _range_floor(s) -> RangeFloor:
    """Bottom eigenvalue nu of the Hermitian matrix ``s``, computed alone,
    with the margin n eps ||s||_1 that covers the rounding of the solve.

    The solve runs in place and consumes ``s``: a Fortran-ordered ``s``
    itself, a C-ordered one (real symmetric, as ``_m_frame`` makes it)
    through its transpose, which is ``s`` again.  LAPACK's Cholesky
    factorization (potrf, 1/3 n^3 flops) of its upper triangle either
    succeeds, and s is positive definite: then nu = 1 / theta for the
    largest eigenvalue theta of s^{-1}, found by Lanczos (ARPACK) on solves
    with the factor from the start vector ones(n) (Parlett, The Symmetric
    Eigenvalue Problem, 1998, ch. 13).  Or it fails; its diagonal is then
    written back and one-eigenvalue eigh reads the lower triangle, which
    potrf never touches, and tridiagonalizes all of s (4/3 n^3 flops).
    Besides s the solve holds n-vectors and ARPACK's n x ncv basis.
    """
    n = s.shape[0]
    margin = n * np.finfo(float).eps * scipy.linalg.norm(
        s, 1, check_finite=False)
    frame = s if s.flags.f_contiguous else s.T
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (frame,))
    diagonal = frame.diagonal().copy()
    if potrf(frame, clean=False, overwrite_a=True)[1] == 0:
        inverse = scipy.sparse.linalg.LinearOperator(
            frame.shape, matvec=lambda x: potrs(frame, x)[0], dtype=frame.dtype)
        theta = scipy.sparse.linalg.eigsh(inverse, k=1, which="LA",
                                          v0=np.ones(n, frame.dtype),
                                          return_eigenvectors=False)[0]
        return RangeFloor(float(1.0 / theta), float(margin), solver="cholesky")
    np.fill_diagonal(frame, diagonal)
    nu = scipy.linalg.eigh(frame, subset_by_index=[0, 0], eigvals_only=True,
                           overwrite_a=True)[0]
    return RangeFloor(float(nu), float(margin))


def _deflate(a: OperatorMatrix, sigma: float):
    """Deflate the eigenvector of ``a`` nearest ``sigma`` and bound the
    rest of its spectrum; returns (RangeFloor, lams, vectors, residuals).

    One shift-invert Arnoldi solve finds the vector v; the Householder QR
    of x = M^{1/2} v gives its unit multiple x0 and an orthonormal basis X1
    of its complement.  With
    lam = x0^H B x0 and R = B x0 - x0 lam, the matrix B - R x0^H
    leaves span x0 invariant and is block upper triangular in [x0, X1], so
    its spectrum is lam together with that of X1^H B X1, whose
    eigenvalues all have real part at least nu, the bottom eigenvalue of
    X1^H S X1.  When the floor certifies a threshold, lam, if it lies below
    it, is therefore the one eigenvalue of A below it up to a backward
    error ||R||_2, the guarantee a dense eigensolve gives (Stewart and Sun,
    Matrix Perturbation Theory, 1990, ch. V).  A missed eigenvalue stays in
    X1^H B X1 and pulls nu below it.  B is applied, never formed:
    B x0 = M^{1/2} (A (M^{-1/2} x0)), one matrix-vector product with A.
    S = ``_m_frame(a)`` is built only once the LU of the shift-invert solve
    is gone, and the reflector compresses it in place from both sides,
    O(n^2), without forming Q: on S itself (its Fortran-ordered transpose,
    which is S again) in real arithmetic, on one complex copy in complex
    arithmetic.  The trailing block is packed in place to the front of
    that array, where ``_range_floor`` consumes it (by its Cholesky factor
    in place when X1^H S X1 is positive definite), so a deflation holds one
    n x n array beside the operator.  ``lams`` holds lam and ``vectors``
    the unit eigenvector M^{-1/2} x0 of A as its one column, with the
    ``residuals`` of the guard of ``eig_dense``, which the pair passes.
    """
    mat = a.entries
    n = mat.shape[0]
    scale = scipy.linalg.norm(mat, np.inf, check_finite=False)
    root = np.sqrt(a.grid.r2_weights)[:, None]
    _, vecs = _shift_invert(mat, 1, sigma)
    # a real eigenvector keeps the whole deflation in real arithmetic
    x = root * (vecs if np.any(vecs.imag) else vecs.real)
    (h, tau), _ = scipy.linalg.qr(x, mode="raw")
    ormqr, = scipy.linalg.get_lapack_funcs(("ormqr",), (h,))
    lwork = 64 * n   # n times LAPACK's largest block size, for either side
    x0 = ormqr("L", "N", h, tau, np.eye(n, 1, dtype=h.dtype), lwork)[0]
    bx0 = root * (mat @ (x0 / root))
    lam = x0.conj().T @ bx0
    residual = np.linalg.norm(bx0 - x0 @ lam, 2) / scale
    s = _m_frame(a)
    d = s.T if s.dtype == h.dtype else np.array(s, dtype=h.dtype, order="F")
    del s
    adjoint = "C" if np.iscomplexobj(h) else "T"
    d = ormqr("L", adjoint, h, tau, d, lwork, overwrite_c=True)[0]
    d = ormqr("R", "N", h, tau, d, lwork, overwrite_c=True)[0]
    # pack the trailing block to the front of its buffer, column by column:
    # column j lies past where its packed copy goes
    m = n - 1
    flat = d.ravel(order="F")
    for j in range(m):
        flat[j * m:(j + 1) * m] = d[1:, 1 + j]
    rest = _range_floor(flat[:m * m].reshape((m, m), order="F"))
    del d, flat
    lams = np.diag(lam)
    vectors = x0 / root
    vectors /= np.linalg.norm(vectors, axis=0)
    res = _guard_residuals(mat, lams, vectors, scale)
    return (replace(rest, count=1, residual=float(residual)),
            lams.astype(complex), vectors, res)


def _shift_invert(mat, k: int, sigma):
    """The k eigenpairs of ``mat`` nearest ``sigma`` by one shift-invert
    Arnoldi solve from the fixed start vector ones(n), its solves on one
    ``DenseLU`` of mat - sigma I, the one n x n array it makes.  A real
    shift keeps a real matrix real; a complex shift needs complex
    arithmetic, and ARPACK's complex shift-invert mode never multiplies by
    the matrix, so a real one enters it as a complex linear operator and
    is not copied."""
    if np.imag(sigma) == 0.0:
        sigma, op = np.real(sigma), mat
    else:
        op = scipy.sparse.linalg.LinearOperator(mat.shape, matvec=mat.__matmul__,
                                                dtype=complex)
    return scipy.sparse.linalg.eigs(op, k=k, sigma=sigma,
                                    v0=np.ones(mat.shape[0], op.dtype),
                                    OPinv=DenseLU(mat, sigma))


def exponent_fits(values, lam, grid: RadialGrid):
    """Least-squares far-field and near-origin exponents of |v|.

    decay window: r in [rmax/20, rmax/2] (clear of the Dirichlet layer);
    origin window: [r_1, min(0.3, 50 r_1)].  Returns (decay_exponent,
    origin_exponent, consistent, reliable); ``consistent`` compares the
    decay against the resolvent bound -min(2, 2(1 - Re lam)) + _DECAY_SLACK, and an
    underflowing vector marks the fit unreliable instead of erroring.
    """
    r = grid.nodes
    v = np.abs(np.asarray(values))
    scale = v.max()
    reliable = True
    decay = 0.0
    origin = 0.0
    outer = (r >= grid.rmax / 20.0) & (r <= grid.rmax / 2.0) & (v > 1e-13 * scale)
    if np.count_nonzero(outer) < 8:
        reliable = False
        decay = -np.inf
    else:
        decay = float(np.polyfit(np.log(r[outer]), np.log(v[outer]), 1)[0])
    inner = (r <= min(0.3, 50.0 * r[0])) & (v > 1e-13 * scale)
    if np.count_nonzero(inner) < 4:
        reliable = False
    else:
        origin = float(np.polyfit(np.log(r[inner]), np.log(v[inner]), 1)[0])
    bound = -min(2.0, 2.0 * (1.0 - np.real(lam)))
    consistent = bool(decay <= bound + _DECAY_SLACK)
    return decay, origin, consistent, reliable


def refinement_ladder(n0: int = 200, rmax0: float = 40.0, levels: int = 3,
                      rmax_factors=(1, 2), growth: float = 30.0) -> dict:
    """Grid ladder {(n, rmax): RadialGrid} for the convergence filters.

    Node counts double per level; all grids share the same total geometric
    growth h_last/h_first, so refining n halves every spacing and two-grid
    Richardson logic applies cleanly.  Raises ValueError for fewer than 3
    levels or 2 radii, a growth that is not positive or a finest grid of
    more than ``_MAX_LADDER_NODES`` nodes, all before building any grid,
    and for a grid that does not build or has a spacing below sqrt(eps)
    rmax.
    """
    if levels < 3 or len(set(rmax_factors)) < 2:
        raise ValueError("the ladder needs >= 3 levels and >= 2 radii")
    if not growth > 0:
        raise ValueError(f"growth must be positive, got {growth}")
    n_fine = n0 * 2 ** (levels - 1)
    if n_fine > _MAX_LADDER_NODES:
        raise ValueError(f"the finest ladder grid has {n_fine} nodes, more "
                         f"than {_MAX_LADDER_NODES}")
    grids = {}
    for fac in rmax_factors:
        rmax = rmax0 * fac
        for lev in range(levels):
            n = n0 * 2 ** lev
            ratio = growth ** (1.0 / (n - 1))
            grid = make_grid(n, rmax, ("geometric", ratio))
            smallest = np.diff(grid.nodes, prepend=0.0).min() / rmax
            if smallest < math.sqrt(np.finfo(float).eps):
                raise ValueError(
                    f"growth {growth:g} gives the {n}-node ladder grid a "
                    f"spacing of {smallest:.3g} rmax, below sqrt(eps) rmax")
            grids[(n, rmax)] = grid
    return grids


def check_scan_grids(l: int, ladder: dict) -> list:
    """Keys (n, rmax) of the four ladder grids the scan of class l reads:
    the finest level at the largest radius, then its partners, the two
    coarser levels there and the finest level at the smallest radius.
    Raises ValueError when the ladder lacks one, or when L_l overflows on
    one (``class_overflows``).
    """
    ns = sorted({k[0] for k in ladder})
    rmaxs = sorted({k[1] for k in ladder})
    if len(ns) < 3 or len(rmaxs) < 2:
        raise ValueError("ladder needs >= 3 node counts and >= 2 domain radii")
    keys = [(ns[-1], rmaxs[-1]), (ns[-2], rmaxs[-1]), (ns[-3], rmaxs[-1]),
            (ns[-1], rmaxs[0])]
    missing = [key for key in keys if key not in ladder]
    if missing:
        raise ValueError(f"ladder lacks the scanned grids (n, rmax) {missing}")
    for key in keys:
        if class_overflows(l, ladder[key]):
            raise ValueError(f"class {l} overflows a float on the ladder "
                             f"grid (n, rmax) {key}")
    return keys


def class_overflows(l: int, grid: RadialGrid) -> bool:
    """Whether L_l overflows a float on ``grid``.  It forms r_1^{-(l+2)}
    and rmax^{l+3} apart, so neither (l+2) ln(1/r_1) nor (l+3) ln(rmax)
    may exceed ln(float max).  The integer exponent is compared as it is,
    never converted to a float, so a class of any size is tested."""
    log_max = math.log(np.finfo(float).max)

    def exceeds(k: int, x: float) -> bool:
        # k x > log_max
        return x > 0.0 and k > log_max / x

    return exceeds(l + 2, -math.log(grid.nodes[0])) \
        or exceeds(l + 3, math.log(grid.rmax))


def _match_nearest(cands: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """One-to-one partners in ``lams`` for ``cands``, nearest pairs first;
    a candidate left without one gets an infinite partner."""
    dist = np.abs(cands[:, None] - lams[None, :])
    partners = np.full(cands.size, np.inf, dtype=complex)
    for _ in range(min(dist.shape)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        partners[i] = lams[j]
        dist[i, :] = dist[:, j] = np.inf
    return partners


def _same_eigenvalue(mu, lam) -> bool:
    """Whether two computed eigenvalues are one, to _SAME_EIGENVALUE."""
    return abs(mu - lam) <= _SAME_EIGENVALUE * max(1.0, abs(lam))


def _nearest_eigenvalues(a: OperatorMatrix, cands: np.ndarray):
    """The m = ``cands.size`` eigenvalues of ``a`` nearest each candidate.

    Returns the union over the candidates, with an eigenvalue found from two
    shifts kept once, and per candidate the largest relative residual
    ||A v - mu v|| / (||v|| ||A||_inf) of the pairs found at its shift.
    Nearest-first matching pairs a candidate only with one of its m nearest
    eigenvalues, so matching against the union equals matching against the
    whole spectrum.  Each candidate costs one shift-invert Arnoldi solve
    (one LU of A - lam I) from a fixed start vector, and every pair passes
    the residual guard of ``eig_dense``.  ARPACK needs m < n - 1; otherwise
    the whole spectrum is computed by ``eig_dense`` and the residuals are
    None.
    """
    mat = a.entries
    n, m = mat.shape[0], cands.size
    if m >= n - 1:
        return eig_dense(a)[0], None
    scale = scipy.linalg.norm(mat, np.inf, check_finite=False)
    found, worst = [], np.empty(m)
    for i, lam in enumerate(cands):
        mus, vecs = _shift_invert(mat, m, lam)
        worst[i] = _guard_residuals(mat, mus, vecs, scale).max() / scale
        found.extend(mus)
    merged = []
    for mu in found:
        if not any(_same_eigenvalue(mu, k) for k in merged):
            merged.append(mu)
    return np.array(merged), worst


class Scan(NamedTuple):
    """Result of the filtered scan of one class.

    ``candidates`` holds every eigenvalue of the finest grid below the
    threshold with its filter diagnostics, and ``accepted`` the survivors.
    ``floor`` is the numerical-range floor of the finest grid's operator.
    ``path`` names what found the candidates: ``"floor"`` (it certifies
    that there is none), ``"deflation"`` (the floor with one eigenvector
    deflated certifies the deflated eigenpair) or ``"dense"`` (the full
    eigensolve).  ``certificate`` is the floor that decided, or on the
    dense path the deflated floor that fell short.
    """
    accepted: list
    candidates: list
    floor: RangeFloor
    certificate: RangeFloor
    path: str


def unstable_scan_detailed(l: int, threshold: float = 0.05, ladder=None) -> Scan:
    """Run the filtered scan for one class.

    When the floor does not certify the threshold, ``_deflate`` deflates
    the eigenvector nearest it, and only when the deflated floor does not
    certify either is the finest grid solved in full.  Only when there is a
    candidate are the partner grids of ``check_scan_grids`` solved, for
    the eigenvalues nearest the candidates alone; no other grid is built.
    """
    if ladder is None:
        ladder = refinement_ladder()
    fine_key, *partner_keys = check_scan_grids(l, ladder)
    fine_grid = ladder[fine_key]
    op = assemble_Ll(l, fine_grid)
    floor = _range_floor(_m_frame(op))
    if floor.certifies(threshold):
        return Scan([], [], floor, floor, "floor")
    certificate, lams, vecs, residuals = _deflate(op, floor.nu)
    path = "deflation" if certificate.certifies(threshold) else "dense"
    if path == "dense":
        lams, vecs, residuals = eig_dense(op)
    cand_idx = np.nonzero(lams.real < threshold)[0]
    if cand_idx.size == 0:
        return Scan([], [], floor, certificate, path)
    # free the operator and the full eigenvector matrix before the partner
    # solves, which would otherwise set the peak memory
    del op
    lams, vecs, residuals = lams[cand_idx], vecs[:, cand_idx], residuals[cand_idx]
    partners = []
    solves, worst = np.zeros(lams.size, dtype=int), np.zeros(lams.size)
    for key in partner_keys:
        found, res = _nearest_eigenvalues(assemble_Ll(l, ladder[key]), lams)
        partners.append(_match_nearest(lams, found))
        if res is not None:
            solves += 1
            worst = np.maximum(worst, res)
    candidates = []
    accepted = []
    for lam, v, residual, lam_mid, lam_coarse, lam_other, n_solves, \
            partner_res in zip(lams, vecs.T, residuals, *partners, solves, worst):
        h_defect = abs(lam_mid - lam)
        richardson_ok = abs(lam_coarse - lam_mid) <= 10.0 * h_defect + _ABS_TOL
        rmax_defect = abs(lam - lam_other)
        rmax_ok = rmax_defect <= _ABS_TOL
        decay, origin, consistent, reliable = exponent_fits(v, lam, fine_grid)
        filters = {"richardson": richardson_ok, "rmax": rmax_ok,
                   "unreliable": reliable, "decay": decay <= _DECAY_CAP,
                   "origin": abs(origin - l) <= _ORIGIN_SLACK,
                   "consistency": consistent}
        rejected_by = next((name for name, ok in filters.items() if not ok), "")
        report = EigenReport(l=l, lam=complex(lam), residual=float(residual),
                             converged=bool(richardson_ok and rmax_ok),
                             decay_exponent=decay, origin_exponent=origin,
                             accepted=not rejected_by, h_defect=float(h_defect),
                             rmax_defect=float(rmax_defect), vector=v,
                             grid=fine_grid, rejected_by=rejected_by,
                             partner_solves=int(n_solves),
                             partner_residual=float(partner_res))
        candidates.append(report)
        if report.accepted:
            accepted.append(report)
    return Scan(accepted, candidates, floor, certificate, path)


@dataclass
class ProjectionPair:
    """Right/left eigenvectors of one eigenvalue, paired in L^2(r^2 dr): the
    discrete Riesz projection onto that mode.

    ``floor`` is the deflated floor of the operator with the mode
    deflated and ``path`` how the mode was shown to be the one nearest its
    target: ``"deflation"`` (that floor certifies it) or ``"dense"`` (the
    full eigensolve confirms it).  ``condition`` is the eigenvalue condition
    number ||x|| ||y|| / |y^H x| of the right and left eigenvectors."""
    lam: complex
    right: np.ndarray   # unit in L^2(r^2 dr)
    left: np.ndarray    # sum(conj(left) grid.r2_weights right) = 1
    grid: RadialGrid
    biorthogonality_defect: float
    floor: RangeFloor
    path: str
    condition: float

    def coefficient(self, values):
        return (self.left.conj() * self.grid.r2_weights) @ np.asarray(values)

    def project_unstable(self, values) -> np.ndarray:
        return self.right * self.coefficient(values)

    def project_stable(self, values) -> np.ndarray:
        return np.asarray(values) - self.project_unstable(values)


def build_projection(a: OperatorMatrix, target: float) -> ProjectionPair:
    """Riesz projection onto the eigenvalue of ``a`` nearest ``target``.

    The left eigenvector y (y^H A = lam y^H) gives the coefficient
    f -> y^H f / y^H v of the right eigenvector v; in the r^2-weighted
    pairing the left mode is y / (w conj(y^H v)).  A near-defective pairing
    raises.
    """
    mode = mode_report(a, target)
    w = a.grid.r2_weights
    right = mode.right / a.grid.norm(mode.right)
    pairing = np.vdot(mode.left, right)
    if abs(pairing) < 1e-8:
        raise RuntimeError("near-defective left/right pairing")
    condition = float(np.linalg.norm(right) * np.linalg.norm(mode.left)
                      / abs(pairing))
    left = mode.left / (w * np.conj(pairing))
    defect = float(abs(np.sum(left.conj() * w * right) - 1.0))
    if defect > 1e-8:
        raise RuntimeError(f"bi-orthogonality defect {defect:.2e} > 1e-8")
    return ProjectionPair(lam=mode.lam, right=right, left=left, grid=a.grid,
                          biorthogonality_defect=defect, floor=mode.floor,
                          path=mode.path, condition=condition)


@dataclass(frozen=True)
class Mode:
    """One eigenvalue with its right and left eigenvectors, and the evidence
    that it is the one nearest its target (see ``ProjectionPair``)."""
    lam: complex
    right: np.ndarray
    left: np.ndarray
    floor: RangeFloor
    path: str


def mode_report(a: OperatorMatrix, target: float) -> Mode:
    """The eigenvalue of ``a`` nearest the real shift ``target`` with its
    right and left eigenvectors, A v = lam v and y^H A = lam y^H; v is a
    unit vector whose entry of largest modulus is real and positive.

    Two shift-invert Arnoldi solves from the scan's start vector find them,
    one on A at ``target`` (inside ``_deflate``) and one on A^H, and both
    pairs pass the residual guard of ``eig_dense``; a non-real eigenvalue
    raises before the second, as its conjugate is just as near.  The
    deflated floor then shows that every other eigenvalue has real part above
    max(0, target + |lam - target|), so lam is isolated, nearest the target
    and the only eigenvalue of the unstable half-plane.  Only when the floor
    falls short does the full eigensolve confirm that its eigenvalue
    nearest the target is lam.
    """
    mat = a.entries
    floor, lams, rights, _ = _deflate(a, target)
    lam = complex(lams[0])
    # the two members of a complex pair lie equally near a real target
    if not _same_eigenvalue(lam.conjugate(), lam):
        raise RuntimeError(f"the eigenvalues nearest {target!r} are the "
                           f"complex pair {lam!r} and {lam.conjugate()!r}")
    adjoint = mat.conj().T
    mus, lefts = _shift_invert(adjoint, 1, target)
    _guard_residuals(adjoint, mus, lefts, scipy.linalg.norm(
        adjoint, np.inf, check_finite=False))
    if not _same_eigenvalue(np.conj(mus[0]), lam):
        raise RuntimeError(f"the left solve found {np.conj(mus[0])!r}, "
                           f"the right solve {lam!r}")
    path = "deflation"
    if not floor.certifies(max(0.0, target + abs(lam - target))):
        dense = eig_dense(a)[0]
        nearest = dense[np.argmin(np.abs(dense - target))]
        if not _same_eigenvalue(nearest, lam):
            raise RuntimeError(f"the eigenvalue nearest {target!r} is "
                               f"{nearest!r}, not {lam!r}")
        path = "dense"
    # the sign (phase) of the right vector fixes the sign of every
    # projection coefficient: make its entry of largest modulus positive
    right = rights[:, 0]
    peak = right[np.argmax(np.abs(right))]
    return Mode(lam, right * (abs(peak) / peak), lefts[:, 0], floor, path)


def cosine_similarity(values_a, values_b, grid: RadialGrid) -> float:
    """|<a, b>| / (||a|| ||b||) in L^2(r^2 dr) of the grid."""
    a = np.asarray(values_a)
    b = np.asarray(values_b)
    inner = np.abs(np.sum(grid.r2_weights * a * np.conj(b)))
    return float(inner / (grid.norm(a) * grid.norm(b)))


def schrodinger_spectrum_check(band: tuple[np.ndarray, np.ndarray]) -> float:
    """Smallest Ritz value of a symmetric tridiagonal comparison operator
    given as its (diag, off) pair, by scipy.linalg.eigvalsh_tridiagonal."""
    diag, off = band
    return float(scipy.linalg.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, 0))[0])
