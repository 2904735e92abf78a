"""In-house ADMM solvers for complex basis pursuit and its block variant.

Splitting: min ||z||_1 (or sum of block norms) subject to x in {Ax = y}, x = z.
The x-update is an exact affine projection in one of two forms chosen by
the type of A (AffineProjection), and the z-update is the complex (block)
soft threshold.  A dense matrix takes row factors from its economy SVD, and
so does a Gabor frame, whose SVD N-tightness (A A* = N ||g||^2 I) gives in
closed form.  A fusion measurement operator takes coordinate blocks: a QR
factorization of its local blocks, one per coordinate, real for real
coefficients, with an SVD when full rank cannot be proved from R (see
_blockwise_qr).  Basis pursuit is positively homogeneous, so the iteration
runs on y/||y|| and the solution is rescaled afterwards; this keeps
convergence behavior scale-free.

When A has full column rank (projection rank d), {x : Ax = y} is one point,
the projection of 0, and it is returned with 0 iterations: a fusion
operator with n >= K measurements per coordinate is such a case.  The
iteration itself updates preallocated buffers and takes its five stopping
norms from one reduction.

Basis pursuit on a dense matrix also stops as soon as its answer is proved:
every few iterations the support of the shrunk iterate is repaired into a
support S, by dropping the columns its least-squares fit does not use and
adding, one by one, the columns that fit misses (_l1_certificate), and the
fit on S is returned when a strict dual certificate proves it the unique
minimiser, in the manner of OSQP's solution polishing.  Block basis pursuit
on a fusion measurement operator is certified the same way, block by block
(_group_certificate), with the fit on S from one batched QR over the
coordinates.  Each certificate supplies its fit and its dual map; the proof,
a minimum-norm dual and then a dual search, is written once, in
_strict_dual.  The solve's set ``tried`` holds every S whose dual was
tested, so no S is tested twice in a solve, and a check whose supp(z)
repeats the last check's is skipped.  Otherwise the iteration runs on
unchanged until the residual tolerances or the iteration cap stop it.

A recovery trial may also stop a solve once it is proved a failure.  The
trial passes its planted signal x, with k nonzero entries (or blocks), and
its NSE threshold tau.  Any subgradient g of f at x (g_b = x_b/||x_b|| on
the support, ||g_b|| <= 1 off it) gives f(v) >= f(x) + Re<g, v - x>.  Split
v - x into n in null(A) and w in the row space: Re<g, v - x> >=
-||P g|| ||n|| - ||g|| ||w||, with P the projector onto null(A),
||n|| <= ||v - x|| and ||w|| <= ||A v - A x|| / sigma, sigma the smallest
nonzero singular value of A.  So every v within NSE tau of x has

    f(v) >= f(x) - ||P g|| sqrt(tau) ||x|| - ||g|| ||A v - A x|| / sigma.

A projection output x_k meets A x_k = y up to rounding, and so does x, so
the last term is of rounding size.  Once f(x_k) falls below the bound, x_k
lies outside the NSE ball, and so does every minimiser: the feasible point
nearest x_k has an objective at most sqrt(B) ||A x_k - y|| / sigma above
f(x_k), for B blocks.  The solve then returns x_k with status "refuted"
(checked every _CERTIFY_PERIOD iterations; see _admm).  Until iteration
_TIGHTEN_AT the bound takes g = 0 off the support, so ||P g|| <= ||g|| =
sqrt(k) and no projection is needed; from there on g off the support is
chosen, once, to make ||P g|| small, by a few accelerated projected-gradient
steps with the solve's own null projector (N batched K x K blocks on the
fusion path): _dual_search, inside the unit balls.
The margin, the residuals and sigma enter with bounds on their rounding,
so the stop is proved, not estimated (_Refutation).  The public solve
commands never pass a trial.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FactorizationError, InvalidInputError
from .gabor import GaborFrame

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters_reached"
# a feasible iterate beat the caller's objective bound: see the module docstring
STATUS_REFUTED = "refuted"

# relative residual above which y is declared outside the range of A
_CONSISTENCY_TOL = 1e-8
# the QR rank test's bound must clear the SVD cutoff by this factor: the
# computed R is exact for a perturbation of B of order p * eps * ||B||, and
# near the cutoff R^-1 is computed to about p / size <= 1/N relative
_RANK_MARGIN = 2.0
# basis pursuit, and block basis pursuit on a fusion operator, try to certify
# the iterate every this many iterations
_CERTIFY_PERIOD = 10
# a dual certificate must keep |A_j^H w| (||A_b^H w|| for a block) below
# 1 - margin off the support
_CERTIFY_MARGIN = 1e-9
# relative residual within which the least-squares fit on S must meet y
_CERTIFY_FIT_TOL = 1e-12
# the certificates drop a column (a block) of S whose fitted coefficient
# (norm) is at most this fraction of the largest, and never add it back
_PRUNE_TOL = 1e-6
# a recovery trial's refutation bound is tightened once, at the first check at
# or past this iteration (_Refutation): fewer than 50 of the 512 fusion-40-13
# reference trials get that far, and most of those are headed for the cap
_TIGHTEN_AT = 200
# steps of _dual_search, in that tightening and in the certificates
_TIGHTEN_STEPS = 30
# the certificate's search keeps |g_j| <= this off the support: at 30 steps,
# radii 0.7 to 0.85 certify all 32 searches of the 480 classic-n43 reference
# trials at their first try; 0.6 misses 1, 0.9 misses 2 and 0.5 misses 6
_DUAL_RADIUS = 0.8


@dataclass
class SolverConfig:
    rho: float = 10.0
    max_iters: int = 5000
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9

    def __post_init__(self):
        # ADMM shrinks by 1/rho, so a subnormal rho would shrink by inf
        if not (math.isfinite(self.rho) and self.rho > 0 and math.isfinite(1.0 / self.rho)):
            raise InvalidInputError(f"rho={self.rho} must be positive and finite, "
                                    "with 1/rho finite")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be at least 1")
        tols = (self.tol_primal, self.tol_dual)
        if not all(math.isfinite(t) and t > 0 for t in tols):
            raise InvalidInputError(f"tolerances {tols} must be positive and finite")


@dataclass
class SolveResult:
    solution: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    status: str
    # (iterations, 2) array of per-iteration (primal, dual) residual norms,
    # in the normalized problem's scale; kept for divergence diagnostics.
    residual_history: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    objective: float = 0.0
    # True when the solution is the least-squares fit on a support proved
    # optimal by a dual certificate; the residuals are still the last iterate's
    certified: bool = False


@dataclass(frozen=True)
class BlockStructure:
    block_count: int
    block_size: int

    def __post_init__(self):
        if self.block_count < 1 or self.block_size < 1:
            raise InvalidInputError("block structure needs positive count and size")

    @property
    def dimension(self):
        return self.block_count * self.block_size

    def block_of(self, index):
        """Block containing coefficient `index` (coefficients are contiguous)."""
        if not 0 <= index < self.dimension:
            raise InvalidInputError(f"coefficient index {index} out of range")
        return index // self.block_size


class AffineProjection:
    """Orthogonal projection onto the affine set {x : Ax = y}, in row factors
    or in coordinate blocks.

    Row factors project w to w - F^H (s (F w - t)), with F^H v applied as
    (v^H F)^H, so F is never copied.  A dense matrix, tight or not, takes F,
    s, t = V_r, 1, Sigma_r^-1 U_r^H y from its economy SVD A = U_r Sigma_r
    V_r, and y must lie in the range of A or FactorizationError is raised.
    A GaborFrame is N-tight, A A* = cI with c = frame.frame_bound, so its SVD
    is U = I, Sigma = sqrt(c) I, V_r = A / sqrt(c), and F, s, t = A, 1/c, y:
    nothing is factored or copied.

    A FusionMeasurementOperator is block-diagonal up to a row and column
    permutation, so it is factored as its N local n x K blocks instead: one
    batched QR of each block's tall side, B = QR for n >= K and B^H = QR for
    n < K.  It is used only when a bound on R proves that every block has
    the full rank p = min(n, K) that the dense SVD of the permuted matrix
    would report; any other case takes one batched SVD, with the rank cutoff
    and the range check taken over all blocks at once, which is what that
    dense SVD gives.  With n >= K the feasible set is one point, so no null
    projector is formed.  Real blocks stay real: the factors and the null
    projectors are real, and a complex iterate is projected as its (N, K, 2)
    view of real and imaginary parts.

    ``rank`` is the rank of A: rank == d means the feasible set is a single
    point, which every w projects to.  ``null_part`` applies the linear part
    of the projection, the projector P onto null(A), whose g - P g the
    certificates test, and ``_sigma`` holds a lower bound on the smallest
    kept singular value of the factored A and an upper bound on its
    largest, for the refutation bound (_Refutation).
    """

    _owners = None  # (N, K) coefficient table, set only in the coordinate-block form

    def __init__(self, matrix, y):
        tight = isinstance(matrix, GaborFrame)
        A = matrix.columns if tight else _as_operator(matrix)
        y = np.asarray(y, dtype=complex).reshape(-1)
        n, d = A.shape
        if y.shape[0] != n:
            raise InvalidInputError(f"y has length {y.shape[0]}, expected {n}")
        self.matrix = A
        self.y = y
        self.uses_factorization = not tight
        if isinstance(A, FusionMeasurementOperator):
            self._init_blockwise(A, y)
            return
        if tight:
            self.rank = n
            self._sigma = (math.sqrt(matrix.frame_bound),) * 2
            self._rows, self._scale, self._target = A, 1.0 / matrix.frame_bound, y
            return
        _require_finite(A)
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        cutoff = s.max(initial=0.0) * (max(n, d) * np.finfo(float).eps)
        r = int(np.sum(s > cutoff))
        if r == 0:
            raise FactorizationError("measurement matrix has rank zero")
        self.rank = r
        self._sigma = (float(s[r - 1]), float(s[0]))
        Ur, sr = U[:, :r], s[:r]
        coeffs = Ur.conj().T @ y
        _require_consistent(y - Ur @ coeffs, y)
        self._rows, self._scale, self._target = Vh[:r], 1.0, coeffs / sr

    def _init_blockwise(self, op, y):
        n_rows, d = op.shape
        self._owners = op.owners
        y_local = op.local_measurements(y)[:, None, :]  # (N, 1, n): row vectors
        size = max(n_rows, d)
        factors = _blockwise_qr(op.blocks, y_local, y, size)
        if factors is None:
            factors = _blockwise_svd(op.blocks, y_local, y, size)
        local, self._null_projector, self.rank, self._sigma = factors
        self._particular = np.empty(d, dtype=complex)
        self._particular[op.owners] = local
        if self._null_projector is not None:
            N, _, K = op.blocks.shape
            # a complex (N, K) array viewed in the projector's dtype: (N, K, 2)
            # real and imaginary columns for a real projector, (N, K, 1) otherwise
            self._local_shape = (N, K, -1)
            # the projector's image, preallocated, and its flat complex view
            self._image = np.empty((N, K), dtype=complex).view(
                self._null_projector.dtype).reshape(self._local_shape)
            self._image_flat = self._image.view(complex).reshape(-1)
            # stacked coefficient i sits at flat position _placement[i] of (N, K)
            self._placement = np.argsort(op.owners.reshape(-1))

    def __call__(self, w, out=None):
        """The projection of w, written to ``out`` (a new array if None)."""
        w = np.asarray(w, dtype=complex).reshape(-1)
        if out is None:
            out = np.empty_like(w)
        if self._owners is None:
            self._row_step(w, self._rows @ w - self._target, out)
        elif self._null_projector is None:
            out[:] = self._particular  # the feasible set is this one point
        else:
            np.add(self._null_image(w)[self._placement], self._particular, out=out)
        return out

    def _row_step(self, w, r, out):
        """w - F^H (s r) into ``out``, in the row-factor form; scales the new
        array r in place; s = 1, the dense form, skips the scaling."""
        if self._scale != 1.0:
            r *= self._scale
        return np.subtract(w, (r.conj() @ self._rows).conj(), out=out)

    def _null_image(self, w):
        """P w in the coordinate-block form, in (N, K) order, in a buffer
        that the next call overwrites."""
        local = w[self._owners].view(self._null_projector.dtype)
        np.matmul(self._null_projector, local.reshape(self._local_shape), out=self._image)
        return self._image_flat

    def null_part(self, w, out):
        """The projection of w onto null(A), the part of __call__ that is linear
        in w, written to ``out``; A must have rank below d."""
        if self._owners is None:
            return self._row_step(w, self._rows @ w, out)
        out[:] = self._null_image(w)[self._placement]
        return out


def _require_consistent(residual, y):
    """FactorizationError unless the part of y outside the range, ``residual``, is negligible."""
    if np.linalg.norm(residual) > _CONSISTENCY_TOL * max(1.0, np.linalg.norm(y)):
        raise FactorizationError("y is not in the range of the measurement matrix")


def _blockwise_qr(blocks, y_local, y, size):
    """(particular solution, null projectors, rank, singular value bounds)
    of the (N, n, K) local ``blocks`` by one batched QR, or None unless
    every block provably has full rank p = min(n, K).

    Each block B is factored on its tall side, B = QR when n >= K and
    B^H = QR when n < K, so R is p x p.  The SVD path keeps a singular value
    above s_max * size * eps, s_max the largest over all blocks.  The
    singular values of B are those of R, each at least 1/||R^-1||_F, and
    s_max <= max ||B||_F; so when min 1/||R^-1||_F clears max ||B||_F * size
    * eps, by _RANK_MARGIN, the SVD would keep all N*p of them.  Any other
    case, a singular R included, is left to the SVD (_blockwise_svd).
    ``y_local`` holds y's (N, 1, n) rows by coordinate.  The bounds are
    (min 1/||R^-1||_F, max ||B||_F): at most the smallest and at least the
    largest singular value of the computed factors.
    """
    N, n, K = blocks.shape
    wide = n < K
    Q, R = np.linalg.qr(blocks.conj().transpose(0, 2, 1) if wide else blocks)
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:  # an exactly singular R
        return None
    with np.errstate(over="ignore"):  # an overflowing inverse only fails the test
        floor = 1.0 / np.linalg.norm(R_inv, axis=(1, 2)).max()
    ceiling = np.linalg.norm(blocks, axis=(1, 2)).max()
    if not floor > _RANK_MARGIN * ceiling * size * np.finfo(float).eps:
        return None
    if wide:
        # B = R^H Q^H has full row rank, so every y is in the range; the
        # minimum-norm solution is Q R^-H y, and I - Q Q^H projects onto null(B)
        local = (y_local @ R_inv.conj()) @ Q.transpose(0, 2, 1)
        return local[:, 0], np.eye(K) - Q @ Q.conj().transpose(0, 2, 1), N * n, (floor, ceiling)
    # B = QR has full column rank: R^-1 Q^H y is the one feasible point, so
    # there is no null space to project onto
    coeffs = y_local @ Q.conj()  # (Q^H y)^T per block
    _require_consistent(y_local - coeffs @ Q.transpose(0, 2, 1), y)
    return (coeffs @ R_inv.transpose(0, 2, 1))[:, 0], None, N * K, (floor, ceiling)


def _blockwise_svd(blocks, y_local, y, size):
    """(particular solution, null projectors, rank, singular value bounds)
    of the (N, n, K) local ``blocks`` by one batched SVD, with the rank
    cutoff and the range check taken over all blocks at once, which is what
    the dense SVD of the permuted matrix gives.  Arguments as in
    _blockwise_qr; the bounds are the smallest kept and the largest singular
    value.
    """
    # U: (N, n, p), s: (N, p), Vh: (N, p, K) with p = min(n, K); real
    # when the blocks are
    U, s, Vh = np.linalg.svd(blocks, full_matrices=False)
    s_max = float(s.max())
    if s_max == 0.0:
        raise FactorizationError("measurement matrix has no energy")
    keep = s > s_max * size * np.finfo(float).eps
    Vr = Vh * keep[:, :, None]
    coeffs = (y_local @ U.conj()) * keep[:, None, :]  # U_r^H y per block
    _require_consistent(y_local - coeffs @ U.transpose(0, 2, 1), y)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    local = ((coeffs * inv_s[:, None, :]) @ Vr.conj())[:, 0]
    # per-block projector onto the null space, I - V_r^H V_r: one batched
    # matmul per call is cheaper than applying V_r and V_r^H in turn
    return (local, np.eye(Vh.shape[2]) - Vr.conj().transpose(0, 2, 1) @ Vr, int(keep.sum()),
            (float(s[keep].min()), s_max))


_TINY = np.finfo(float).tiny


def _row_squares(parts, out=None):
    """Squared norm of each row of the real 2-d ``parts``: one batched dot
    product, written to ``out`` (one slot per row) if given."""
    rows = len(parts)
    if out is None:
        out = np.empty(rows)
    np.matmul(parts[:, None, :], parts[:, :, None], out=out.reshape(rows, 1, 1))
    return out


def _shrinkage(norms, tau):
    """Shrink factors max(1 - tau/max(norms, tiny), 0), computed in place:
    flooring norms at max(tau, tiny) keeps 1 - tau/norms nonnegative, so it
    needs no clamp at 0."""
    np.maximum(norms, max(tau, _TINY), out=norms)
    np.divide(tau, norms, out=norms)
    return np.subtract(1.0, norms, out=norms)


def _entry_shrink(v, out):
    """The complex soft threshold of the 1-d v into ``out``, unchecked, as a
    function of tau alone (the ADMM z-update): the magnitude buffer is bound once."""
    magnitudes = np.empty(len(v))

    def shrink(tau):
        np.multiply(v, _shrinkage(np.abs(v, out=magnitudes), tau), out=out)

    return shrink


def _block_shrink(v, out, count):
    """The block soft threshold of v, split into ``count`` equal blocks, into
    ``out``, unchecked, as a function of tau alone (the ADMM z-update): its
    real views, norm buffer and (count, 1, 1) matmul target are bound once."""
    parts = v.view(float).reshape(count, -1)  # per block: real and imaginary parts
    target = out.view(float).reshape(count, -1)
    norms = np.empty(count)
    squares, scale = norms.reshape(count, 1, 1), norms[:, None]
    rows, columns = parts[:, None, :], parts[:, :, None]

    def shrink(tau):
        np.matmul(rows, columns, out=squares)
        _shrinkage(np.sqrt(norms, out=norms), tau)
        np.multiply(parts, scale, out=target)

    return shrink


def complex_soft_threshold(z, tau):
    """Proximal map of the complex modulus: z * max(1 - tau/|z|, 0)."""
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidInputError(f"threshold tau={tau} must be nonnegative and finite")
    arr = np.asarray(z, dtype=complex)
    out = np.empty(arr.size, dtype=complex)
    _entry_shrink(arr.reshape(-1), out)(tau)
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def block_soft_threshold(z, tau, blocks):
    """Per-block shrinkage: each block scales by max(1 - tau/||z_b||, 0)."""
    if not (math.isfinite(tau) and tau >= 0):
        raise InvalidInputError(f"threshold tau={tau} must be nonnegative and finite")
    arr = np.ascontiguousarray(z, dtype=complex).reshape(-1)
    if arr.size != blocks.dimension:
        raise InvalidInputError(f"z has {arr.size} entries, blocks cover {blocks.dimension}")
    out = np.empty_like(arr)
    _block_shrink(arr, out, blocks.block_count)(tau)
    return out


def _as_operator(matrix):
    """A Gabor frame or fusion measurement operator as is; else a dense complex
    2-d array with at least one column (InvalidInputError otherwise, before any
    solver reads its shape).  Its entries are checked by _require_finite."""
    if isinstance(matrix, (GaborFrame, FusionMeasurementOperator)):
        return matrix
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2:
        raise InvalidInputError("matrix must be 2-d")
    if A.shape[1] == 0:
        raise InvalidInputError("matrix has no columns: there is no x to solve for")
    return A


def _require_finite(A):
    """InvalidInputError if the operator A is a dense array with a nan or inf
    entry.  A solve reads A's entries once: AffineProjection checks them
    before it factors A, and _admm when y = 0 needs no projection."""
    if isinstance(A, np.ndarray) and not np.isfinite(A).all():
        raise InvalidInputError("matrix has non-finite entries (nan or inf)")


def _dual_search(project, g, fixed, radius):
    """FISTA (Beck & Teboulle 2009) on ||P g||^2 / 2, P = ``project.null_part``,
    over the 2-d complex g (one row per block) whose rows in the mask
    ``fixed`` keep g's values and whose other rows lie in the ball of
    ``radius``: the gradient is P g, so the step is 1, and P of the
    extrapolated point combines the last two images, as P is linear.  Each
    step projects the whole array and writes the fixed rows back.  Yields
    the _TIGHTEN_STEPS projected iterates and their images; reads g only."""
    def image_of(v):
        return project.null_part(v.reshape(-1), np.empty(v.size, complex)).reshape(v.shape)

    start = np.array(g, dtype=complex)
    x = x_old = start
    image = image_old = image_of(x)
    t, beta = 1.0, 0.0
    for _ in range(_TIGHTEN_STEPS):
        point = x + beta * (x - x_old) - (image + beta * (image - image_old))
        norms = np.sqrt(_row_squares(point.view(float).reshape(len(point), -1)))
        point *= (radius / np.maximum(norms, radius))[:, None]
        np.copyto(point, start, where=fixed[:, None])
        x_old, image_old, x = x, image, point
        image = image_of(x)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        t, beta = t_next, (t - 1.0) / t_next
        yield x, image


def _append_column(Q, R, a):
    """The QR factors of [A_S, a] from those of A_S = QR: classical
    Gram-Schmidt with one reorthogonalisation, which keeps Q orthonormal to
    working precision ("twice is enough": Giraud et al. 2005).  The new
    diagonal entry of R is the distance of a from range(A_S), as in the
    Householder factors, so the rank test reads it the same way."""
    m = R.shape[0]
    h = Q.conj().T @ a
    v = a - Q @ h
    again = Q.conj().T @ v
    v -= Q @ again
    h += again
    norm = np.linalg.norm(v)
    grown = np.zeros((m + 1, m + 1), dtype=np.result_type(R, h))
    grown[:m, :m] = R
    grown[:m, m] = h
    grown[m, m] = norm
    return np.column_stack((Q, v / norm if norm else v)), grown


def _strict_dual(project, support, tried, dual, fit):
    """``fit`` if a strict dual certificate proves it the unique minimiser,
    else None: the proof that _l1_certificate and _group_certificate share.

    ``fit`` is the least-squares fit x_S on S, the columns or blocks listed
    in increasing order in ``support``.  ``dual(r)`` returns the dual
    h = A^H W (sgn(x_S) - r_S) + r, r = 0 when None, as a (rows, block size)
    array in stacked order with its rows of S set to sgn(x_S); W is the
    minimum-norm dual map on S.  A_S^H W = I gives h_S = sgn(x_S), and any r
    in range(A^H) makes h = A^H w for w = W (sgn(x_S) - r_S) + pinv(A^H) r,
    never formed.  So when every b outside S has |h_b| (||h_b|| for a block)
    below 1 - _CERTIFY_MARGIN, w is a strict dual certificate, and the fit
    is the unique minimiser (Fuchs 2004; Tropp 2004; Eldar & Mishali 2009);
    a unique minimiser always has one (Zhang, Yin & Cheng 2015).

    The minimum-norm dual, r = 0, is tested first.  Failing that, and only
    while A_S has fewer columns than A has rows (a square A_S leaves that
    dual as the only one), _dual_search runs at _DUAL_RADIUS from it, with
    the rows of S fixed, and each iterate g is tested with its row-space
    part r = g - P g, P g the image the search yields; the first to pass
    proves the fit.

    ``tried`` holds every S whose dual was tested before in the solve.  A
    success ends the solve, so each of them failed, and fails again: a
    support in it gives None before any test, and S is added to it.
    """
    key = support.tobytes()
    if key in tried:
        return None
    tried.add(key)

    def strict(h):
        # |h_b| or ||h_b|| off S: S is zeroed in the new array of norms, not
        # in h, which the search starts from
        if h.shape[1] == 1:
            off = np.abs(h[:, 0])
        else:
            off = np.sqrt(_row_squares(h.view(float).reshape(len(h), -1)))
        off[support] = 0.0
        return off.max() < 1.0 - _CERTIFY_MARGIN

    h = dual(None)
    if strict(h):
        return fit
    if support.size * h.shape[1] >= project.matrix.shape[0]:
        return None
    fixed = np.zeros(len(h), dtype=bool)
    fixed[support] = True
    for g, image in _dual_search(project, h, fixed, _DUAL_RADIUS):
        if strict(dual(g - image)):
            return fit
    return None


def _l1_certificate(project, z, blocks, tried):
    """The unique minimiser of ||x||_1 s.t. Ax = y on a support S repaired
    from supp(z), or None; A and y are those of the solve's AffineProjection
    ``project``, and ``blocks`` (of size 1) is not read.

    S starts as supp(z), and x_S is the least-squares fit of y on the
    columns A_S.  S is repaired until that fit meets y with every column in
    use: once it meets y, the columns whose coefficient is at most
    _PRUNE_TOL times the largest are dropped, for good, and S is refitted;
    while it misses y, S gains the column, never a dropped one, with the
    largest |A_j^H r| for the residual r, up to |S| = n.  An added column
    extends the QR factors of A_S (_append_column); a drop refactors them.
    The fit, scattered into a length-d vector, goes to _strict_dual's proof
    only when 0 < |S| <= n, A_S has full column rank and A_S x_S = y to a
    relative _CERTIFY_FIT_TOL; its dual map uses W = Q R^-H.  Reads z,
    writes nothing but ``tried``.
    """
    A, y = project.matrix, project.y
    n, d = A.shape
    S = np.flatnonzero(z)
    dropped = np.zeros(d, dtype=bool)
    fit_tol = _CERTIFY_FIT_TOL * np.linalg.norm(y)
    Q = None  # with R, the QR factors of A_S; None when S must be refactored
    while True:
        if not 0 < S.size <= n:
            return None
        if Q is None:
            Q, R = np.linalg.qr(A[:, S])
        else:
            Q, R = _append_column(Q, R, A[:, S[-1]])
        diag = np.abs(np.diagonal(R))
        if diag.min() <= diag.max() * max(n, S.size) * np.finfo(float).eps:
            return None
        coeffs = Q.conj().T @ y
        # what the least-squares fit on S leaves over, y - Q Q^H y
        residual = y - Q @ coeffs
        if np.linalg.norm(residual) <= fit_tol:
            x_S = np.linalg.solve(R, coeffs)
            mag = np.abs(x_S)
            negligible = mag <= _PRUNE_TOL * mag.max()
            if not negligible.any():
                break
            # S holds columns the fit does not use: drop them for good
            dropped[S[negligible]] = True
            S, Q = S[~negligible], None
        elif S.size == n:
            return None
        else:
            # S misses columns: add the one that best explains what the fit
            # leaves over (r is orthogonal to A_S, so it lies outside S)
            correlation = np.abs(residual.conj() @ A)
            correlation[dropped] = -1.0
            S = np.append(S, np.argmax(correlation))
    if np.linalg.norm(y - A[:, S] @ x_S) > fit_tol:
        return None
    sign = x_S / mag
    W = Q @ np.linalg.inv(R).conj().T  # Q R^-H

    def dual(r):
        # A^H w + r for w = W (sgn(x_S) - r_S), with A^H w read as (w^H A)^H
        h = ((W @ (sign if r is None else sign - r[S, 0])).conj() @ A).conj()
        if r is not None:
            h += r[:, 0]
        h[S] = sign
        return h[:, None]

    x = np.zeros(d, dtype=complex)
    x[S] = x_S
    return _strict_dual(project, np.sort(S), tried, dual, x)


def _group_certificate(project, z, blocks, tried):
    """The unique minimiser of sum_b ||x_b|| s.t. Ax = y on the blocks of
    supp(z), or None; A is the FusionMeasurementOperator and y the
    measurements of the solve's AffineProjection ``project``, and ``blocks``
    the objective's BlockStructure.

    S is the set of blocks of supp(z).  A decouples by coordinate: the active
    columns C_m of coordinate m are those of its local block whose
    coefficient lies in a block of S, |S_m| of them, so A_S can have full
    column rank only if every |S_m| <= n, which is tested first (and, more
    cheaply still, that supp(z) has no more entries than A has rows).  The
    least-squares fit x_S then comes from one batched QR, over the N
    coordinates, of [C_m, 0, y_m]: C_m padded with zero columns to the
    largest |S_m|, then y_m as columns (its real and imaginary parts for
    real blocks).  A pad column leaves the factorization of C_m unchanged
    and puts a zero on R's diagonal, set to 1 before R is inverted; R's y
    columns hold Q^H y_m in the |S_m| rows of C_m and the part of y_m
    outside range(C_m) below them.  Blocks whose fitted norm is at most
    _PRUNE_TOL times the largest are dropped for good, and S is refitted.
    The fit, a length-d vector, goes to _strict_dual's proof only when S is
    nonempty, A_S has full column rank by _l1_certificate's test on R's
    diagonal and A_S x_S = y to a relative _CERTIFY_FIT_TOL; there
    sgn(x_S) = x_b/||x_b|| on S, and ||h_b|| is tested for each block b
    outside S (Eldar & Mishali 2009).  The dual map is read by coordinate:
    W is C_m (C_m^H C_m)^-1 = C_m R^-1 R^-H on each, the minimum-norm dual
    map on S, so B_m^H W is one (N, K, width) array built once from the
    fit, zero at the pads, and h is scattered to stacked order through the
    operator's owners table.  An S in ``tried`` is not fitted again.  Reads
    z, writes nothing but ``tried``.
    """
    op = project.matrix
    if np.count_nonzero(z) > op.shape[0]:
        return None  # A_S has more columns than rows: some |S_m| > n
    N, n, K = op.blocks.shape
    d = op.shape[1]
    count, size = blocks.block_count, blocks.block_size
    owner_blocks = op.owners // size
    S = z.reshape(count, size).any(axis=1)
    table = None
    while True:
        active = S[owner_blocks]
        counts = active.sum(axis=1)
        width = int(counts.max())
        # a support whose dual was tested before in the solve is not refitted
        if not 0 < width <= n or np.flatnonzero(S).tobytes() in tried:
            return None
        if table is None:  # what every fit reads
            dtype = op.blocks.dtype
            # y by coordinate, in the blocks' dtype: (N, n, 2) real and
            # imaginary columns for real blocks, (N, n, 1) for complex ones
            y_local = np.ascontiguousarray(op.local_measurements(project.y))
            y_local = y_local.view(dtype).reshape(N, n, -1)
            # the local columns, a zero pad column K, then y's columns
            table = np.concatenate((op.blocks, np.zeros((N, n, 1), dtype), y_local), axis=2)
            coordinates = np.arange(N)[:, None]
            # the coefficient of each table column; the pad's is d, whose
            # block d // size is the count-th, one past the last
            coefficients = np.concatenate((op.owners, np.full((N, 1), d)), axis=1)
            fit_tol = _CERTIFY_FIT_TOL * np.linalg.norm(project.y)
        # per coordinate, the active columns in order, then the pads, then
        # y's columns: [C_m, 0, y_m] is M
        index = np.empty((N, table.shape[2] - K - 1 + width), dtype=int)
        index[:, :width] = np.sort(np.where(active, np.arange(K), K), axis=1)[:, :width]
        index[:, width:] = np.arange(K + 1, table.shape[2])
        M = table[coordinates, :, index].transpose(0, 2, 1)
        R = np.linalg.qr(M, mode="r")
        pads = np.arange(width) >= counts[:, None]
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2)[:, :width])
        size_eps = max(op.shape[0], int(counts.sum())) * np.finfo(float).eps
        if np.where(pads, np.inf, diag).min() <= diag.max() * size_eps:
            return None
        # y_m outside range(C_m): the rows of R's y columns past |S_m|
        outside = np.arange(R.shape[1]) >= counts[:, None]
        if np.linalg.norm(R[:, :, width:] * outside[:, :, None]) > fit_tol:
            return None
        R_inv = np.linalg.inv(R[:, :width, :width] + pads[:, None, :] * np.eye(width))
        fit = R_inv @ (R[:, :width, width:] * ~pads[:, :, None])  # zero at the pads
        slots = coefficients[coordinates, index[:, :width]]
        slot_blocks = slots // size
        norms = np.sqrt(np.bincount(slot_blocks.reshape(-1), minlength=count + 1,
                                    weights=np.square(fit.view(float)).sum(axis=2).reshape(-1)))
        negligible = S & (norms[:count] <= _PRUNE_TOL * norms.max())
        if not negligible.any():
            break
        S = S & ~negligible  # blocks the fit does not use
    C = M[:, :, :width]
    if np.linalg.norm(y_local - C @ fit) > fit_tol:
        return None
    norms[count] = 1.0  # the pads' fit is 0
    sign = fit / norms[slot_blocks][:, :, None]
    gram_inv = R_inv @ R_inv.conj().transpose(0, 2, 1)  # (C^H C)^-1 with the pads' 1s
    # B_m^H W_m, W_m = C_m (C_m^H C_m)^-1 the minimum-norm dual map on S
    # (zero at the pads): the dual tested is h = A^H W (sgn(x_S) - r_S) + r
    dual_map = op.blocks.conj().transpose(0, 2, 1) @ (C @ gram_inv)
    padded = np.zeros(d + 1, dtype=complex)  # r, and 0 at the pads' index d

    def dual(r):
        if r is not None:
            padded[:d] = r.reshape(-1)
        local = (dual_map @ (sign - padded[slots].view(dtype).reshape(sign.shape))
                 + padded[op.owners].view(dtype).reshape(N, K, -1))
        # scattered to stacked order, with sgn(x_S) on S; the pads land on d
        h = np.empty(d + 1, dtype=complex)
        h[op.owners] = local.view(complex)[..., 0]
        h[slots] = sign.view(complex)[..., 0]
        return h[:d].reshape(count, size)

    x = np.zeros(d + 1, dtype=complex)
    x[slots] = fit.view(complex)[..., 0]
    return _strict_dual(project, np.flatnonzero(S), tried, dual, x[:d])


class _Refutation:
    """The objective bound below which a projection output x_k proves a
    recovery trial a failure (module docstring), in the scale of y/||y||.

    ``refutes(x_k, it)`` is True when f(x_k) < f(x) - m sqrt(tau) ||x|| -
    slack.  The margin factor m is ||g|| = sqrt(k) for the subgradient g that
    is 0 off the support, until the first check at or past _TIGHTEN_AT.
    There g off the support is chosen once, as the last iterate of
    _dual_search over the unit block balls; the bound holds for any g in
    them, however small ||P g|| came out, and m = ||P g|| as computed plus
    ||g|| (delta/sigma + size^1.5 eps).  Here
    size = max(n, d), the factors of the projection are exact for a matrix
    within delta = s_max size eps of A (s_max an upper bound on its largest
    singular value; the SVD paths drop singular values below the same
    delta), sigma = s_min - delta is then a lower bound on the smallest
    nonzero singular value of that matrix, from the bound s_min each path
    has (_blockwise_qr, _blockwise_svd, sqrt(c) for a Gabor frame), and
    size^1.5 eps covers the rounding of applying P.  The slack is
    sqrt(B) (r(x_k) + r(x)) / sigma + size eps (f(x_k) + f(x)), with B the
    block count, r(v) the computed ||A v - y|| plus the rounding of
    computing it, and the last term the rounding of the two objectives.  It
    is computed only when f(x_k) is already below the bound without it.
    """

    def __init__(self, x, tau, blocks, objective, project, ynorm):
        # only what the checks before _TIGHTEN_AT read: most solves stop sooner
        x = np.asarray(x, dtype=complex).reshape(-1) / ynorm
        self._x, self._objective, self._project = x, objective, project
        self._parts = x.reshape(blocks.block_count, blocks.block_size)
        self._value = objective(x)
        self._radius = math.sqrt(tau) * float(np.linalg.norm(x))
        self._margin = math.sqrt(np.count_nonzero(self._parts.any(axis=1)))
        self._tightened = False

    def _scales(self):
        """(size, size eps, s_max, sigma) of the class docstring, with delta =
        s_max size eps taken off the path's lower bound s_min."""
        size = max(self._project.matrix.shape)
        unit = size * np.finfo(float).eps
        lower, upper = self._project._sigma
        return size, unit, upper, lower - upper * unit

    def _residual(self, v):
        """r(v): ||A v - y|| as computed plus a bound on the rounding of
        computing it (A v sums at most size terms per entry, and ||A||_F <=
        sqrt(size) s_max)."""
        size, unit, upper, _ = self._scales()
        y = self._project.y
        computed = float(np.linalg.norm(self._project.matrix @ v - y))
        return computed * (1.0 + unit) + math.sqrt(size) * unit * (
            upper * float(np.linalg.norm(v)) + float(np.linalg.norm(y)))

    def _tighten(self):
        self._tightened = True
        norms = np.linalg.norm(self._parts, axis=1)
        on = norms > 0
        g = np.zeros_like(self._parts)
        np.divide(self._parts, norms[:, None], out=g, where=on[:, None])
        # radius 1 keeps every iterate a subgradient; the bound takes the last
        for g, image in _dual_search(self._project, g, on, 1.0):
            pass
        size, unit, upper, sigma = self._scales()
        rounding = upper * unit / sigma + math.sqrt(size) * unit
        self._margin = float(np.linalg.norm(image)) + float(np.linalg.norm(g)) * rounding

    def refutes(self, v, it):
        """Whether the projection output v at iteration ``it`` is proved a failure."""
        if it >= _TIGHTEN_AT and not self._tightened:
            self._tighten()
        value = self._objective(v)
        bound = self._value - self._margin * self._radius
        if not value < bound:
            return False
        _, unit, _, sigma = self._scales()
        slack = (math.sqrt(len(self._parts)) * (self._residual(v) + self._residual(self._x))
                 / sigma + unit * (value + self._value))
        return value < bound - slack


def scaled_norm(v):
    """||v||_2 as np.linalg.norm gives it or, when the sum of squares
    overflows (a norm above about 1.3e154), as m ||v / m|| with m the
    largest real or imaginary part in magnitude."""
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(v))
    if math.isinf(value):
        v = np.asarray(v, dtype=complex)
        scale = float(np.abs(v.view(float)).max())
        value = scale * float(np.linalg.norm(v / scale))
    return value


def _admm(A, y, cfg, blocks, make_shrink, objective, certificate=None, refute=None):
    """ADMM for min objective(x) s.t. Ax = y, with ``make_shrink(v, out)``
    giving its proximal map of v into ``out`` as a function of tau alone, and
    ``blocks`` the blocks objective sums the norms of (size 1 for l1).

    A full-column-rank A has one feasible point, returned with 0 iterations.
    Otherwise, every _CERTIFY_PERIOD iterations it calls ``certificate``
    (project, z, blocks, tried), if given (_l1_certificate or
    _group_certificate), on a supp(z) unlike the last check's; ``tried`` is
    the solve's set of supports whose duals _strict_dual has tested, each
    tested once, and a proved minimiser returned stops the solve.  Then,
    when ``refute`` = (x, tau) names a
    recovery trial's planted signal and NSE threshold, it stops with
    STATUS_REFUTED as soon as the projection output is proved to lie, with
    every minimiser, farther than NSE tau from x (_Refutation).
    """
    y = np.asarray(y, dtype=complex).reshape(-1)
    if not np.isfinite(y).all():
        raise InvalidInputError("y has non-finite entries (nan or inf)")
    d = A.shape[1]
    ynorm = scaled_norm(y)
    if ynorm == 0.0:
        _require_finite(A)  # else AffineProjection checks it
        return SolveResult(np.zeros(d, dtype=complex), 0, 0.0, 0.0, STATUS_CONVERGED)
    project = AffineProjection(A, y / ynorm)
    if project.rank == d:
        solution, value = _rescale(project(np.zeros(d, dtype=complex)), ynorm, objective)
        return SolveResult(solution, 0, 0.0, 0.0, STATUS_CONVERGED, objective=value)
    # f is positively homogeneous, so the bound is compared in the scale of y / ||y||
    refutation = None if refute is None else _Refutation(*refute, blocks, objective,
                                                         project, ynorm)
    # rows x - z, z - z_old, x, z, u: their squared norms are one reduction
    # over the real view; the first two are kept as the residual history
    rows = np.zeros((5, d), dtype=complex)
    primal, step, x, z, u = rows
    parts = rows.view(float)
    squares = np.empty(5)
    # grows per iteration: max_iters bounds the loop, not memory
    history = []
    w = np.empty(d, dtype=complex)
    shrink = make_shrink(w, z)
    rho = cfg.rho
    tau = 1.0 / rho
    tol_primal = cfg.tol_primal * math.sqrt(d)
    tol_dual = cfg.tol_dual * math.sqrt(d)
    status = STATUS_MAX_ITERS
    certified = False
    last_support = None
    tried_supports = set()
    it = 0
    # an iterate of finite entries can have squares beyond double precision;
    # the stopping test then reads inf, and _rescale reports what follows
    with np.errstate(over="ignore"):
        for it in range(1, cfg.max_iters + 1):
            project(np.subtract(z, u, out=w), out=x)
            np.negative(z, out=step)
            np.add(x, u, out=w)
            shrink(tau)
            step += z
            np.subtract(x, z, out=primal)
            u += primal
            r2, s2, x2, z2, u2 = _row_squares(parts, squares).tolist()
            history.append((r2, s2))
            if (math.sqrt(r2) <= tol_primal * max(1.0, math.sqrt(max(x2, z2)))
                    and rho * math.sqrt(s2) <= tol_dual * max(1.0, rho * math.sqrt(u2))):
                status = STATUS_CONVERGED
                break
            if it % _CERTIFY_PERIOD:
                continue
            if certificate is not None:
                # a repeated supp(z) repeats the last check's verdict:
                # nothing new to test
                support = (z != 0).tobytes()
                if support != last_support:
                    last_support = support
                    exact = certificate(project, z, blocks, tried_supports)
                    if exact is not None:
                        x, status, certified = exact, STATUS_CONVERGED, True
                        break
            if refutation is not None and refutation.refutes(x, it):
                status = STATUS_REFUTED
                break
    history = np.sqrt(history)
    history[:, 1] *= rho
    solution, value = _rescale(x, ynorm, objective)
    return SolveResult(
        solution=solution,
        iterations=it,
        primal_residual=float(history[-1, 0]),
        dual_residual=float(history[-1, 1]),
        status=status,
        residual_history=history,
        objective=value,
        certified=certified,
    )


def _rescale(x, ynorm, objective):
    """The solution x * ynorm of the problem in y's own scale, and its
    objective; InvalidInputError when either is beyond double precision.
    The objective is at least each |entry|, so a finite one proves every
    entry of the solution finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        solution = x * ynorm
        value = float(objective(solution))
        # f is positively homogeneous, so it is recomputed at a scale where
        # its block norms neither overflow nor underflow: x's, or that of
        # the solution's largest real or imaginary part
        if not math.isfinite(value):
            value = ynorm * float(objective(x))
        elif value == 0.0 and solution.any():
            # divided as reals: a complex quotient squares the scale
            parts = solution.view(float)
            scale = float(np.abs(parts).max())
            value = scale * float(objective((parts / scale).view(complex)))
    if not math.isfinite(value):
        raise InvalidInputError(
            f"the solution or its objective ({value}) is beyond double precision")
    return solution, value


def basis_pursuit(matrix, y, cfg=None, *, _refute=None):
    """min ||x||_1 subject to Ax = y, complex-native ADMM.

    On a dense matrix, every _CERTIFY_PERIOD iterations the support of the
    shrunk iterate is fitted by least squares and checked with a strict dual
    certificate (see _l1_certificate); once it passes, that fit is returned,
    ``certified`` is True and it is the exact, unique minimiser.  Otherwise
    the solution is the last projection output, so it satisfies the
    measurements to machine precision whenever y is consistent; on
    convergence it also matches the shrunk iterate to the stated tolerances.

    ``_refute`` = (x, tau) is for recovery trials only: see _admm and the
    module docstring for the STATUS_REFUTED stop it enables.
    """
    cfg = cfg or SolverConfig()
    A = _as_operator(matrix)
    certificate = None if isinstance(A, FusionMeasurementOperator) else _l1_certificate
    return _admm(A, y, cfg, BlockStructure(A.shape[1], 1), _entry_shrink,
                 lambda v: np.sum(np.abs(v)), certificate=certificate, refute=_refute)


def block_basis_pursuit(matrix, y, blocks, cfg=None, *, _refute=None):
    """min sum_b ||x_b||_2 subject to Ax = y (mixed l2/l1, block sparsity).

    On a FusionMeasurementOperator, every _CERTIFY_PERIOD iterations the
    blocks of the shrunk iterate's support are fitted by least squares and
    checked with a strict group dual certificate (see _group_certificate);
    once it passes, that fit is returned, ``certified`` is True and it is
    the exact, unique minimiser.  A dense matrix has no certificate.
    Otherwise the solution is the last projection output, as in
    basis_pursuit.  ``_refute`` is for recovery trials only, as there.
    """
    cfg = cfg or SolverConfig()
    A = _as_operator(matrix)
    if blocks.dimension != A.shape[1]:
        raise InvalidInputError(
            f"block structure covers {blocks.dimension} coefficients, matrix has {A.shape[1]}"
        )

    def make_shrink(v, out):
        return _block_shrink(v, out, blocks.block_count)

    def objective(v):
        return np.sum(np.linalg.norm(v.reshape(blocks.block_count, blocks.block_size), axis=1))

    certificate = _group_certificate if isinstance(A, FusionMeasurementOperator) else None
    return _admm(A, y, cfg, blocks, make_shrink, objective, certificate=certificate,
                 refute=_refute)


def gaussian_measurement_coefficients(n, N, seed, complex_valued=False):
    """Seeded i.i.d. Gaussian n x N coefficient matrix (real by default).

    complex_valued=True switches to circular complex entries with unit
    variance, (g1 + i g2)/sqrt(2).
    """
    if n < 1 or N < 1:
        raise InvalidInputError("coefficient matrix needs positive dimensions")
    limit = np.iinfo(np.intp).max
    if n * N > limit:
        raise InvalidInputError(
            f"n={n} measurements of N={N} subspaces are too many: the n x N coefficient "
            f"matrix would have more than {limit} entries")
    if seed < 0:
        raise InvalidInputError(f"coefficient matrix needs a nonnegative seed, got seed={seed}")
    rng = np.random.default_rng(seed)
    if complex_valued:
        return (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))) / np.sqrt(2)
    return rng.standard_normal((n, N))


@dataclass
class FusionMeasurementOperator:
    """The fusion measurement map {c_j} -> {sum_j a_ij B_j c_j}_i, by coordinate.

    B_j is the canonical 1-sparse basis of W_j (columns e_m, m in the sorted
    support), so stacked coefficient j*K + c lands on ambient coordinate
    fusion_frame.supports[j, c].  Every coordinate m lies in exactly K
    translates, and measurement i at m reads only those K coefficients: row
    i*N + m of the map is row i of the local block a[:, owners[m] // K]
    applied to c[owners[m]].  Shape: (n*N) x (N*K).
    """

    fusion_frame: object
    block_structure: BlockStructure
    owners: np.ndarray  # (N, K): fusion_frame.owners, the coefficients on coordinate m
    blocks: np.ndarray  # (N, n, K): local block of coordinate m; real for real coefficients

    @property
    def shape(self):
        N, n, K = self.blocks.shape
        return (n * N, N * K)

    def local_measurements(self, y):
        """Measurements regrouped by coordinate: (N, n) array, row m = y[i*N + m]."""
        N, n, _ = self.blocks.shape
        return np.asarray(y, dtype=complex).reshape(n, N).T

    def __matmul__(self, x):
        x = np.asarray(x, dtype=complex).reshape(-1)
        if x.shape[0] != self.shape[1]:
            raise InvalidInputError(f"x has length {x.shape[0]}, expected {self.shape[1]}")
        return np.einsum("mik,mk->im", self.blocks, x[self.owners]).reshape(-1)

    @cached_property
    def effective(self):
        """Dense (n*N) x (N*K) matrix of the map: the test oracle and CSV form."""
        N, n, K = self.blocks.shape
        rows = np.arange(n)[None, :, None] * N + np.arange(N)[:, None, None]
        dense = np.zeros((n * N, N * K), dtype=complex)
        dense[rows, self.owners[:, None, :]] = self.blocks
        return dense


def assemble_fusion_operator(a, ff):
    """Measurement operator of coefficients ``a`` (n x N) on the fusion frame ``ff``.

    Gathers, for each ambient coordinate m, the n x K local block a[:, j] of
    the subspaces j that own it (``ff.owners``); see FusionMeasurementOperator.
    """
    a = np.asarray(a)
    N, K = ff.N, ff.K
    if a.ndim != 2 or a.shape[1] != N:
        raise InvalidInputError(f"coefficients must be an n x {N} matrix, got shape {a.shape}")
    dtype = complex if np.iscomplexobj(a) else float
    blocks = np.ascontiguousarray(a[:, ff.owners // K].transpose(1, 0, 2), dtype=dtype)
    return FusionMeasurementOperator(ff, BlockStructure(N, K), ff.owners, blocks)


def coefficients_to_subspace_vectors(ff, coeffs):
    """Expand stacked coefficients {c_j} to ambient vectors x_j = B_j c_j (rows)."""
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    N, K = ff.N, ff.K
    if coeffs.shape[0] != N * K:
        raise InvalidInputError(f"expected {N * K} stacked coefficients, got {coeffs.shape[0]}")
    out = np.zeros((N, N), dtype=complex)
    out[np.arange(N)[:, None], ff.supports] = coeffs.reshape(N, K)
    return out


def write_complex_matrix_csv(path, matrix):
    """CSV matrix format: header `rows,cols`, then rows*cols `re,im` lines, row-major."""
    M = np.asarray(matrix, dtype=complex)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise InvalidInputError("only vectors and matrices are supported")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"{M.shape[0]},{M.shape[1]}\n")
        for value in M.reshape(-1):
            fh.write(f"{value.real:.17g},{value.imag:.17g}\n")
    return path


def read_complex_matrix_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InvalidInputError(f"{path}: empty matrix file")
    try:
        rows, cols = (int(t) for t in lines[0].split(","))
        entries = [complex(float(re), float(im)) for re, im in
                   (ln.split(",") for ln in lines[1:])]
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed matrix CSV") from exc
    if rows < 0 or cols < 0 or len(entries) != rows * cols:
        raise InvalidInputError(
            f"{path}: header says {rows}x{cols} but {len(entries)} entries present"
        )
    M = np.array(entries, dtype=complex).reshape(rows, cols)
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{path}: matrix has non-finite entries (nan or inf)")
    return M
