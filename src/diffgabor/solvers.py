"""In-house ADMM solvers for complex basis pursuit and its block variant.

Splitting: min ||z||_1 (or sum of block norms) subject to x in {Ax = y}, x = z.
The x-update is an exact affine projection — a scalar correction for tight
frames (A A* = cI) and an SVD pseudoinverse otherwise, factored coordinate by
coordinate for a fusion measurement operator — and the z-update is the
complex (block) soft threshold.  Basis pursuit is positively homogeneous,
so the iteration runs on y/||y|| and the solution is rescaled afterwards;
this keeps convergence behavior scale-free.

Basis pursuit on a dense matrix also stops as soon as its answer is proved:
every few iterations the support S of the shrunk iterate is fitted by least
squares, and the fit is returned when a strict dual certificate shows it is
the unique l1 minimiser (Fuchs 2004; Tropp 2004), in the manner of OSQP's
solution polishing.  Otherwise the iteration runs on unchanged until the
residual tolerances or the iteration cap stop it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FactorizationError, InvalidInputError

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters_reached"

# relative tolerance for accepting A A* as a multiple of the identity
_SCALAR_PATH_TOL = 1e-10
# relative residual above which y is declared outside the range of A
_CONSISTENCY_TOL = 1e-8
# basis pursuit tries to certify its iterate every this many iterations
_CERTIFY_PERIOD = 10
# a dual certificate must keep |A_j^H w| below 1 - margin off the support
_CERTIFY_MARGIN = 1e-9
# relative residual within which the least-squares fit on S must meet y
_CERTIFY_FIT_TOL = 1e-12
# columns the certificate may add to supp(z) when the fit on it misses y
_COMPLETION_STEPS = 2


@dataclass
class SolverConfig:
    rho: float = 10.0
    max_iters: int = 5000
    tol_primal: float = 1e-9
    tol_dual: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise InvalidInputError(f"rho={self.rho} must be positive and finite")
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
    """Orthogonal projection onto the affine set {x : Ax = y}.

    When A A* = cI (tight frame rows) the projection is the closed form
    w + A*(y - Aw)/c with no factorization.  Otherwise an economy SVD gives
    the row-space projector and a particular solution; y must then lie in
    the range of A or FactorizationError is raised.

    A FusionMeasurementOperator is block-diagonal up to a row and column
    permutation, so it is factored as its N local n x K blocks instead: one
    batched SVD, with the rank cutoff and the range check taken over all
    blocks at once, which is what the dense SVD of the permuted matrix gives.
    """

    _owners = None  # (N, K) coefficient table, set only on the coordinate-factored path

    def __init__(self, matrix, y):
        if isinstance(matrix, FusionMeasurementOperator):
            self._init_blockwise(matrix, y)
            return
        A = np.asarray(matrix, dtype=complex)
        if A.ndim != 2:
            raise InvalidInputError("matrix must be 2-d")
        y = np.asarray(y, dtype=complex).reshape(-1)
        n, d = A.shape
        if y.shape[0] != n:
            raise InvalidInputError(f"y has length {y.shape[0]}, expected {n}")
        self.matrix = A
        self.y = y
        H = A @ A.conj().T
        c = float(np.real(np.trace(H))) / n if n else 0.0
        if c <= 0.0:
            raise FactorizationError("measurement matrix has no energy")
        if np.max(np.abs(H - c * np.eye(n))) <= _SCALAR_PATH_TOL * c:
            self._AH = A.conj().T
            self.scalar = c
            self.uses_factorization = False
            self.rank = n
            return
        self.scalar = None
        self.uses_factorization = True
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        cutoff = s[0] * max(n, d) * np.finfo(float).eps
        r = int(np.sum(s > cutoff))
        if r == 0:
            raise FactorizationError("measurement matrix has rank zero")
        self.rank = r
        Ur, sr, self._Vr = U[:, :r], s[:r], Vh[:r, :]
        self._row_pinv = Ur / sr
        coeffs = Ur.conj().T @ y
        if np.linalg.norm(y - Ur @ coeffs) > _CONSISTENCY_TOL * max(1.0, np.linalg.norm(y)):
            raise FactorizationError("y is not in the range of the measurement matrix")
        self._particular = self._Vr.conj().T @ (coeffs / sr)

    def _init_blockwise(self, op, y):
        y = np.asarray(y, dtype=complex).reshape(-1)
        n_rows, d = op.shape
        if y.shape[0] != n_rows:
            raise InvalidInputError(f"y has length {y.shape[0]}, expected {n_rows}")
        self.matrix = op
        self.y = y
        self.scalar = None
        self.uses_factorization = True
        self._owners = op.owners
        # U: (N, n, p), s: (N, p), Vh: (N, p, K) with p = min(n, K)
        U, s, Vh = np.linalg.svd(op.blocks, full_matrices=False)
        s_max = float(s.max())
        if s_max == 0.0:
            raise FactorizationError("measurement matrix has no energy")
        keep = s > s_max * max(n_rows, d) * np.finfo(float).eps
        self.rank = int(keep.sum())
        Vr = Vh * keep[:, :, None]
        y_local = op.local_measurements(y)  # (N, n)
        coeffs = np.einsum("mip,mi->mp", U.conj(), y_local) * keep
        residual = y_local - np.einsum("mip,mp->mi", U, coeffs)
        if np.linalg.norm(residual) > _CONSISTENCY_TOL * max(1.0, np.linalg.norm(y)):
            raise FactorizationError("y is not in the range of the measurement matrix")
        inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        self._particular = np.einsum("mpk,mp->mk", Vr.conj(), coeffs * inv_s)
        # per-block projector onto the null space, I - V_r^H V_r: one batched
        # matmul per call is cheaper than applying V_r and V_r^H in turn
        K = Vh.shape[2]
        self._null_projector = np.eye(K) - np.einsum("mpk,mpl->mkl", Vr.conj(), Vr)

    def __call__(self, w):
        w = np.asarray(w, dtype=complex).reshape(-1)
        if self._owners is not None:
            local = w[self._owners][:, :, None]  # (N, K, 1)
            out = np.empty_like(w)
            out[self._owners] = (self._null_projector @ local)[:, :, 0] + self._particular
            return out
        if not self.uses_factorization:
            return w + self._AH @ ((self.y - self.matrix @ w) / self.scalar)
        return w - self._Vr.conj().T @ (self._Vr @ w) + self._particular

    def range_coefficients(self, v):
        """Least-squares w with A^H w = v, i.e. (A^H)^+ v; dense matrices only."""
        if not self.uses_factorization:
            return self.matrix @ v / self.scalar
        return self._row_pinv @ (self._Vr @ v)


def affine_projection(matrix, y):
    """Operator x -> x + A*(AA*)^+ (y - Ax); see AffineProjection."""
    return AffineProjection(matrix, y)


def complex_soft_threshold(z, tau):
    """Proximal map of the complex modulus: z * max(1 - tau/|z|, 0)."""
    if tau < 0:
        raise InvalidInputError(f"threshold tau={tau} must be nonnegative")
    arr = np.asarray(z, dtype=complex)
    mag = np.abs(arr)
    out = arr * np.maximum(1.0 - tau / np.maximum(mag, np.finfo(float).tiny), 0.0)
    if out.ndim == 0:
        return complex(out)
    return out


def block_soft_threshold(z, tau, blocks):
    """Per-block shrinkage: each block scales by max(1 - tau/||z_b||, 0)."""
    if tau < 0:
        raise InvalidInputError(f"threshold tau={tau} must be nonnegative")
    arr = np.asarray(z, dtype=complex).reshape(blocks.block_count, blocks.block_size)
    norms = np.linalg.norm(arr, axis=1)
    scale = np.maximum(1.0 - tau / np.maximum(norms, np.finfo(float).tiny), 0.0)
    return (arr * scale[:, None]).reshape(-1)


def _as_operator(matrix):
    """A fusion measurement operator as is; anything else as a dense complex array."""
    if isinstance(matrix, FusionMeasurementOperator):
        return matrix
    return np.asarray(matrix, dtype=complex)


def _l1_certificate(A, y, z, fallback_dual=None):
    """The unique minimiser of ||x||_1 s.t. Ax = y on S = supp(z), or None.

    x_S is the least-squares fit of y on the columns A_S.  While that fit
    misses y, S gains the outside column with the largest |A_j^H r| for the
    residual r, at most _COMPLETION_STEPS times.  The fit is returned
    (scattered into a length-d vector) only when it is proved optimal:
    0 < |S| <= n, A_S has full column rank, A_S x_S = y to a relative
    _CERTIFY_FIT_TOL, and some w has A_S^H w = sgn(x_S) and
    |A_j^H w| < 1 - _CERTIFY_MARGIN for every j outside S.  Such a w is a
    strict dual certificate, and it makes x_S the unique minimiser (Fuchs
    2004; Tropp 2004).  The minimum-norm w is tried first; failing that,
    ``fallback_dual()`` (any w0 in C^n) corrected on S.  Reads z, writes
    nothing.
    """
    n, d = A.shape
    S = np.flatnonzero(z)
    for added in range(_COMPLETION_STEPS + 1):
        if not 0 < S.size <= n:
            return None
        A_S = A[:, S]
        Q, R = np.linalg.qr(A_S)
        diag = np.abs(np.diagonal(R))
        if diag.min() <= diag.max() * max(n, S.size) * np.finfo(float).eps:
            return None
        x_S = np.linalg.solve(R, Q.conj().T @ y)
        residual = y - A_S @ x_S
        if np.linalg.norm(residual) <= _CERTIFY_FIT_TOL * np.linalg.norm(y):
            break
        if added == _COMPLETION_STEPS:
            return None
        # support completion: z may still miss a small coefficient, so add the
        # column that best explains what the fit leaves over (r is orthogonal
        # to A_S, so that column lies outside S)
        S = np.append(S, np.argmax(np.abs(residual.conj() @ A)))
    mag = np.abs(x_S)
    # an exact zero in x_S (it happens at N=43) means S is not its support
    if mag.min() == 0.0:
        return None
    sign = x_S / mag

    def certifies(w0):
        # w0 + A_S (A_S^H A_S)^{-1} (sgn - A_S^H w0), with A_S = QR, meets A_S^H w = sgn
        w = w0 + Q @ np.linalg.solve(R.conj().T, sign - A_S.conj().T @ w0)
        off = np.abs(w.conj() @ A)  # |(w^H A)_j| = |A_j^H w|, without forming A^H
        off[S] = 0.0
        return off.max() < 1.0 - _CERTIFY_MARGIN

    if not (certifies(np.zeros(n, dtype=complex))
            or (fallback_dual is not None and certifies(fallback_dual()))):
        return None
    x = np.zeros(d, dtype=complex)
    x[S] = x_S
    return x


def _admm(matrix, y, cfg, shrink, objective, certify_l1=False):
    A = _as_operator(matrix)
    y = np.asarray(y, dtype=complex).reshape(-1)
    d = A.shape[1]
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        sol = np.zeros(d, dtype=complex)
        return SolveResult(sol, 0, 0.0, 0.0, STATUS_CONVERGED, np.zeros((0, 2)), 0.0)
    project = AffineProjection(A, y / ynorm)
    x = np.zeros(d, dtype=complex)
    z = np.zeros(d, dtype=complex)
    u = np.zeros(d, dtype=complex)
    sqrt_d = np.sqrt(d)
    tau = 1.0 / cfg.rho
    history = np.empty((cfg.max_iters, 2))
    status = STATUS_MAX_ITERS
    certified = False
    r_norm = s_norm = np.inf
    it = 0
    for it in range(1, cfg.max_iters + 1):
        x = project(z - u)
        z_old = z
        z = shrink(x + u, tau)
        u = u + x - z
        r_norm = float(np.linalg.norm(x - z))
        s_norm = float(cfg.rho * np.linalg.norm(z - z_old))
        history[it - 1] = (r_norm, s_norm)
        eps_pri = cfg.tol_primal * sqrt_d * max(1.0, np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = cfg.tol_dual * sqrt_d * max(1.0, cfg.rho * np.linalg.norm(u))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            status = STATUS_CONVERGED
            break
        if certify_l1 and it % _CERTIFY_PERIOD == 0:
            # rho*u is ADMM's dual estimate in the subdifferential of ||z||_1;
            # its least-squares preimage under A^H is the fallback certificate
            exact = _l1_certificate(project.matrix, project.y, z,
                                    lambda: project.range_coefficients(cfg.rho * u))
            if exact is not None:
                x, status, certified = exact, STATUS_CONVERGED, True
                break
    solution = x * ynorm
    return SolveResult(
        solution=solution,
        iterations=it,
        primal_residual=r_norm,
        dual_residual=s_norm,
        status=status,
        residual_history=history[:it].copy(),
        objective=float(objective(solution)),
        certified=certified,
    )


def basis_pursuit(matrix, y, cfg=None):
    """min ||x||_1 subject to Ax = y, complex-native ADMM.

    On a dense matrix, every _CERTIFY_PERIOD iterations the support of the
    shrunk iterate is fitted by least squares and checked with a strict dual
    certificate (see _l1_certificate); once it passes, that fit is returned,
    ``certified`` is True and it is the exact, unique minimiser.  Otherwise
    the solution is the last projection output, so it satisfies the
    measurements to machine precision whenever y is consistent; on
    convergence it also matches the shrunk iterate to the stated tolerances.
    """
    cfg = cfg or SolverConfig()
    A = _as_operator(matrix)
    return _admm(A, y, cfg, complex_soft_threshold, lambda v: np.sum(np.abs(v)),
                 certify_l1=not isinstance(A, FusionMeasurementOperator))


def block_basis_pursuit(matrix, y, blocks, cfg=None):
    """min sum_b ||x_b||_2 subject to Ax = y (mixed l2/l1, block sparsity)."""
    cfg = cfg or SolverConfig()
    A = _as_operator(matrix)
    if blocks.dimension != A.shape[1]:
        raise InvalidInputError(
            f"block structure covers {blocks.dimension} coefficients, matrix has {A.shape[1]}"
        )

    def shrink(w, tau):
        return block_soft_threshold(w, tau, blocks)

    def objective(v):
        return np.sum(np.linalg.norm(v.reshape(blocks.block_count, blocks.block_size), axis=1))

    return _admm(A, y, cfg, shrink, objective)


def gaussian_measurement_coefficients(n, N, seed, complex_valued=False):
    """Seeded i.i.d. Gaussian n x N coefficient matrix (real by default).

    complex_valued=True switches to circular complex entries with unit
    variance, (g1 + i g2)/sqrt(2).
    """
    if n < 1 or N < 1:
        raise InvalidInputError("coefficient matrix needs positive dimensions")
    rng = np.random.default_rng(seed)
    if complex_valued:
        return (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))) / np.sqrt(2)
    return rng.standard_normal((n, N))


@dataclass
class FusionMeasurementOperator:
    """The fusion measurement map {c_j} -> {sum_j a_ij B_j c_j}_i, by coordinate.

    B_j is the canonical 1-sparse basis of W_j (columns e_m, m in the sorted
    support), so stacked coefficient j*K + c lands on ambient coordinate
    support_j[c].  Every coordinate m lies in exactly K translates, and
    measurement i at m reads only those K coefficients: row i*N + m of the
    map is row i of the local block a[:, owners[m] // K] applied to
    c[owners[m]].  Shape: (n*N) x (N*K).
    """

    coefficients: np.ndarray  # n x N
    fusion_frame: object
    block_structure: BlockStructure
    subspace_bases: list  # per subspace: sorted canonical support indices
    owners: np.ndarray  # (N, K): stacked coefficient indices landing on coordinate m
    blocks: np.ndarray  # (N, n, K): local block of coordinate m

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

    Records, for each ambient coordinate m, the K stacked coefficient indices
    that land on m, and the n x K local block a[:, j] of the owning
    subspaces j; see FusionMeasurementOperator.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise InvalidInputError("coefficients must be an n x N matrix")
    n, cols = a.shape
    N, K = ff.N, ff.K
    if cols != N:
        raise InvalidInputError(f"coefficients have {cols} columns, fusion frame has {N}")
    bases = [sorted(sub.support) for sub in ff.subspaces]
    landing = np.array(bases).reshape(-1)
    if np.any(np.bincount(landing, minlength=N) != K):
        raise InvalidInputError(f"fusion frame does not cover every coordinate exactly {K} times")
    owners = np.argsort(landing, kind="stable").reshape(N, K)
    blocks = np.ascontiguousarray(a[:, owners // K].transpose(1, 0, 2), dtype=complex)
    return FusionMeasurementOperator(a, ff, BlockStructure(N, K), bases, owners, blocks)


def coefficients_to_subspace_vectors(ff, coeffs):
    """Expand stacked coefficients {c_j} to ambient vectors x_j = B_j c_j (rows)."""
    coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
    N, K = ff.N, ff.K
    if coeffs.shape[0] != N * K:
        raise InvalidInputError(f"expected {N * K} stacked coefficients, got {coeffs.shape[0]}")
    out = np.zeros((N, N), dtype=complex)
    for j, sub in enumerate(ff.subspaces):
        out[j, sorted(sub.support)] = coeffs[j * K:(j + 1) * K]
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
