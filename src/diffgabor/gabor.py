"""Gabor systems on Z_N: construction, Gram/coherence analytics, ETF checks.

A generator g in C^N yields the N^2 columns M_j T_k g with
T_k g(n) = g(n-k mod N) and M_j g(n) = exp(2 pi i j n / N) g(n).
Columns are ordered c(k, j) = k*N + j so the translates form contiguous
blocks [B_0 B_1 ... B_{N-1}]; everything downstream relies on that layout.

Column c(k, j) is phases[:, j] * shifts[:, k], a character of Z_N times a
translate of g, so Phi Phi* = (P P^H) o (S S^H), the Hadamard product of two
N x N Grams: N-tightness is measured from them, and a GaborFrame builds its
N x N^2 columns only when first read.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .diffsets import DifferenceSetParams, normalized_generator
from .errors import InvalidInputError, UnsupportedParametersError

# The dense ETF check of a plain column matrix is capped at desk scale; Gabor
# frames are measured at any N from the ambiguity function of their window
# (_ambiguity): N FFTs of length N, since each Gram magnitude depends only on
# the time-frequency offset of its two columns.
DENSE_GRAM_LIMIT = 64
_SCAN_CHUNK = 256
# largest N the family table measures by default: every catalog set but (101,25)
TABLE_MEASURE_LIMIT = 64
# largest quadratic or quartic modulus the family table takes: its primality
# is tested by trial division, under 0.1 s at this size
TABLE_MODULUS_LIMIT = 10 ** 12
# Gram magnitudes this close to the maximum are ties (FFT roundoff is ~1e-15)
_TIE_TOL = 64 * np.finfo(float).eps
# is_etf's tolerance on each of the three ETF defects (relative where scaled)
_ETF_TOL = 1e-10


@dataclass
class Generator:
    values: np.ndarray
    kind: str = "custom"  # difference_set | alltop | random_torus | custom
    params: Optional[DifferenceSetParams] = None
    norm: float = field(init=False)  # ||values||, set from the values

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(-1)
        self.norm = float(np.linalg.norm(self.values))


@dataclass
class GaborFrame:
    """The Gabor system of a window, held as the window and N.

    Column c(k, j) = k*N + j is phases[:, j] * shifts[:, k], the product of a
    character of Z_N and a translate of g (``_factors``); the N x N^2
    ``columns`` are built on first read, which the solvers, the classic
    trials and the dense oracles make; coherence and tightness never do.
    """

    generator: Generator
    N: int

    @property
    def shape(self):
        return (self.N, self.N * self.N)

    @property
    def frame_bound(self):
        """N ||g||^2: Phi Phi* = frame_bound * I for every nonzero g (N-tightness)."""
        return self.N * self.generator.norm ** 2

    @cached_property
    def _factors(self):
        """(phases, shifts): phases[n, j] = exp(2 pi i n j / N), shifts[n, k] = (T_k g)(n)."""
        n = np.arange(self.N)
        phases = np.exp(2j * np.pi * np.outer(n, n) / self.N)
        shifts = self.generator.values[(n[:, None] - n[None, :]) % self.N]
        return phases, shifts

    @cached_property
    def columns(self):
        """The N x N^2 matrix, column c(k, j) = M_j T_k g; built on first read."""
        phases, shifts = self._factors
        # phases stay the left operand: the swapped product differs in the last bit
        return (phases[:, None, :] * shifts[:, :, None]).reshape(self.N, self.N * self.N)

    @cached_property
    def tightness_error(self):
        """Max-entry deviation of Phi Phi* from frame_bound * I (roundoff); formed when read.

        Every column is a product phases[:, j] * shifts[:, k], so Phi Phi* is the
        Hadamard product (P P^H) o (S S^H) of the character Gram P P^H = N I and
        the circulant Gram S S^H of the translates: two N x N products, and
        no N x N^2 matrix.
        """
        phases, shifts = self._factors
        H = (phases @ phases.conj().T) * (shifts @ shifts.conj().T)
        return float(np.max(np.abs(H - self.frame_bound * np.eye(self.N))))

    def column_index(self, k, j):
        return k * self.N + j

    def block(self, k):
        """Columns of the k-th translate block B_k (all modulations of T_k g)."""
        return self.columns[:, k * self.N:(k + 1) * self.N]


@dataclass
class CoherenceReport:
    mutual_coherence: float
    argmax_pair: tuple
    diagonal_block_offdiag_value: Optional[float]
    offdiag_block_max: Optional[float]
    welch_bound: float
    predicted: Optional[float]


@dataclass
class BlockCoherenceProfile:
    params: DifferenceSetParams
    within_block_offdiag_max: np.ndarray  # per translate k
    within_block_offdiag_min: np.ndarray
    within_block_expected: float  # sqrt((N-K)/(K(N-1)))
    offdiag_block_max: float
    offdiag_block_min: float  # min entry over off-diagonal blocks (lambda=1: == 1/K)
    offdiag_block_expected: float  # lambda/K
    diag_unit_error: float  # max | |<col,col>| - 1 | over all columns
    block_tightness_errors: np.ndarray  # per k: max |B_k B_k* - (N/K) P_k|


@dataclass
class EtfCheck:
    is_etf: bool
    norm_spread: float
    tightness_error: float
    equiangularity_spread: float
    coherence: float
    welch_bound_value: float


def translate(g, k):
    """T_k g(n) = g(n - k mod N)."""
    g = np.asarray(g)
    return np.roll(g, k % g.shape[0])


def modulate(g, j):
    """M_j g(n) = exp(2 pi i j n / N) g(n)."""
    g = np.asarray(g, dtype=complex)
    N = g.shape[0]
    n = np.arange(N)
    return np.exp(2j * np.pi * j * n / N) * g


def difference_set_generator(ds):
    """Unit-norm difference-set window chi_S / sqrt(K), with params attached."""
    return Generator(normalized_generator(ds), kind="difference_set", params=ds.params)


def check_window_length(N):
    """InvalidInputError when the N x N^2 frame of an N-point window has more
    entries than an array can index; checked before anything of length N is made."""
    limit = np.iinfo(np.intp).max
    if N ** 3 > limit:
        raise InvalidInputError(
            f"dimension N={N} is too large: its N x N^2 Gabor frame would have more "
            f"than {limit} entries")


def alltop_generator(N):
    """Cubic-phase unimodular window g(j) = exp(2 pi i j^3 / N)/sqrt(N), N prime >= 5."""
    from .diffsets import _is_prime

    check_window_length(N)
    if not _is_prime(N) or N < 5:
        raise UnsupportedParametersError(f"Alltop window needs prime N >= 5, got {N}")
    j = np.arange(N)
    values = np.exp(2j * np.pi * (j ** 3 % N) / N) / np.sqrt(N)
    return Generator(values, kind="alltop")


def random_torus_generator(N, seed):
    """Window with i.i.d. uniform phases, entries exp(2 pi i u_j)/sqrt(N); seeded."""
    if N < 1:
        raise InvalidInputError(f"random torus window needs N >= 1, got N={N}")
    if seed < 0:
        raise InvalidInputError(f"random torus window needs seed >= 0, got seed={seed}")
    check_window_length(N)
    rng = np.random.default_rng(seed)
    u = rng.random(N)
    return Generator(np.exp(2j * np.pi * u) / np.sqrt(N), kind="random_torus")


def build_gabor_frame(generator):
    """All N^2 time-frequency shifts of a window.

    Parameters
    ----------
    generator : Generator or array_like
        Nonzero window; plain arrays are wrapped as kind="custom".

    Returns
    -------
    GaborFrame
        columns[:, k*N + j] = M_j T_k g, built when first read; the system
        is always a frame_bound-tight frame, frame_bound = N ||g||^2
        (N-tightness).
    """
    if not isinstance(generator, Generator):
        generator = Generator(generator)
    if generator.norm == 0.0:
        raise InvalidInputError("zero generator does not span anything")
    return GaborFrame(generator, generator.values.shape[0])


def _coherence_scan(columns):
    """Brute-force max normalized |<phi_i, phi_j>|, i != j.

    Chunked over rows of the Gram matrix so memory stays bounded; the argmax
    pair is the lexicographically smallest one achieving the maximum.
    """
    norms = np.linalg.norm(columns, axis=0)
    if np.any(norms == 0):
        raise InvalidInputError("coherence undefined with zero columns")
    d = columns.shape[1]
    best = -1.0
    best_pair = (0, 0)
    for lo in range(0, d, _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, d)
        block = np.abs(columns[:, lo:hi].conj().T @ columns)  # (hi-lo) x d
        block /= np.outer(norms[lo:hi], norms)
        block[np.arange(lo, hi) - lo, np.arange(lo, hi)] = -1.0  # mask diagonal
        idx = int(np.argmax(block))
        val = float(block.flat[idx])
        if val > best:
            best = val
            best_pair = (lo + idx // d, idx % d)
    return best, best_pair


def predicted_coherence(params):
    """Closed-form mutual coherence of the difference-set Gabor frame.

    sqrt((N-K)/(K(N-1))) when lambda = 1, otherwise the max of that and
    (K-1)/(N-1).
    """
    N, K = params.N, params.K
    base = np.sqrt((N - K) / (K * (N - 1)))
    if params.lam == 1:
        return float(base)
    return float(max((K - 1) / (N - 1), base))


def welch_bound(M, N):
    """Coherence lower bound sqrt((M-N)/(N(M-1))) for M >= N vectors in C^N.

    M = N gives 0 (a non-redundant system, e.g. an orthonormal basis);
    M < N is rejected because the bound only concerns spanning families.
    """
    if N < 1 or M < N:
        raise InvalidInputError(f"Welch bound needs M >= N >= 1, got M={M}, N={N}")
    if M == N:
        return 0.0
    return float(np.sqrt((M - N) / (N * (M - 1))))


def _tf_gram(g):
    """Every Gram magnitude of the Gabor system of g, one block at a time.

    Returns the (N, N, N) array whose [r, q, delta] entry is
    |<M_j T_r g, M_j' T_q g>| / ||g||^2 for every j with j' - j = delta mod N.
    The inner product is sum_n conj(T_r g)(n) (T_q g)(n) exp(2 pi i delta n / N),
    so block B_r* B_q is circulant and its magnitudes are one length-N FFT of
    T_r g(n) conj(T_q g)(n).  Only block_coherence_profile reads it, since it
    checks every block on its own; everything else reads _ambiguity.
    """
    g = np.asarray(g, dtype=complex)
    N = g.shape[0]
    n = np.arange(N)
    shifts = g[(n[None, :] - n[:, None]) % N]  # shifts[r] = T_r g
    products = shifts[:, None, :] * shifts[None, :, :].conj()
    return np.abs(np.fft.fft(products, axis=-1)) / np.vdot(g, g).real


def _ambiguity(g):
    """Every Gram magnitude of the Gabor system of g, by time-frequency offset.

    Returns the (N, N) array whose [tau, delta] entry is
    |FFT(g conj(T_tau g))[delta]| / ||g||^2, the r = 0 slice _tf_gram(g)[0]
    from the same products.  Shifting n by r turns T_r g conj(T_q g) into
    g conj(T_{q-r} g) times a phase, so _tf_gram(g)[r, q] equals row (q - r) mod N
    up to rounding: N FFTs instead of N^2.
    """
    g = np.asarray(g, dtype=complex)
    N = g.shape[0]
    n = np.arange(N)
    shifts = g[(n[None, :] - n[:, None]) % N]  # shifts[tau] = T_tau g
    return np.abs(np.fft.fft(g * shifts.conj(), axis=-1)) / np.vdot(g, g).real


def _ambiguity_coherence(amb):
    """Largest magnitude off the column norm amb[0, 0], and the first column pair attaining it.

    Entries within _TIE_TOL of the maximum count as ties, and the first one in
    (tau, delta) order wins, so roundoff does not pick the pair.  The pair is
    reported with r = j = 0: columns (0, tau N + delta).
    """
    off = amb.reshape(-1)[1:]
    mu = float(off.max())
    return mu, (0, 1 + int(np.argmax(off >= mu - _TIE_TOL)))


def mutual_coherence(frame):
    """Coherence report for a GaborFrame (or a plain column matrix).

    A GaborFrame is measured from the ambiguity function of its window
    (_ambiguity), a plain matrix by the dense scan.  mu is the largest entry
    off (tau, delta) = (0, 0), and argmax_pair the first within _TIE_TOL of it
    (_ambiguity_coherence).  For difference-set windows the report also splits
    mu into the within-block value max amb[0, 1:] (all equal by the
    diagonal-block proposition) and the off-diagonal-block maximum
    max amb[1:, :], and carries the closed-form prediction.  Checking each
    block on its own is left to block_coherence_profile.
    """
    count = frame.N ** 2 if isinstance(frame, GaborFrame) else np.shape(frame)[-1]
    if count < 2:
        raise InvalidInputError(f"coherence needs at least two columns, the frame has {count}")
    if not isinstance(frame, GaborFrame):
        columns = np.asarray(frame, dtype=complex)
        mu, pair = _coherence_scan(columns)
        return CoherenceReport(mu, pair, None, None,
                               welch_bound(columns.shape[1], columns.shape[0]), None)
    amb = _ambiguity(frame.generator.values)
    mu, pair = _ambiguity_coherence(amb)
    wb = welch_bound(frame.N * frame.N, frame.N)
    params = frame.generator.params
    diag_val = off_max = predicted = None
    if frame.generator.kind == "difference_set" and params is not None:
        diag_val = float(amb[0, 1:].max())
        off_max = float(amb[1:, :].max())
        predicted = predicted_coherence(params)
    return CoherenceReport(mu, pair, diag_val, off_max, wb, predicted)


def block_coherence_profile(frame):
    """Per-block Gram diagnostics for a difference-set Gabor frame.

    Within every translate block B_k the off-diagonal Gram magnitudes are all
    sqrt((N-K)/(K(N-1))); entries of off-diagonal blocks B_r* B_q are 1/K for
    lambda = 1 and at most lambda/K otherwise.  Each block is also an
    N/K-tight frame for its coordinate span, checked via B_k B_k*.
    """
    params = frame.generator.params
    if frame.generator.kind != "difference_set" or params is None:
        raise UnsupportedParametersError("block profile needs a difference-set generator")
    # every value of block k is read from gram[k, k] (T_k g with itself), not
    # copied from block 0 by covariance, so each block is checked on its own
    N, K, lam = params.N, params.K, params.lam
    k = np.arange(N)
    gram = _tf_gram(frame.generator.values)
    within, cross = gram[k, k, 1:], gram[~np.eye(N, dtype=bool)]
    norms2 = np.sum(np.abs(frame.columns) ** 2, axis=0)
    diag_unit_error = float(np.max(np.abs(norms2 - 1.0)))

    blocks = frame.columns.reshape(N, N, N).transpose(1, 0, 2)  # blocks[k] = B_k
    frame_ops = blocks @ blocks.conj().transpose(0, 2, 1)  # B_k B_k*
    support0 = np.flatnonzero(frame.generator.values)
    supp = np.zeros((N, N))
    supp[k[:, None], (support0[None, :] + k[:, None]) % N] = 1.0
    targets = np.zeros((N, N, N))
    targets[:, k, k] = (N / K) * supp
    block_errs = np.max(np.abs(frame_ops - targets), axis=(1, 2))

    return BlockCoherenceProfile(
        params=params,
        within_block_offdiag_max=within.max(axis=1),
        within_block_offdiag_min=within.min(axis=1),
        within_block_expected=float(np.sqrt((N - K) / (K * (N - 1)))),
        offdiag_block_max=float(cross.max()),
        offdiag_block_min=float(cross.min()),
        offdiag_block_expected=lam / K,
        diag_unit_error=diag_unit_error,
        block_tightness_errors=block_errs,
    )


def is_etf(frame):
    """Check the three ETF axioms: equal norms, tightness, equiangularity.

    Works on a GaborFrame (equiangularity read from _ambiguity) or any column
    matrix (dense Gram, capped at desk scale).  Diagnostics report the three
    defects plus the measured coherence and the Welch bound it should meet.
    """
    gabor_frame = isinstance(frame, GaborFrame)
    columns = frame.columns if gabor_frame else np.asarray(frame, dtype=complex)
    rows, M = columns.shape
    if M < 2:
        raise InvalidInputError(f"an ETF check needs at least two columns, the frame has {M}")
    if not gabor_frame and M > DENSE_GRAM_LIMIT ** 2:
        raise UnsupportedParametersError("dense ETF check capped at desk scale")
    norms = np.linalg.norm(columns, axis=0)
    if np.any(norms == 0):
        raise InvalidInputError("zero column")
    norm_spread = float(norms.max() - norms.min())
    unit = columns / norms
    H = unit @ unit.conj().T
    tight_err = float(np.max(np.abs(H - (M / rows) * np.eye(rows))))
    if gabor_frame:
        vals = _ambiguity(frame.generator.values).reshape(-1)[1:]
    else:
        G = np.abs(unit.conj().T @ unit)
        vals = G[~np.eye(M, dtype=bool)]
    eq_spread = float(vals.max() - vals.min())
    mu = float(vals.max())
    wb = welch_bound(M, rows)
    ok = (norm_spread <= _ETF_TOL * max(1.0, norms.max()) and tight_err <= _ETF_TOL * M / rows
          and eq_spread <= _ETF_TOL)
    return EtfCheck(bool(ok), norm_spread, tight_err, eq_spread, mu, wb)


def _singer_family_mu2(q, d):
    if d == 2:
        return q / (q + 1) ** 2
    return (q ** d - q) ** 2 / (q ** 2 * (q ** d - 1) ** 2)


def family_table_rows(quadratic=(), quartic=(), singer=(), measure_limit=TABLE_MEASURE_LIMIT):
    """Rows of the difference-set family table: predicted mu^2 vs Welch, plus
    a measurement from the window's ambiguity function (_ambiguity) whenever
    the catalog has the set and N <= measure_limit.

    quadratic: primes q = 3 mod 4, q >= 7 -> (q, (q-1)/2, (q-3)/4),
               mu^2 = (q-3)^2/(4(q-1)^2).
    quartic:   primes p = 4t^2 + 1, t odd and t >= 3 (37, 101, 197, ...) ->
               (p, (p-1)/4, (p-5)/16), mu^2 = (3p+1)/(p-1)^2 below p=57 and
               (p-5)^2/(16(p-1)^2) above; the catalog holds 37 and 101.
    singer:    pairs (q, d) -> ((q^{d+1}-1)/(q-1), (q^d-1)/(q-1), (q^{d-1}-1)/(q-1)),
               q >= 2 and d >= 2 (d = 1 gives lambda = 0), and q^{d+1} < 2^1024
               so that N and the row's floats stay finite.
    Quadratic and quartic moduli are at most TABLE_MODULUS_LIMIT; a value
    outside its family is rejected with the family's rule.
    """
    from . import diffsets

    if measure_limit < 0:
        raise InvalidInputError(f"measure limit {measure_limit} must be nonnegative")
    for q, d in singer:
        if q < 2 or d < 2 or (d + 1) * math.log2(q) >= 1024:
            raise InvalidInputError(
                f"Singer pair q:d = {q}:{d} needs q >= 2, d >= 2 and q^(d+1) < 2^1024")
    for family, moduli, check in (("quadratic", quadratic, diffsets.check_quadratic_modulus),
                                  ("quartic", quartic, diffsets.check_quartic_modulus)):
        for N in moduli:
            if N > TABLE_MODULUS_LIMIT:
                raise InvalidInputError(
                    f"{family} row N={N} exceeds the table's modulus limit {TABLE_MODULUS_LIMIT}")
            try:
                check(N)
            except UnsupportedParametersError as exc:
                raise UnsupportedParametersError(f"{family} row N={N}: {exc}") from None
    rows = []

    def add(family, N, K, lam, mu2):
        params = DifferenceSetParams(N, K, lam)
        row = {
            "family": family,
            "N": N,
            "K": K,
            "lambda": lam,
            "mu_squared": float(mu2),
            "welch_squared": 1.0 / (N + 1),
            "predicted_mu_squared": predicted_coherence(params) ** 2,
            "measured_mu_squared": None,
        }
        ds = diffsets.catalog_lookup(N, K)
        if ds is not None and N <= measure_limit:
            amb = _ambiguity(difference_set_generator(ds).values)
            row["measured_mu_squared"] = _ambiguity_coherence(amb)[0] ** 2
        rows.append(row)

    for q, d in singer:
        N = (q ** (d + 1) - 1) // (q - 1)
        K = (q ** d - 1) // (q - 1)
        lam = (q ** (d - 1) - 1) // (q - 1)
        add(f"singer d={d}", N, K, lam, _singer_family_mu2(q, d))
    for q in quadratic:
        add("quadratic", q, (q - 1) // 2, (q - 3) // 4, (q - 3) ** 2 / (4 * (q - 1) ** 2))
    for p in quartic:
        add("quartic", p, (p - 1) // 4, (p - 5) // 16,
            (3 * p + 1) / (p - 1) ** 2 if p < 57 else (p - 5) ** 2 / (16 * (p - 1) ** 2))
    return rows
