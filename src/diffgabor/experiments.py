"""Monte-Carlo recovery experiments: classic Gabor BP and fusion block BP.

Every trial derives its own 64-bit seed from the master seed and the trial
coordinates through SHA-256, so runs are reproducible bit-for-bit for a fixed
configuration, independent of evaluation order.  The RNG is numpy's
default PCG64.  Trials run serially: a thread pool measured slower than one
thread, and a certified basis-pursuit trial at N=43 takes about 1.25 ms.
Fusion trials are certified too, by a group dual certificate checked every
10 iterations: a certified fusion trial at (40, 13) with n < K takes about
1 ms, set-up included.

Both experiments run one trial protocol (_recovery_curves) and differ only
in how a trial is drawn: a Gabor frame and a k-sparse x for the classic
experiment, a fusion measurement operator and a fusion-sparse x for the
fusion one.  A trial succeeds when NSE(x_hat, x) < tau, the success
threshold, and both configs share one check of their common fields.  Each
trial hands its solver the planted x and tau, and the solver bounds the
objective f (l1 or block) over the NSE ball of x from below: f(x) minus
||P g|| sqrt(tau) ||x||, for P the null projector of the measurements and g
a subgradient of f at x, minus a slack proved from the residuals and a lower
bound on the singular values (see the solvers module).  Until iteration 200
it takes g = 0 off the support, which gives the margin sqrt(k tau) ||x||;
then it picks g off the support to shrink ||P g||.  A feasible iterate below
the bound is proved to lie, with every minimiser, outside the NSE ball, so
ADMM stops there with status "refuted" instead of running to the iteration
cap.  The refuted iterate has NSE > tau, so the success rule, and with it
the CSV, is unchanged.

Each point also keeps diagnostics beside its success count: how many trials
ended certified (classic and fusion), converged, refuted or at the
iteration cap, and the median and largest ADMM iteration counts.  They never
enter the CSV.
"""

import functools
import hashlib
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diffsets import require_catalog_set
from .errors import ConfigurationError, InvalidInputError
from .fusion import build_fusion_frame
from .gabor import (alltop_generator, build_gabor_frame, difference_set_generator,
                    random_torus_generator)
from .solvers import (STATUS_CONVERGED, STATUS_MAX_ITERS, STATUS_REFUTED, SolverConfig,
                      assemble_fusion_operator, basis_pursuit, block_basis_pursuit,
                      gaussian_measurement_coefficients)

GENERATOR_KINDS = ("alltop", "random_torus", "difference_set")
DEFAULT_THRESHOLD = 1e-6
# how a trial's solve ended, as counted in RecoveryCurve.diagnostics
TRIAL_OUTCOMES = ("certified", STATUS_CONVERGED, STATUS_REFUTED, STATUS_MAX_ITERS)


def derive_seed(master_seed, *parts):
    """Stable 64-bit seed from the master seed and arbitrary labels.

    SHA-256 over the "|"-joined decimal/string parts, first 8 bytes,
    big-endian.  Distinct part tuples give distinct seeds for all practical
    purposes, keeping trials disjoint.
    """
    text = "|".join(str(p) for p in (master_seed, *parts))
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _integer(value, name):
    """``value`` read by operator.index, so 2.7 is refused rather than cut
    to 2; InvalidInputError naming the field ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name}={value!r} must be an integer") from None


def _integers(values, name):
    """The tuple of ``values``, each read as _integer reads one."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:  # not iterable, or an entry that is not an integer
        raise InvalidInputError(f"{name}={values!r} must be integers") from None


def _check_config(cfg, kmax=None):
    """The checks both experiment configs share: workers, the success
    threshold, the trial count (an integer), a nonempty sparsity grid (made
    a tuple of integers) of distinct k, each 1 <= k <= kmax, and set_params,
    which must be two integers (made an (N, K) tuple) when given.  Without
    ``kmax`` it is the N of set_params, which is then required."""
    if kmax is None or cfg.set_params is not None:
        try:
            N, K = (operator.index(v) for v in cfg.set_params)
        except (TypeError, ValueError):  # not iterable, not integers, or not two
            raise InvalidInputError(
                f"set_params={cfg.set_params!r} must be two integers (N, K)") from None
        cfg.set_params = (N, K)
        kmax = N if kmax is None else kmax
    if cfg.workers < 1:
        raise InvalidInputError(f"workers={cfg.workers} must be at least 1")
    if not (math.isfinite(cfg.success_threshold) and cfg.success_threshold > 0):
        raise InvalidInputError(
            f"success_threshold={cfg.success_threshold} must be positive and finite")
    cfg.trials = _integer(cfg.trials, "trials")
    if cfg.trials < 1:
        raise InvalidInputError("need at least one trial")
    cfg.sparsity_grid = _integers(cfg.sparsity_grid, "sparsity_grid")
    grid = cfg.sparsity_grid
    # a repeated entry would run its trials again and write its CSV rows twice
    if not grid or not all(1 <= k <= kmax for k in grid) or len(set(grid)) < len(grid):
        raise InvalidInputError(f"sparsity grid {list(grid)} must be nonempty and distinct "
                                f"with 1 <= k <= {kmax}")


@dataclass
class ClassicExperimentConfig:
    N: int
    sparsity_grid: tuple
    generators: tuple = GENERATOR_KINDS
    trials: int = 50
    master_seed: int = 0
    success_threshold: float = DEFAULT_THRESHOLD
    set_params: Optional[tuple] = None  # (N, K) catalog key for difference_set
    solver: SolverConfig = field(default_factory=SolverConfig)
    workers: int = 1  # accepted for compatibility; trials always run serially

    def __post_init__(self):
        self.N = _integer(self.N, "N")
        if self.N < 2:
            raise InvalidInputError("dimension N must be >= 2")
        _check_config(self, self.N ** 2)
        self.generators = tuple(self.generators)
        unknown = set(self.generators) - set(GENERATOR_KINDS)
        if not self.generators or unknown:
            raise InvalidInputError(f"unknown generator kinds: {sorted(unknown)}")
        if len(set(self.generators)) < len(self.generators):
            raise InvalidInputError(f"generators {list(self.generators)} repeat a kind")


@dataclass
class FusionExperimentConfig:
    set_params: tuple  # (N, K)
    measurement_grid: tuple
    sparsity_grid: tuple
    trials: int = 50
    master_seed: int = 0
    success_threshold: float = DEFAULT_THRESHOLD
    complex_signal_coefficients: bool = True
    complex_measurement_coefficients: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)
    workers: int = 1  # accepted for compatibility; trials always run serially

    def __post_init__(self):
        _check_config(self)
        self.measurement_grid = _integers(self.measurement_grid, "measurement_grid")
        grid = self.measurement_grid
        if not grid or min(grid) < 1 or len(set(grid)) < len(grid):
            raise InvalidInputError(
                f"measurement grid {list(grid)} must be nonempty, positive and distinct")


@dataclass
class RecoveryCurve:
    experiment: str
    label: str
    points: list  # (x, successes, trials)
    # per point: trials per TRIAL_OUTCOMES entry, "median_iterations" and
    # "max_iterations"
    diagnostics: list = field(default_factory=list)

    def rates(self):
        return np.array([s / t for (_, s, t) in self.points])


def random_k_sparse_signal(dim, k, seed):
    """Exactly k nonzeros on a uniform support; entries r exp(2 pi i theta)
    with r standard normal and theta uniform on [0, 1).  Seeded."""
    if not 1 <= k <= dim:
        raise InvalidInputError(f"sparsity k={k} out of range for dimension {dim}")
    if seed < 0:
        raise InvalidInputError(f"sparse signal needs seed >= 0, got seed={seed}")
    rng = np.random.default_rng(seed)
    support = rng.choice(dim, size=k, replace=False)
    r = rng.standard_normal(k)
    theta = rng.random(k)
    x = np.zeros(dim, dtype=complex)
    x[support] = r * np.exp(2j * np.pi * theta)
    return x


def random_fusion_sparse_signal(ff, k, seed, complex_coefficients=True):
    """Stacked subspace coefficients with exactly k active blocks.

    Active blocks are chosen uniformly; their K coefficients are i.i.d.
    circular complex Gaussian (or real standard normal with the flag off).
    """
    N, K = ff.N, ff.K
    if not 1 <= k <= N:
        raise InvalidInputError(f"fusion sparsity k={k} out of range for N={N}")
    if seed < 0:
        raise InvalidInputError(f"fusion sparse signal needs seed >= 0, got seed={seed}")
    rng = np.random.default_rng(seed)
    active = rng.choice(N, size=k, replace=False)
    if complex_coefficients:
        vals = (rng.standard_normal((k, K)) + 1j * rng.standard_normal((k, K))) / np.sqrt(2)
    else:
        vals = rng.standard_normal((k, K))
    coeffs = np.zeros((N, K), dtype=complex)
    coeffs[active] = vals
    return coeffs.reshape(-1)


def normalized_squared_error(x_hat, x):
    """||x_hat - x||^2 / ||x||^2; the reference signal must be nonzero."""
    x = np.asarray(x)
    x_hat = np.asarray(x_hat)
    ref = np.linalg.norm(x) ** 2
    if ref == 0:
        raise InvalidInputError("NSE undefined for a zero reference signal")
    return float(np.linalg.norm(x_hat - x) ** 2 / ref)


def _run_trials(trial_fn, trials):
    """(successes, diagnostics) of one point; trial_fn(t) gives (success, SolveResult)."""
    diagnostics = dict.fromkeys(TRIAL_OUTCOMES, 0)
    iterations = []
    successes = 0
    for t in range(trials):
        success, result = trial_fn(t)
        successes += bool(success)
        diagnostics["certified" if result.certified else result.status] += 1
        iterations.append(result.iterations)
    # the median of an even number of trials may fall halfway between two counts
    diagnostics["median_iterations"] = float(np.median(iterations))
    diagnostics["max_iterations"] = max(iterations)
    return successes, diagnostics


def _recovery_curves(cfg, experiment, draws, solve):
    """One RecoveryCurve per (label, draw) pair of ``draws``, over the
    sparsity grid: the trial protocol both experiments share.

    Trial t at sparsity k draws its operator A, planted x and y = A x as
    draw(k, t), solves solve(A, y, cfg.solver, _refute=(x, tau)) with tau
    the success threshold, and succeeds when NSE(x_hat, x) < tau;
    _run_trials tallies the point.
    """
    tau = cfg.success_threshold
    curves = []
    for label, draw in draws:
        points, diagnostics = [], []
        for k in cfg.sparsity_grid:

            def trial(t, draw=draw, k=k):
                A, x, y = draw(k, t)
                result = solve(A, y, cfg.solver, _refute=(x, tau))
                return normalized_squared_error(result.solution, x) < tau, result

            successes, diag = _run_trials(trial, cfg.trials)
            points.append((k, successes, cfg.trials))
            diagnostics.append(diag)
        curves.append(RecoveryCurve(experiment, label, points, diagnostics))
    return curves


def run_classic_experiment(cfg):
    """One recovery curve per generator kind over the sparsity grid.

    Alltop and difference-set windows are fixed per run; the random-torus
    window is redrawn every trial.  Success is strict NSE < threshold.
    """
    fixed = {}
    for kind in cfg.generators:
        if kind == "alltop":
            fixed[kind] = build_gabor_frame(alltop_generator(cfg.N))
        elif kind == "difference_set":
            if cfg.set_params is None:
                raise ConfigurationError("difference_set generator needs set_params=(N, K)")
            ds = require_catalog_set(*cfg.set_params)
            if ds.N != cfg.N:
                raise ConfigurationError(
                    f"difference set modulus {ds.N} != experiment dimension {cfg.N}"
                )
            fixed[kind] = build_gabor_frame(difference_set_generator(ds))

    def draw(kind, k, t):
        if kind == "random_torus":
            gen_seed = derive_seed(cfg.master_seed, "classic", kind, k, t, "generator")
            frame = build_gabor_frame(random_torus_generator(cfg.N, gen_seed))
        else:
            frame = fixed[kind]
        x = random_k_sparse_signal(
            cfg.N ** 2, k, derive_seed(cfg.master_seed, "classic", kind, k, t, "signal"))
        return frame, x, frame.columns @ x

    draws = [(kind, functools.partial(draw, kind)) for kind in cfg.generators]
    curves = _recovery_curves(cfg, "classic", draws, basis_pursuit)
    for curve in curves:
        _check_decreasing_in_k(curve, cfg.trials)
    return curves


def run_fusion_experiment(cfg):
    """One recovery curve per measurement count n over the sparsity grid.

    Measurement coefficients and the fusion-sparse signal are redrawn each
    trial from the derived seeds.
    """
    ff = build_fusion_frame(require_catalog_set(*cfg.set_params))

    def draw(n, k, t):
        a = gaussian_measurement_coefficients(
            n, ff.N, derive_seed(cfg.master_seed, "fusion", n, k, t, "measurements"),
            complex_valued=cfg.complex_measurement_coefficients)
        op = assemble_fusion_operator(a, ff)
        x = random_fusion_sparse_signal(
            ff, k, derive_seed(cfg.master_seed, "fusion", n, k, t, "signal"),
            complex_coefficients=cfg.complex_signal_coefficients)
        return op, x, op @ x

    def solve(op, y, solver, _refute):
        return block_basis_pursuit(op, y, op.block_structure, solver, _refute=_refute)

    draws = [(f"n={n}", functools.partial(draw, n)) for n in cfg.measurement_grid]
    curves = _recovery_curves(cfg, "fusion", draws, solve)
    _check_increasing_in_n(curves, cfg.trials)
    return curves


def _check_decreasing_in_k(curve, trials):
    """Soft diagnostic: rates should not increase with k beyond Monte-Carlo noise."""
    slack = 2.0 / np.sqrt(trials)
    rates = curve.rates()
    for i in range(len(rates) - 1):
        if rates[i + 1] > rates[i] + slack:
            warnings.warn(
                f"{curve.label}: success rate rose from {rates[i]:.2f} to "
                f"{rates[i + 1]:.2f} between consecutive sparsity levels",
                stacklevel=2,
            )


def _check_increasing_in_n(curves, trials):
    """Soft diagnostic: more measurements should not hurt beyond noise."""
    slack = 2.0 / np.sqrt(trials)
    for prev, cur in zip(curves, curves[1:]):
        for (k, s0, t0), (_, s1, t1) in zip(prev.points, cur.points):
            if s1 / t1 < s0 / t0 - slack:
                warnings.warn(
                    f"rate at k={k} dropped from {s0 / t0:.2f} ({prev.label}) to "
                    f"{s1 / t1:.2f} ({cur.label}) despite more measurements",
                    stacklevel=2,
                )


def curves_to_csv(curves):
    """Render curves as CSV `experiment,label,x,successes,trials,rate`.

    Output is byte-identical for identical configs and seeds: integer fields
    plus a rate fixed to six decimals, "\\n" newlines.
    """
    lines = ["experiment,label,x,successes,trials,rate"]
    for curve in curves:
        for (x, successes, trials) in curve.points:
            lines.append(
                f"{curve.experiment},{curve.label},{x},{successes},{trials},"
                f"{successes / trials:.6f}"
            )
    return "\n".join(lines) + "\n"


def emit_curves(curves, path):
    """Write :func:`curves_to_csv` output to ``path``."""
    text = curves_to_csv(curves)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return path
