"""Counts and spans recorded around the public functions of diffgabor.

The wrappers are installed from outside the package.  Each wrapped function
is replaced in its own module and in every package module that imported it
by name (``experiments.basis_pursuit``, ``solvers.AffineProjection``, ...),
and the originals are put back on exit.

A recorder always counts what must repeat exactly between two runs of the
same inputs: ADMM iterations and status per solve, the projection path
taken, and search nodes.  While spans are on it also records a span per
call: name, start, end, parent span and the id of the operation (trial or
CLI call) it belongs to.  Spans stay in memory until the run ends.
"""

import functools
import statistics
import time
from contextlib import contextmanager

# (module, public name) pairs wrapped by the recorder
WRAPPED = (
    ("diffsets", "load_catalog"),
    ("diffsets", "verify_difference_set"),
    ("diffsets", "exhaustive_search"),
    ("gabor", "build_gabor_frame"),
    ("gabor", "mutual_coherence"),
    ("gabor", "block_coherence_profile"),
    ("gabor", "family_table_rows"),
    ("fusion", "build_fusion_frame"),
    ("fusion", "fusion_report"),
    ("solvers", "AffineProjection"),
    ("solvers", "basis_pursuit"),
    ("solvers", "block_basis_pursuit"),
    ("solvers", "assemble_fusion_operator"),
    ("solvers", "read_complex_matrix_csv"),
    ("solvers", "write_complex_matrix_csv"),
    ("experiments", "run_classic_experiment"),
    ("experiments", "run_fusion_experiment"),
    ("cli", "main"),
)
LAYERS = ("diffsets", "gabor", "fusion", "solvers", "experiments", "cli")
SOLVE_SPANS = ("solvers.basis_pursuit", "solvers.block_basis_pursuit")
PROJECTION_SPAN = "solvers.AffineProjection"


def _solve_event(result):
    return ("solve", int(result.iterations), result.status)


def _projection_event(proj):
    n, d = proj.matrix.shape
    return ("projection", "svd" if proj.uses_factorization else "scalar", n, d, int(proj.rank))


def _search_event(result):
    return ("search", int(result.nodes), result.status)


COUNTERS = {
    "solvers.basis_pursuit": _solve_event,
    "solvers.block_basis_pursuit": _solve_event,
    "solvers.AffineProjection": _projection_event,
    "diffsets.exhaustive_search": _search_event,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "event")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.event = None

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Per-operation exact counts, plus spans while ``spans_on`` is true."""

    def __init__(self):
        self.spans_on = False
        self.spans = []
        # spans_on -> op id -> count events of that operation, in call order
        self.events = {False: {}, True: {}}
        self.op = None
        self._stack = []

    def begin_op(self, op_id, spans):
        self.spans_on = spans
        self.op = op_id
        self.events[spans][op_id] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.spans_on:
                out = fn(*args, **kwargs)
                if counter is not None and self.op is not None:
                    self.events[False][self.op].append(counter(out))
                return out
            span = Span(name, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.event = counter(out)
                if self.op is not None:
                    self.events[True][self.op].append(span.event)
            return out

        return wrapper

    @contextmanager
    def installed(self, package):
        """Install wrappers into every module of ``package``; restore on exit."""
        modules = {name: getattr(package, name) for name in LAYERS}
        replaced = []
        for modname, attr in WRAPPED:
            original = getattr(modules[modname], attr)
            wrapper = self._wrap(f"{modname}.{attr}", original)
            for mod in modules.values():
                for key in [k for k, v in vars(mod).items() if v is original]:
                    replaced.append((mod, key, original))
                    setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, original in reversed(replaced):
                setattr(mod, key, original)


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a nonempty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean_ms(durations):
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def admm_cost_model(path, n, d, rank):
    """Computed (not measured) real flops and bytes of one ADMM iteration.

    Projection: the scalar path does ``A w`` and ``A^H r``, and
    ``A.conj().T`` copies A on every call, so A is read three times and
    written once; the SVD path applies ``V_r`` and ``V_r^H``.  A complex
    multiply-add is 8 real flops.  The O(d) vector work (shrink, dual update,
    three norms) is counted as about 40 flops and 12 complex vectors moved
    per coefficient.
    """
    if path == "scalar":
        flops = 16 * n * d
        matrix_bytes = 4 * 16 * n * d
    else:
        flops = 16 * rank * d
        matrix_bytes = 2 * 16 * rank * d
    return flops + 40 * d, matrix_bytes + 12 * 16 * d


def layer_metrics(recorder, ops):
    """Per-layer metrics from a traced pass over ``ops`` operations."""
    by_name = {}
    covered = [0.0] * len(recorder.spans)
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent >= 0:
            covered[span.parent] += span.duration
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(recorder.spans):
        self_s[span.name.split(".")[0]] += span.duration - covered[i]

    def durations(name):
        return [s.duration for s in by_name.get(name, [])]

    # a call that raised has no event and is left out of the solver counts
    solves = [s for name in SOLVE_SPANS for s in by_name.get(name, []) if s.event]
    projections = [s for s in by_name.get(PROJECTION_SPAN, []) if s.event]
    proj_of = {s.parent: s for s in projections}
    iters = [s.event[1] for s in solves]
    total_iters = sum(iters)
    admm_s = flops = nbytes = 0.0
    for i, span in enumerate(recorder.spans):
        if span.name not in SOLVE_SPANS or not span.event or span.event[1] == 0:
            continue
        proj = proj_of[i]
        admm_s += span.duration - proj.duration
        f, b = admm_cost_model(*proj.event[1:])
        flops += f * span.event[1]
        nbytes += b * span.event[1]
    per_iter = (lambda v: v / total_iters) if total_iters else (lambda v: 0.0)
    by_path = {path: [p.duration for p in projections if p.event[1] == path]
               for path in ("svd", "scalar")}
    searches = [s for s in by_name.get("diffsets.exhaustive_search", []) if s.event]
    trials = durations("experiments.run_classic_experiment") + durations(
        "experiments.run_fusion_experiment")

    m = {
        "solvers.admm_iters_p50": statistics.median(iters) if iters else 0,
        "solvers.admm_iters_max": max(iters, default=0),
        "solvers.cap_hits": sum(s.event[2] != "converged" for s in solves),
        "solvers.converged_ratio": (
            sum(s.event[2] == "converged" for s in solves) / len(solves) if solves else 0.0),
        "solvers.admm_us_per_iter": 1e6 * per_iter(admm_s),
        "solvers.admm_flops_per_iter": per_iter(flops),
        "solvers.admm_bytes_per_iter": per_iter(nbytes),
        "solvers.projection_setup_ms.svd": _mean_ms(by_path["svd"]),
        "solvers.projection_setup_ms.scalar": _mean_ms(by_path["scalar"]),
        "solvers.projection_calls.svd": len(by_path["svd"]),
        "solvers.projection_calls.scalar": len(by_path["scalar"]),
        "solvers.assemble_ms": _mean_ms(durations("solvers.assemble_fusion_operator")),
        "solvers.csv_read_ms": _mean_ms(durations("solvers.read_complex_matrix_csv")),
        "solvers.csv_write_ms": _mean_ms(durations("solvers.write_complex_matrix_csv")),
        "gabor.coherence_ms": _mean_ms(durations("gabor.mutual_coherence")),
        "gabor.block_profile_ms": _mean_ms(durations("gabor.block_coherence_profile")),
        "gabor.build_frame_ms": _mean_ms(durations("gabor.build_gabor_frame")),
        "gabor.build_frame_calls": len(durations("gabor.build_gabor_frame")),
        "fusion.report_ms": _mean_ms(durations("fusion.fusion_report")),
        "fusion.build_ms": _mean_ms(durations("fusion.build_fusion_frame")),
        "diffsets.search_nodes": (
            sum(s.event[1] for s in searches) / len(searches) if searches else 0.0),
        "diffsets.search_ms": _mean_ms([s.duration for s in searches]),
        "experiments.trial_ms_p50": 1e3 * percentile(trials, 0.5) if trials else 0.0,
        "experiments.trial_ms_p90": 1e3 * percentile(trials, 0.9) if trials else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * self_s[layer] / ops
    return m
