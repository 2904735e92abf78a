"""diffgabor benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload classic-n43 --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` next to this directory.  With
``--trace 0`` the run measures the workload untouched for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it runs every operation
twice, once with counters only and once with spans, checks that the two
agree on every count and digest, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object.  The exit code is 0 only when every output check passed.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

import environment  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solvers.admm_iters_p50": "count",
    "solvers.admm_iters_max": "count",
    "solvers.cap_hits": "count",
    "solvers.converged_ratio": "ratio",
    "solvers.admm_us_per_iter": "us",
    "solvers.admm_flops_per_iter": "flop",
    "solvers.admm_bytes_per_iter": "B",
    "solvers.projection_setup_ms.svd": "ms",
    "solvers.projection_setup_ms.scalar": "ms",
    "solvers.projection_calls.svd": "count",
    "solvers.projection_calls.scalar": "count",
    "solvers.assemble_ms": "ms",
    "solvers.csv_read_ms": "ms",
    "solvers.csv_write_ms": "ms",
    "solvers.csv_bytes": "B",
    "solvers.self_ms": "ms",
    "gabor.coherence_ms": "ms",
    "gabor.block_profile_ms": "ms",
    "gabor.build_frame_ms": "ms",
    "gabor.build_frame_calls": "count",
    "gabor.self_ms": "ms",
    "fusion.report_ms": "ms",
    "fusion.build_ms": "ms",
    "fusion.self_ms": "ms",
    "diffsets.catalog_load_ms": "ms",
    "diffsets.search_nodes": "count",
    "diffsets.search_ms": "ms",
    "diffsets.self_ms": "ms",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_p90": "ms",
    "experiments.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.emit_bytes": "B",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import diffgabor, diffgabor.cli; print(time.perf_counter() - t)")


class Record:
    __slots__ = ("op", "seconds", "ok", "info")

    def __init__(self, op, seconds, ok, info):
        self.op, self.seconds, self.ok, self.info = op, seconds, ok, info


def import_package(root):
    """Import diffgabor from ``root/src``; None when it is not there."""
    src = Path(root) / "src"
    if not (src / "diffgabor" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import diffgabor
    import diffgabor.cli  # noqa: F401

    if Path(diffgabor.__file__).resolve().parent != (src / "diffgabor").resolve():
        return None
    return diffgabor


def fresh_import_seconds(dg):
    """Seconds `import diffgabor` takes in a new interpreter, as a user pays it."""
    src = str(Path(dg.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def setup(workload, dg, seed, workdir):
    """Set the workload up SETUP_REPEATS times; keep the last state.

    Each repetition imports the package in a new interpreter, parses and
    re-verifies the shipped catalog from its file (not the package's cached
    copy), and builds the workload's inputs.  Returns (state, median set-up
    seconds, median catalog parse ms).
    """
    from importlib import resources

    catalog_path = str(resources.files("diffgabor").joinpath("data/catalog.txt"))
    dg.diffsets.load_catalog()  # fill the package's own cache before timing
    totals, parses = [], []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_seconds(dg)
        t0 = time.perf_counter()
        dg.diffsets.load_catalog(catalog_path)
        parses.append(time.perf_counter() - t0)
        state = workload.setup(dg, seed, workdir)
        totals.append(import_s + time.perf_counter() - t0)
    return state, statistics.median(totals), 1e3 * statistics.median(parses)


def run_op(workload, state, op):
    """Run and check one operation; only the call itself is timed."""
    t0 = time.perf_counter()
    try:
        out = workload.call(state, op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return Record(op, time.perf_counter() - t0, False, {"error": repr(exc)})
    elapsed = time.perf_counter() - t0
    ok, info = workload.check(state, op, out)
    return Record(op, elapsed, ok, info)


def timed_ops(workload, state, seconds):
    """(index, operation) pairs of a closed loop that starts no operation
    once ``seconds`` have passed."""
    start = time.perf_counter()
    for i, op in enumerate(workload.ops(state)):
        if time.perf_counter() - start >= seconds:
            return
        yield i, op


def end_to_end(workload, records, setup_s):
    durations = [r.seconds for r in records]
    tail = tracing.percentile(durations, workload.tail_quantile)
    return {
        "setup_s": setup_s,
        "calls_per_s": len(durations) / sum(durations),
        "call_p50_ms": 1e3 * tracing.percentile(durations, 0.5),
        "call_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"calls": len(durations), "passes": len({r.op.pass_no for r in records}),
        "timed_s": sum(durations), "tail_quantile": workload.tail_quantile,
        "above_tail": sum(d > tail for d in durations)}


def disagreements(untraced, traced, recorder):
    """Indices of operations whose outcome, digest or exact counts differ
    between the untraced and the traced run of the same operation."""
    return [i for i, (a, b) in enumerate(zip(untraced, traced))
            if a.op.key != b.op.key or a.ok != b.ok
            or a.info.get("exact") != b.info.get("exact")
            or recorder.events[False].get(i) != recorder.events[True].get(i)]


def traced_run(workload, dg, state, seconds):
    """Run every operation twice back to back, counted only and with spans.

    Which of the two goes first alternates, so drift in machine speed and
    warm caches fall on both sides alike.
    """
    recorder = tracing.Recorder()
    runs = {False: [], True: []}
    with recorder.installed(dg):
        for i, op in timed_ops(workload, state, seconds):
            for spans in ((False, True) if i % 2 == 0 else (True, False)):
                recorder.begin_op(i, spans)
                runs[spans].append(run_op(workload, state, op))
    return runs[False], runs[True], recorder


def per_layer(untraced, traced, traced_rec, catalog_ms):
    m = tracing.layer_metrics(traced_rec, len(traced))
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    emits = [r.info["emit_bytes"] for r in traced if "emit_bytes" in r.info]
    csv = [r.info["csv_bytes"] for r in traced if "csv_bytes" in r.info]
    m.update({
        "diffsets.catalog_load_ms": catalog_ms,
        "solvers.csv_bytes": statistics.fmean(csv) if csv else 0.0,
        "cli.emit_bytes": statistics.fmean(emits) if emits else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return m, {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(traced_rec.spans)}


def write_spans(path, recorder):
    with open(path, "w", encoding="ascii") as fh:
        for i, s in enumerate(recorder.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op}) + "\n")


def run(workload, dg, seed, seconds, trace, workdir, out=print):
    """Set up, measure and check one workload.

    Returns the result object, notes for the human-readable output, and the
    per-operation records.

    ``workdir`` receives the workload's input files and, traced, the spans.
    """
    state, setup_s, catalog_ms = setup(workload, dg, seed, workdir / "inputs")
    if not trace:
        records = [run_op(workload, state, op) for _, op in timed_ops(workload, state, seconds)]
        metrics, notes = end_to_end(workload, records, setup_s)
        units = END_TO_END
    else:
        untraced, traced, recorder = traced_run(workload, dg, state, seconds)
        metrics, notes = per_layer(untraced, traced, recorder, catalog_ms)
        units = PER_LAYER
        mismatched = disagreements(untraced, traced, recorder)
        notes["disagreements"] = [untraced[i].op.key for i in mismatched]
        for i in mismatched:
            traced[i].ok = False
            traced[i].info["error"] = "traced and untraced runs disagree"
        records = untraced + traced
        notes["spans_file"] = str(workdir / "spans.jsonl")
        write_spans(notes["spans_file"], recorder)
    failed = [r for r in records if not r.ok]
    attempted = len(records)

    out(f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for name, unit in units.items():
        out(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    out(f"  fail_frac {len(failed)}/{attempted} = {len(failed) / max(attempted, 1):.4g}")
    out(f"  notes {json.dumps(notes)}")
    for r in failed[:20]:
        out(f"  FAIL {r.op.key} {r.info.get('error', 'output check')}")
    return {
        "correct": not failed and attempted > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }, notes, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    dg = import_package(ROOT)
    if dg is None:
        print(f"error: no diffgabor package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload)
    workdir = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, notes, records = run(workload, dg, args.seed, args.seconds,
                                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir / "inputs", ignore_errors=True)

    env = environment.environment(ROOT)
    caches = {level: environment.cache_bytes(size) for level, size in env["caches"].items()}
    sizes = ", ".join(f"{label} {size / 2**20:.2f} MiB"
                      for label, size in workload.working_set().items())
    print(f"  working set: {sizes}; caches {env['caches']}")
    print(f"  env {json.dumps(env)}")
    with open(workdir / "result.json", "w", encoding="ascii") as fh:
        json.dump({"result": result, "notes": notes, "environment": env,
                   "calls": [[r.op.slot, r.op.key, r.seconds, r.ok] for r in records],
                   "working_set": workload.working_set(), "cache_bytes": caches},
                  fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
