"""Command-line interface: every operation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 2 unknown subcommand / unparsable arguments, 3 invalid
parameters, missing inputs or inputs too large for memory, 4 solver hit the
iteration cap (partial result still emitted).
"""

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import __version__, diffsets, experiments, fusion, gabor, solvers
from .errors import DiffGaborError, InvalidInputError


def _parse_ints(text):
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_pair(text):
    values = _parse_ints(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected N,K — got {text!r}")
    return tuple(values)


def _parse_singer(text):
    pairs = []
    for tok in str(text).split(","):
        if not tok:
            continue
        try:
            q, d = tok.split(":")
            pairs.append((int(q), int(d)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected q:d pairs, got {text!r}")
    return pairs


def _json_default(value):
    """NumPy scalars and arrays as Python values; np.float64 is already a float."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


_SCALAR_TEXT = {None: "null", True: "true", False: "false"}


def _float_text(value):
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _key_text(key):
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return _encode(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(value, newline):
    """``value`` as json.dumps(indent=2, sort_keys=True, allow_nan=False,
    default=_json_default) writes it at the depth whose line break is ``newline``."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return _SCALAR_TEXT[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == {float}:
            # a matrix row repeats few values: format each distinct nonzero one
            # once; 0.0 == -0.0, so zeros keep their own text
            texts = {v: _float_text(v) for v in dict.fromkeys(value) if v}
            items = [texts[v] if v else float.__repr__(v) for v in value]
        else:
            items = [_encode(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_encode_str(_key_text(k))}: {_encode(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    return _encode(_json_default(value), newline)


def _emit(args, report):
    """Print the command's JSON document: its version, its parsed arguments
    and ``report``.

    The bytes are those of json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False, default=_json_default), and so are the exception types
    (ValueError for NaN or infinity).  That call is not used: with ``indent``
    set it encodes item by item through the stdlib's pure-Python generators.
    ``_encode`` builds each container with one str.join and formats each
    distinct value of a float-only list once; the fusion report's N x N
    chordal distance matrix holds only two values.
    """
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k != "handler" and not callable(v)
    }
    doc = {"version": __version__, "config": config, "report": report}
    print(_encode(doc, "\n"))


def _ds_json(ds):
    if ds is None:
        return None
    return {
        "N": ds.N,
        "K": ds.params.K,
        "lambda": ds.params.lam,
        "elements": list(ds.elements),
    }


# ---------------------------------------------------------------- diffset

def _cmd_diffset_verify(args):
    report = diffsets.verify_difference_set(args.N, args.elements)
    _emit(args, {
        "N": args.N,
        "elements": sorted(args.elements),
        "is_difference_set": report.is_difference_set,
        "inferred_lambda": report.inferred_lambda,
        "params_ok": report.params_ok,
        "difference_counts": {str(d): c for d, c in report.difference_counts.items()},
    })
    return 0


def _cmd_diffset_search(args):
    result = diffsets.exhaustive_search(args.N, args.K, lam=args.lam, budget=args.budget)
    _emit(args, {
        "status": result.status,
        "nodes": result.nodes,
        "set": _ds_json(result.result),
    })
    return 0


def _cmd_diffset_catalog(args):
    if args.set is not None:
        ds = diffsets.catalog_lookup(*args.set)
        _emit(args, {"found": ds is not None, "set": _ds_json(ds)})
    else:
        _emit(args, {"entries": [_ds_json(ds) for ds in diffsets.catalog_entries()]})
    return 0


# ---------------------------------------------------------------- gabor

def _coherence_frame(args):
    if args.set is not None:
        ds = diffsets.require_catalog_set(*args.set)
        return gabor.build_gabor_frame(gabor.difference_set_generator(ds))
    if args.alltop is not None:
        return gabor.build_gabor_frame(gabor.alltop_generator(args.alltop))
    return gabor.build_gabor_frame(gabor.random_torus_generator(args.random, args.seed))


def _cmd_gabor_coherence(args):
    frame = _coherence_frame(args)
    rep = gabor.mutual_coherence(frame)
    _emit(args, {
        "N": frame.N,
        "generator_kind": frame.generator.kind,
        "mutual_coherence": rep.mutual_coherence,
        "argmax_pair": list(rep.argmax_pair),
        "diagonal_block_offdiag_value": rep.diagonal_block_offdiag_value,
        "offdiag_block_max": rep.offdiag_block_max,
        "welch_bound": rep.welch_bound,
        "predicted": rep.predicted,
        "tightness_error": frame.tightness_error,
    })
    return 0


def _cmd_gabor_table(args):
    rows = gabor.family_table_rows(
        quadratic=args.quadratic,
        quartic=args.quartic,
        singer=args.singer,
        measure_limit=args.measure_limit,
    )
    _emit(args, {"rows": rows})
    return 0


# ---------------------------------------------------------------- fusion

def _fusion_frame(pair):
    return fusion.build_fusion_frame(diffsets.require_catalog_set(*pair))


def _cmd_fusion_report(args):
    ff = _fusion_frame(args.set)
    rep = fusion.fusion_report(ff)
    _emit(args, {
        "N": ff.N,
        "K": ff.K,
        "lambda": ff.diffset.params.lam,
        "tight_bound": rep.tight_bound,
        "dc_squared": rep.dc_squared,
        "simplex_bound": rep.simplex_bound,
        "equidistant": rep.equidistant,
        "sparsity": rep.sparsity,
        "optimal_packing": rep.optimal_packing,
        "chordal_distances": rep.chordal_distances,
    })
    return 0


def _cmd_fusion_distances(args):
    ff = _fusion_frame(args.set)
    a, b = np.triu_indices(ff.N, 1)
    dc2 = ff.K - fusion.overlap_circulant(ff)[a, b]
    lines = ["a,b,dc_squared"]
    lines += [f"{i},{j},{d}" for i, j, d in zip(a.tolist(), b.tolist(), dc2.tolist())]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- solve

def _solver_config(args):
    return solvers.SolverConfig(
        rho=args.rho,
        max_iters=args.max_iters,
        tol_primal=args.tol_primal,
        tol_dual=args.tol_dual,
    )


def _run_solve(args, blocks=None):
    A = solvers.read_complex_matrix_csv(args.matrix)
    y = solvers.read_complex_matrix_csv(args.y).reshape(-1)
    cfg = _solver_config(args)
    if blocks is None:
        result = solvers.basis_pursuit(A, y, cfg)
    else:
        result = solvers.block_basis_pursuit(A, y, blocks, cfg)
    feasibility = solvers.scaled_norm(A @ result.solution - y) / max(1.0, solvers.scaled_norm(y))
    report = {
        "status": result.status,
        "certified": result.certified,
        "iterations": result.iterations,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "objective": result.objective,
        "feasibility_gap": feasibility,
        "solution_file": args.out,
    }
    if args.out:
        solvers.write_complex_matrix_csv(args.out, result.solution)
    else:
        report["solution"] = [[float(v.real), float(v.imag)] for v in result.solution]
    _emit(args, report)
    return 0 if result.status == solvers.STATUS_CONVERGED else 4


def _cmd_solve_bp(args):
    return _run_solve(args)


def _cmd_solve_block_bp(args):
    count, size = args.blocks
    return _run_solve(args, blocks=solvers.BlockStructure(count, size))


# ---------------------------------------------------------------- experiment

def _curves_json(curves):
    """Each curve's points [x, successes, trials], and per point its diagnostics."""
    return [
        {
            "label": c.label,
            "points": [[x, s, t] for (x, s, t) in c.points],
            "diagnostics": [{"x": x, **diag} for (x, _, _), diag in zip(c.points, c.diagnostics)],
        }
        for c in curves
    ]


def _run_experiment(args, config, run, **fields):
    """Run ``config`` (the fields only it takes, then the flags every
    experiment takes) through ``run``; write its CSV and print its curves.
    An --out whose directory does not exist is rejected before any trial
    runs, and nothing is written."""
    cfg = config(**fields, trials=args.trials, master_seed=args.seed,
                 success_threshold=args.threshold, solver=_solver_config(args),
                 workers=args.workers)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise InvalidInputError(f"--out {args.out}: its directory does not exist")
    curves = run(cfg)
    experiments.emit_curves(curves, args.out)
    _emit(args, {"out": args.out, "curves": _curves_json(curves)})
    return 0


def _cmd_experiment_classic(args):
    if args.kmax is not None and args.kmax < 1:
        raise InvalidInputError(f"kmax={args.kmax} must be at least 1")
    # checked before range(1, kmax + 1) is made into a grid
    gabor.check_window_length(args.n)
    if args.kmax is not None and args.kmax > args.n ** 2:
        raise InvalidInputError(f"kmax={args.kmax} must be at most N^2 = {args.n ** 2}")
    grid = args.ks if args.ks is not None else range(1, (args.kmax or args.n) + 1)
    return _run_experiment(args, experiments.ClassicExperimentConfig,
                           experiments.run_classic_experiment, N=args.n, sparsity_grid=grid,
                           generators=args.generators, set_params=args.set)


def _cmd_experiment_fusion(args):
    N = args.set[0]
    grid = args.ks if args.ks is not None else [k for k in (1, 2, 4, 8) if k <= N]
    return _run_experiment(args, experiments.FusionExperimentConfig,
                           experiments.run_fusion_experiment, set_params=args.set,
                           measurement_grid=args.measurements, sparsity_grid=grid,
                           complex_signal_coefficients=not args.real_signals,
                           complex_measurement_coefficients=args.complex_measurements)


# ---------------------------------------------------------------- parser

def _add_solver_flags(sub):
    sub.add_argument("--rho", type=float, default=10.0, help="ADMM penalty")
    sub.add_argument("--max-iters", type=int, default=5000, dest="max_iters")
    sub.add_argument("--tol-primal", type=float, default=1e-9, dest="tol_primal")
    sub.add_argument("--tol-dual", type=float, default=1e-9, dest="tol_dual")


def _add_experiment_flags(sub):
    """The flags both experiment subcommands take, the solver's included."""
    sub.add_argument("--ks", type=_parse_ints, default=None, help="explicit sparsity grid")
    sub.add_argument("--trials", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threshold", type=float, default=experiments.DEFAULT_THRESHOLD)
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility (>= 1); trials run serially")
    sub.add_argument("--out", required=True, help="CSV output path")
    _add_solver_flags(sub)


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every main() call.

    Defaults are immutable (tuples), since every parse reads the same objects.
    """
    parser = argparse.ArgumentParser(
        prog="diffgabor",
        description="Difference sets, the Gabor/fusion frames they generate, "
                    "and sparse-recovery experiments.",
    )
    parser.add_argument("--version", action="version", version=f"diffgabor {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    ds = top.add_parser("diffset", help="verify / search / catalog difference sets")
    ds_sub = ds.add_subparsers(dest="subcommand", required=True)

    p = ds_sub.add_parser("verify", help="count all differences of a candidate set")
    p.add_argument("N", type=int)
    p.add_argument("elements", type=_parse_ints, help="comma-separated residues, e.g. 1,2,4")
    p.set_defaults(handler=_cmd_diffset_verify)

    p = ds_sub.add_parser("search", help="lexicographic backtracking search")
    p.add_argument("N", type=int)
    p.add_argument("K", type=int)
    p.add_argument("--lam", type=int, default=None, help="multiplicity (default: derived)")
    p.add_argument("--budget", type=int, default=diffsets.DEFAULT_SEARCH_BUDGET)
    p.set_defaults(handler=_cmd_diffset_search)

    p = ds_sub.add_parser("catalog", help="list or look up shipped sets")
    p.add_argument("--set", type=_parse_pair, default=None, metavar="N,K")
    p.set_defaults(handler=_cmd_diffset_catalog)

    gb = top.add_parser("gabor", help="Gabor frame coherence analytics")
    gb_sub = gb.add_subparsers(dest="subcommand", required=True)

    p = gb_sub.add_parser("coherence", help="measured coherence report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--set", type=_parse_pair, default=None, metavar="N,K")
    src.add_argument("--alltop", type=int, default=None, metavar="N")
    src.add_argument("--random", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gabor_coherence)

    p = gb_sub.add_parser("table", help="difference-set family coherence table")
    p.add_argument("--quadratic", type=_parse_ints, default=(11, 19, 23, 43))
    p.add_argument("--quartic", type=_parse_ints, default=(37, 101))
    p.add_argument("--singer", type=_parse_singer, default=((2, 2), (3, 2), (4, 2), (2, 3)))
    p.add_argument("--measure-limit", type=int, default=gabor.TABLE_MEASURE_LIMIT,
                   dest="measure_limit", help="largest N to measure")
    p.set_defaults(handler=_cmd_gabor_table)

    fs = top.add_parser("fusion", help="Gabor fusion frame diagnostics")
    fs_sub = fs.add_subparsers(dest="subcommand", required=True)

    p = fs_sub.add_parser("report", help="tightness / equidistance / packing report")
    p.add_argument("--set", type=_parse_pair, required=True, metavar="N,K")
    p.set_defaults(handler=_cmd_fusion_report)

    p = fs_sub.add_parser("distances", help="pairwise squared chordal distances as CSV")
    p.add_argument("--set", type=_parse_pair, required=True, metavar="N,K")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_fusion_distances)

    sv = top.add_parser("solve", help="run the ADMM solvers on CSV matrices")
    sv_sub = sv.add_subparsers(dest="subcommand", required=True)

    p = sv_sub.add_parser("bp", help="basis pursuit: min ||x||_1 s.t. Ax = y")
    p.add_argument("--matrix", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", default=None, help="write the solution vector as CSV")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_solve_bp)

    p = sv_sub.add_parser("block-bp", help="mixed l2/l1: min sum ||x_b|| s.t. Ax = y")
    p.add_argument("--matrix", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--blocks", type=_parse_pair, required=True, metavar="COUNT,SIZE")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_solve_block_bp)

    ex = top.add_parser("experiment", help="Monte-Carlo recovery experiments")
    ex_sub = ex.add_subparsers(dest="subcommand", required=True)

    p = ex_sub.add_parser("classic", help="sparse recovery from Gabor measurements")
    p.add_argument("--n", type=int, required=True, help="ambient dimension N")
    p.add_argument("--set", type=_parse_pair, default=None, metavar="N,K")
    p.add_argument("--generators", type=lambda s: tuple(s.split(",")),
                   default=experiments.GENERATOR_KINDS)
    p.add_argument("--kmax", type=int, default=None, help="grid 1..kmax (default N)")
    _add_experiment_flags(p)
    p.set_defaults(handler=_cmd_experiment_classic)

    p = ex_sub.add_parser("fusion", help="fusion-sparse recovery experiment")
    p.add_argument("--set", type=_parse_pair, required=True, metavar="N,K")
    p.add_argument("--measurements", type=_parse_ints, required=True,
                   help="grid of measurement counts n")
    p.add_argument("--complex-measurements", action="store_true", dest="complex_measurements",
                   help="complex circular Gaussian a_ij instead of real")
    p.add_argument("--real-signals", action="store_true", dest="real_signals",
                   help="real Gaussian subspace coefficients instead of complex")
    _add_experiment_flags(p)
    p.set_defaults(handler=_cmd_experiment_fusion)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except DiffGaborError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        command = " ".join(sys.argv[1:] if argv is None else argv)
        detail = f": {exc}" if str(exc) else ""
        print(f"error: not enough memory for diffgabor {command}{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
