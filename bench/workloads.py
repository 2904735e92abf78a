"""Benchmark workloads: what one operation is, its inputs, and its output check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  Operations come in
passes; a pass visits each operation of the workload's mix once, in an
order drawn from the workload seed.

Monte-Carlo workloads issue one ``run_*_experiment`` call per operation,
for a single grid point with ``trials=1``, so one operation is one trial.
Its CSV must match, byte for byte, the SHA-256 recorded in
``reference.json`` for that master seed and grid point (see
``record_reference.py``).  The workload seed picks the order in which a run
visits the master seeds of the reference pool and the grid order inside
each pass.

The CLI workload calls ``diffgabor.cli.main(argv)`` in-process with stdout
and stderr captured, and checks every report against the closed form it
claims.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

# master seeds 0 .. POOL_SIZE-1 have reference digests for every grid point
POOL_SIZE = 32
REFERENCE_FILE = Path(__file__).with_name("reference.json")
COMPLEX_BYTES = 16


class Op:
    """One operation: ``key`` names its exact inputs, ``slot`` its place in
    the mix (the same in every pass)."""

    __slots__ = ("pass_no", "key", "slot", "payload")

    def __init__(self, pass_no, key, slot, payload):
        self.pass_no, self.key, self.slot, self.payload = pass_no, key, slot, payload


def load_reference():
    """Recorded digests by workload; empty when none were recorded."""
    try:
        with open(REFERENCE_FILE, encoding="ascii") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class MonteCarlo:
    """One trial per operation at one grid point of a recovery experiment.

    The latency tail is reported at the 75th percentile: a run has 70 to 140
    trials, and about one in ten hits or nears the ADMM iteration cap, so the
    90th percentile would sit on the edge of that cluster with under ten
    samples above it.
    """

    tail_quantile = 0.75

    def __init__(self, name, experiment, grid, params, reference=None, pool_size=POOL_SIZE):
        self.name = name
        self.experiment = experiment  # "classic" or "fusion"
        self.grid = list(grid)
        self.params = params
        self.pool_size = pool_size
        self._reference = reference

    @property
    def ops_per_pass(self):
        return len(self.grid)

    @property
    def reference(self):
        if self._reference is None:
            self._reference = load_reference().get(self.name, {})
        return self._reference

    def working_set(self):
        p = self.params
        if self.experiment == "classic":
            N = p["N"]
            return {"gabor frame matrix": N * N * N * COMPLEX_BYTES}
        N, K = p["set"]
        n = max(point[0] for point in self.grid)
        return {"fusion effective matrix": n * N * N * K * COMPLEX_BYTES}

    def setup(self, dg, seed, workdir):
        """Build the frames every trial uses once, and check they are tight."""
        p = self.params
        if self.experiment == "classic":
            N = p["N"]
            gens = [dg.gabor.alltop_generator(N),
                    dg.gabor.difference_set_generator(dg.diffsets.catalog_lookup(*p["set"])),
                    dg.gabor.random_torus_generator(N, seed)]
            for gen in gens:
                if dg.gabor.build_gabor_frame(gen).tightness_error > 1e-10:
                    raise RuntimeError(f"{gen.kind} frame at N={N} is not tight")
        else:
            ff = dg.fusion.build_fusion_frame(dg.diffsets.catalog_lookup(*p["set"]))
            lo, hi = dg.fusion.fusion_frame_bounds(ff)
            if lo != hi:
                raise RuntimeError(f"fusion frame {p['set']} is not tight")
        return {"dg": dg, "seed": seed}

    def ops(self, state):
        rng = random.Random(state["seed"])
        order = rng.sample(range(self.pool_size), self.pool_size)
        pass_no = 0
        while True:
            master = order[pass_no % self.pool_size]
            for point in rng.sample(self.grid, len(self.grid)):
                yield Op(pass_no, self.key(master, point), ":".join(map(str, point)),
                         (master, point))
            pass_no += 1

    @staticmethod
    def key(master, point):
        return ":".join(str(v) for v in (master, *point))

    def config(self, dg, master, point):
        p = self.params
        if self.experiment == "classic":
            kind, k = point
            return dg.experiments.ClassicExperimentConfig(
                N=p["N"], sparsity_grid=(k,), generators=(kind,), trials=1,
                master_seed=master, set_params=p["set"])
        n, k = point
        return dg.experiments.FusionExperimentConfig(
            set_params=p["set"], measurement_grid=(n,), sparsity_grid=(k,), trials=1,
            master_seed=master, solver=dg.solvers.SolverConfig(max_iters=p["max_iters"]))

    def call(self, state, op):
        dg = state["dg"]
        cfg = self.config(dg, *op.payload)
        if self.experiment == "classic":
            return dg.experiments.run_classic_experiment(cfg)
        return dg.experiments.run_fusion_experiment(cfg)

    def csv_digest(self, dg, curves):
        return hashlib.sha256(dg.experiments.curves_to_csv(curves).encode("ascii")).hexdigest()

    def check(self, state, op, curves):
        """The trial's CSV must hash to the digest recorded for this key."""
        digest = self.csv_digest(state["dg"], curves)
        trials = sum(t for c in curves for (_, _, t) in c.points)
        ok = digest == self.reference.get(op.key) and trials == 1
        return ok, {"exact": (digest, trials)}


def _write_matrix_csv(path, matrix):
    """The CLI's matrix format: `rows,cols` then one `re,im` line per entry."""
    rows, cols = matrix.shape
    lines = [f"{rows},{cols}"]
    lines += [f"{v.real:.17g},{v.imag:.17g}" for v in matrix.reshape(-1)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _report(stdout):
    return json.loads(stdout)["report"]


def _close(a, b, tol=1e-10):
    return a is not None and b is not None and abs(a - b) < tol


class CliAnalytics:
    """A seeded mix of analytic CLI commands, one ``cli.main`` call per operation."""

    name = "cli-analytics"
    tail_quantile = 0.9
    search = (16, 6)  # no cyclic (16,6,2) difference set exists
    tight_set = (13, 4)  # its Gabor frame is tight: scalar projection path
    generic_shape = (24, 64)  # complex Gaussian matrix: SVD projection path
    generic_blocks = (16, 4)

    def __init__(self, coherence_max_n=64, fusion_max_n=None, alltop_n=43, table=True):
        self.coherence_max_n = coherence_max_n
        self.fusion_max_n = fusion_max_n
        self.alltop_n = alltop_n
        self.table = table
        # both known once the catalog is loaded in setup
        self.ops_per_pass = None
        self.largest_coherence_n = None

    def working_set(self):
        d = self.largest_coherence_n ** 2
        return {"largest coherence Gram matrix": d * d * COMPLEX_BYTES}

    def setup(self, dg, seed, workdir):
        """Write the solver inputs and fix the command mix from the catalog."""
        import numpy as np

        rng = np.random.default_rng(seed)
        entries = dg.diffsets.catalog_entries()
        coherence_sets = [ds for ds in entries if ds.N <= self.coherence_max_n]
        fusion_sets = [ds for ds in entries
                       if self.fusion_max_n is None or ds.N <= self.fusion_max_n]
        self.largest_coherence_n = max(ds.N for ds in coherence_sets)

        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        tight = dg.gabor.build_gabor_frame(
            dg.gabor.difference_set_generator(dg.diffsets.catalog_lookup(*self.tight_set)))
        rows, cols = self.generic_shape
        generic = (rng.standard_normal((rows, cols))
                   + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)
        solves = []
        for label, A, blocks in (("tight", tight.columns, (tight.N, tight.N)),
                                 ("generic", generic, self.generic_blocks)):
            d = A.shape[1]
            x = np.zeros(d, dtype=complex)
            x[rng.choice(d, size=2, replace=False)] = (
                rng.standard_normal(2) + 1j * rng.standard_normal(2))
            xb = np.zeros(d, dtype=complex)
            count, size = blocks
            for j in rng.choice(count, size=1, replace=False):
                xb[j * size:(j + 1) * size] = (
                    rng.standard_normal(size) + 1j * rng.standard_normal(size))
            paths = {name: str(workdir / f"{label}-{name}.csv")
                     for name in ("matrix", "y", "yb", "out")}
            _write_matrix_csv(paths["matrix"], A)
            _write_matrix_csv(paths["y"], (A @ x)[:, None])
            _write_matrix_csv(paths["yb"], (A @ xb)[:, None])
            common = ["--matrix", paths["matrix"], "--out", paths["out"]]
            solves.append((["solve", "bp", *common, "--y", paths["y"]], d,
                           (paths["matrix"], paths["y"], paths["out"])))
            solves.append((["solve", "block-bp", *common, "--y", paths["yb"],
                            "--blocks", f"{count},{size}"], d,
                           (paths["matrix"], paths["yb"], paths["out"])))

        fixed = []
        for ds in coherence_sets:
            fixed.append((["gabor", "coherence", "--set", f"{ds.N},{ds.params.K}"],
                          ("coherence-set",)))
        fixed.append((["gabor", "coherence", "--alltop", str(self.alltop_n)], ("alltop",)))
        if self.table:
            fixed.append((["gabor", "table"], ("table",)))
        for ds in fusion_sets:
            pair = f"{ds.N},{ds.params.K}"
            fixed.append((["fusion", "report", "--set", pair], ("fusion-report", ds)))
            fixed.append((["fusion", "distances", "--set", pair], ("fusion-distances", ds)))
        fixed.append((["diffset", "search", *map(str, self.search)], ("search",)))
        fixed.append((["diffset", "catalog"],
                      ("catalog", [[ds.N, ds.params.K, list(ds.elements)] for ds in entries])))
        for argv, d, files in solves:
            fixed.append((argv, ("solve", d, files)))
        self.ops_per_pass = len(fixed) + 2  # plus the seeded random and verify calls
        return {"dg": dg, "seed": seed, "fixed": fixed, "entries": entries}

    def ops(self, state):
        rng = random.Random(state["seed"])
        pass_no = 0
        while True:
            ds = rng.choice(state["entries"])
            shift = rng.randrange(ds.N)
            elements = sorted((e + shift) % ds.N for e in ds.elements)
            mix = [(" ".join(argv), argv, expect) for argv, expect in state["fixed"]] + [
                ("gabor coherence --random",
                 ["gabor", "coherence", "--random", str(self.alltop_n),
                  "--seed", str(rng.randrange(1 << 31))], ("random",)),
                ("diffset verify",
                 ["diffset", "verify", str(ds.N), ",".join(map(str, elements))],
                 ("verify", ds)),
            ]
            rng.shuffle(mix)
            for slot, argv, expect in mix:
                yield Op(pass_no, " ".join(argv), slot, (argv, expect))
            pass_no += 1

    def call(self, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = state["dg"].cli.main(list(op.payload[0]))
        return rc, out.getvalue()

    def check(self, state, op, result):
        rc, stdout = result
        expect = op.payload[1]
        info = {"exact": (rc,), "emit_bytes": len(stdout.encode("utf-8"))}
        try:
            ok = rc == 0 and self._check_output(expect, stdout, info)
        except (ValueError, KeyError, IndexError, TypeError, OSError):
            ok = False
        return ok, info

    def _check_output(self, expect, stdout, info):
        kind = expect[0]
        if kind == "fusion-distances":
            ds = expect[1]
            lines = stdout.splitlines()
            dc2 = {int(line.rsplit(",", 1)[1]) for line in lines[1:]}
            return (lines[0] == "a,b,dc_squared" and len(lines) == 1 + ds.N * (ds.N - 1) // 2
                    and dc2 == {ds.params.K - ds.params.lam})
        r = _report(stdout)
        if kind == "coherence-set":
            return _close(r["mutual_coherence"], r["predicted"])
        if kind == "alltop":
            return _close(r["mutual_coherence"], r["N"] ** -0.5)
        if kind == "random":
            return (r["welch_bound"] <= r["mutual_coherence"] <= 1.0 + 1e-12
                    and r["tightness_error"] < 1e-10)
        if kind == "table":
            measured = [row for row in r["rows"] if row["measured_mu_squared"] is not None]
            return bool(measured) and all(
                _close(row["measured_mu_squared"], row["predicted_mu_squared"])
                for row in measured)
        if kind == "fusion-report":
            ds = expect[1]
            return (r["equidistant"] is True and r["sparsity"] == ds.params.K * ds.N
                    and r["optimal_packing"] is True
                    and r["dc_squared"] == ds.params.K - ds.params.lam)
        if kind == "verify":
            ds = expect[1]
            return r["is_difference_set"] is True and r["inferred_lambda"] == ds.params.lam
        if kind == "search":
            return r["status"] == "proven-nonexistent" and r["set"] is None
        if kind == "catalog":
            return [[e["N"], e["K"], e["elements"]] for e in r["entries"]] == expect[1]
        if kind == "solve":
            _, d, files = expect
            info["csv_bytes"] = sum(os.path.getsize(f) for f in files)
            with open(files[-1], encoding="ascii") as fh:
                header = fh.readline().strip()
            return (r["status"] == "converged" and r["feasibility_gap"] < 1e-8
                    and header == f"{d},1")
        raise ValueError(f"unknown check {kind}")


def make(name):
    """The workload registered under ``name``, at its benchmark size."""
    if name == "classic-n43":
        return MonteCarlo(
            name, "classic",
            [(kind, k) for kind in ("alltop", "random_torus", "difference_set")
             for k in range(1, 6)],
            {"N": 43, "set": (43, 21)})
    if name == "fusion-40-13":
        return MonteCarlo(
            name, "fusion",
            [(n, k) for n in (5, 9, 13, 16) for k in (1, 4, 8, 12)],
            {"set": (40, 13), "max_iters": 2000})
    if name == "cli-analytics":
        return CliAnalytics()
    raise KeyError(name)


WORKLOADS = ("classic-n43", "fusion-40-13", "cli-analytics")
