"""Record the reference CSV digests of the Monte-Carlo workloads.

    python3 bench/record_reference.py classic-n43 fusion-40-13

Runs every grid point of every master seed in the pool once and writes the
SHA-256 of each trial's CSV into ``reference.json``.  The benchmark treats
a later CSV that hashes differently as a failed operation, so re-record only
when a change to the recovery results is intended and accepted.
"""

import json
import sys

import run
import workloads


def record(workload, dg):
    state = workload.setup(dg, 0, None)
    digests = {}
    for master in range(workload.pool_size):
        for point in workload.grid:
            op = workloads.Op(0, workload.key(master, point), None, (master, point))
            digests[op.key] = workload.csv_digest(dg, workload.call(state, op))
    return digests


def main(names):
    dg = run.import_package(run.ROOT)
    if dg is None:
        print("error: diffgabor package not found", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    for name in names:
        workload = workloads.make(name)
        if not isinstance(workload, workloads.MonteCarlo):
            print(f"error: {name} has no reference digests", file=sys.stderr)
            return 2
        reference[name] = record(workload, dg)
        print(f"{name}: {len(reference[name])} digests", flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
