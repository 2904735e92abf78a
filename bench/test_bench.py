"""Tests of the benchmark itself, on configurations that run in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import record_reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DG = run.import_package(run.ROOT)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_classic(reference=None):
    grid = [(kind, k) for kind in ("alltop", "random_torus", "difference_set") for k in (1, 2)]
    return workloads.MonteCarlo("tiny-classic", "classic", grid, {"N": 7, "set": (7, 3)},
                                reference=reference, pool_size=2)


def tiny_fusion(reference=None):
    grid = [(n, k) for n in (2, 4) for k in (1, 3)]
    return workloads.MonteCarlo("tiny-fusion", "fusion", grid,
                                {"set": (7, 3), "max_iters": 2000},
                                reference=reference, pool_size=2)


def tiny_cli():
    return workloads.CliAnalytics(coherence_max_n=13, fusion_max_n=13, alltop_n=7, table=False)


def recorded(make):
    return make(reference=record_reference.record(make(reference={}), DG))


def measure(workload, tmp_path, trace, seconds=1.0, seed=3):
    result, notes, _ = run.run(workload, DG, seed, seconds, trace, tmp_path,
                               out=lambda line: None)
    return result, notes


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END and layer == run.PER_LAYER
    assert len(e2e) <= 16 and len(layer) <= 128
    assert all(NAME.fullmatch(name) for name in [*e2e, *layer])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert e2e["setup_s"] == "s"


@pytest.mark.parametrize("make", [tiny_classic, tiny_fusion])
def test_monte_carlo_untraced_run_checks_digests(make, tmp_path):
    result, notes = measure(recorded(make), tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("make", [tiny_classic, tiny_fusion])
def test_monte_carlo_traced_run_agrees_with_untraced(make, tmp_path):
    result, notes = measure(recorded(make), tmp_path, trace=True)
    assert notes["disagreements"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["experiments.trial_ms_p50"]["value"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_wrong_reference_digest_is_reported_as_failures(tmp_path):
    reference = record_reference.record(tiny_classic(reference={}), DG)
    wrong = {key: "0" * 64 for key in reference}
    result, _ = measure(tiny_classic(reference=wrong), tmp_path, trace=False, seconds=0.5)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_cli_mix_untraced_and_traced(tmp_path):
    result, _ = measure(tiny_cli(), tmp_path, trace=False, seconds=2.0)
    assert result["correct"] and result["attempted"] >= 1
    traced, notes = measure(tiny_cli(), tmp_path, trace=True, seconds=2.0)
    assert traced["correct"] and notes["disagreements"] == []
    assert traced["metrics"]["cli.emit_bytes"]["value"] > 0


def test_traced_counts_are_compared(tmp_path):
    """A count that differs between the passes is a disagreement."""
    workload = recorded(tiny_classic)
    state, _, _ = run.setup(workload, DG, 1, tmp_path)
    untraced, traced, recorder = run.traced_run(workload, DG, state, 0.5)
    assert run.disagreements(untraced, traced, recorder) == []
    kind, iterations, status = recorder.events[True][0][-1]
    recorder.events[True][0][-1] = (kind, iterations + 1, status)
    assert run.disagreements(untraced, traced, recorder) == [0]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = DG.experiments.basis_pursuit
    measure(recorded(tiny_classic), tmp_path, trace=True, seconds=0.3)
    assert DG.experiments.basis_pursuit is before is DG.solvers.basis_pursuit


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-analytics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
