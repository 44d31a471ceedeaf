"""The benchmark end to end at a tiny request count, and its inputs."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import oracle
import pytest
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = [ROOT / "benchmarks" / "results" / name for name in ("latest.json", "latest.txt")]


def _digest(paths):
    return [hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None for p in paths]


def _run(*args, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return completed


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_lists_every_workload_and_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in layers.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_problem_has_a_frozen_answer(name):
    answers = oracle.load(name)
    missing = [
        r.to_json()
        for r in WORKLOADS[name].problems()
        if oracle.problem_key(r.to_dict()) not in answers
    ]
    assert missing == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_requests(name):
    def first(seed):
        blocks = WORKLOADS[name].iter_blocks(seed)
        return [r.to_json() for _ in range(2) for r in next(blocks)]

    assert first(3) == first(3)
    assert first(3) != first(4)


def test_milp_solve_sends_distinct_problems():
    block = next(WORKLOADS["milp_solve"].iter_blocks(0))
    assert len({r.to_json() for r in block}) == len(block)


# Seed 9 starts every workload with cheap requests, which keeps these short.
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end(name):
    before = _digest(RESULTS)
    result = _result(
        _run("--workload", name, "--seed", "9", "--seconds", "1", "--trace", "0",
             "--max-requests", "2")
    )
    assert result["correct"] is True
    assert result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _digest(RESULTS) == before
    record = json.loads((BENCH / "out" / f"{name}-seed9-trace0.json").read_text())
    assert {"git_sha", "git_dirty", "nproc", "cpu_model", "highs", "seed"} <= set(
        record["fingerprint"]
    )


def test_traced_run_reports_every_layer_metric():
    result = _result(
        _run("--workload", "service_mixed", "--seed", "9", "--seconds", "1", "--trace", "1",
             "--max-requests", "3")
    )
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.top_span_coverage"]["value"] > 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "milp_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_pin_clears_behaviour_switches():
    import environment

    env = {"REPRO_MILP_LAZY": "0", "REPRO_FAULT_SLOW_SOLVE": "1", "REPRO_BENCH_SCALE": "x", "HOME": "/h"}
    assert environment.pin(env) == ["REPRO_FAULT_SLOW_SOLVE", "REPRO_MILP_LAZY"]
    assert env == {"REPRO_BENCH_SCALE": "x", "HOME": "/h"}
