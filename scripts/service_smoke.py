#!/usr/bin/env python
"""CI smoke test for the serve front end.

Starts ``repro serve`` as a real subprocess, fires concurrent ``/refine``
requests against three datasets, then repeats each request sequentially, and
diffs every server answer (canonical serialization, timings excluded)
against a one-shot ``repro refine --json`` subprocess for the same request.
The sequential repeats come after the problem was proven, so each must be
answered from the stored proof: the sessions' ``answers_reused`` counter in
``/stats`` must rise by one per repeat.  The law_students Kendall case runs
the MILP cut loop, whose statistics (``cut_rounds``, ``rows_generated``) a
repeat must report exactly like the one-shot run.  Exits non-zero on any
mismatch.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service.engine import RefineResponse  # noqa: E402

CONCURRENCY = 6

#: Sequential requests per case once its concurrent round has completed.
REPEATS = 3

#: (dataset, CLI dataset arguments, wire-form dataset_parameters, constraint,
#: distance, epsilon)
CASES = [
    ("students", [], {}, ("3@6:Gender=F", {"Gender": "F"}, 3, 6), "pred", 0.5),
    (
        "meps",
        ["--rows", "300"],
        {"num_rows": 300},
        ("5@10:Sex=F", {"Sex": "F"}, 5, 10),
        "pred",
        0.5,
    ),
    (
        "law_students",
        ["--rows", "1500"],
        {"num_rows": 1500},
        ("5@10:Sex=M", {"Sex": "M"}, 5, 10),
        "kendall",
        0.0,
    ),
]


def run_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def start_server() -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--warm", "students", "--warm", "meps:num_rows=300",
         "--warm", "law_students:num_rows=1500"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=run_environment(),
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 120
    base_url = None
    for line in process.stdout:
        print(f"[serve] {line.rstrip()}")
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            base_url = match.group(1)
            break
        if time.monotonic() > deadline:
            break
    if base_url is None:
        process.terminate()
        raise SystemExit("server never reported its address")
    for _ in range(600):
        try:
            with urllib.request.urlopen(base_url + "/health", timeout=5) as response:
                if json.loads(response.read())["status"] == "ok":
                    return process, base_url
        except OSError:
            time.sleep(0.1)
    process.terminate()
    raise SystemExit("server never became healthy")


def cli_canonical(
    dataset: str,
    dataset_arguments: list[str],
    constraint: str,
    distance: str,
    epsilon: float,
) -> str:
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "refine", "--dataset", dataset,
         *dataset_arguments, "--at-least", constraint,
         "--distance", distance, "--epsilon", str(epsilon),
         "--method", "milp+opt", "--jobs", "1", "--json"],
        capture_output=True,
        text=True,
        env=run_environment(),
        cwd=REPO_ROOT,
        timeout=300,
    )
    if completed.returncode not in (0, 1):
        raise SystemExit(f"CLI run failed for {dataset}: {completed.stderr}")
    return RefineResponse.from_dict(json.loads(completed.stdout)).canonical_json()


def server_canonical(base_url: str, payload: dict) -> str:
    request = urllib.request.Request(
        base_url + "/refine",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return RefineResponse.from_dict(json.loads(response.read())).canonical_json()


def server_stats(base_url: str) -> dict:
    with urllib.request.urlopen(base_url + "/stats", timeout=30) as response:
        return json.loads(response.read())


def answers_reused(base_url: str) -> int:
    sessions = server_stats(base_url)["sessions"]["sessions"]
    return sum(session["answers_reused"] for session in sessions)


def main() -> int:
    process, base_url = start_server()
    failures = 0
    try:
        for dataset, cli_args, parameters, constraint, distance, epsilon in CASES:
            text, group, bound, k = constraint
            expected = cli_canonical(dataset, cli_args, text, distance, epsilon)
            payload = {
                "dataset": dataset,
                "constraints": [
                    {"kind": "at_least", "bound": bound, "k": k, "group": group}
                ],
                "distance": distance,
                "epsilon": epsilon,
                "method": "milp+opt",
                "jobs": 1,
            }
            if parameters:
                payload["dataset_parameters"] = parameters
            with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
                answers = list(
                    pool.map(
                        lambda _: server_canonical(base_url, payload),
                        range(CONCURRENCY),
                    )
                )
            mismatches = sum(1 for answer in answers if answer != expected)
            verdict = "OK" if mismatches == 0 else f"MISMATCH x{mismatches}"
            print(f"{dataset}: {CONCURRENCY} concurrent answers vs CLI -> {verdict}")
            failures += mismatches

            reused_before = answers_reused(base_url)
            repeats = [server_canonical(base_url, payload) for _ in range(REPEATS)]
            mismatches = sum(1 for answer in repeats if answer != expected)
            reused = answers_reused(base_url) - reused_before
            verdict = "OK" if mismatches == 0 else f"MISMATCH x{mismatches}"
            print(
                f"{dataset}: {REPEATS} sequential repeats vs CLI -> {verdict}, "
                f"{reused} answered from the stored proof"
            )
            failures += mismatches
            if reused < REPEATS:
                print(f"{dataset}: only {reused} of {REPEATS} repeats reused the proof")
                failures += REPEATS - reused
        print("server stats:", json.dumps(server_stats(base_url), sort_keys=True))
    finally:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
    if failures:
        print(f"FAILED: {failures} mismatching or re-solved answers", file=sys.stderr)
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
