"""Benchmark: the batched refinement sweep on reduced meps.

``Naive+prov`` evaluates thousands of candidate refinements over the shared
``~Q(D)``.  The batched-sweep engine resolves every numerical candidate
threshold with one ``searchsorted`` call per predicate up front, caches the
per-threshold masks across the sweep, and counts constraint deviations
straight off the candidate's positions.

The run uses the reduced meps workload (the Figure 3 configuration that
motivated the vectorized engine) and its record is appended to
``benchmarks/results/latest.txt``.  The guard is an absolute solve budget.
It replaced a ratio guard (batched >= 2x faster than the per-candidate
engine) when that engine was deleted, and is no looser: the per-candidate
solve last recorded 0.380 s, and half of that is the budget.
"""

from __future__ import annotations

import pytest

from benchmarks.support import default_constraint_set, print_records, run_naive

pytestmark = pytest.mark.perf_smoke

#: Solve-time budget for the batched sweep on reduced meps: the last recorded
#: per-candidate solve (0.380 s) divided by the former 2x ratio guard.
BATCHED_SOLVE_BUDGET_SECONDS = 0.19


def test_batched_sweep_on_reduced_meps_solves_within_budget():
    constraints = default_constraint_set("meps")
    # Warm the dataset cache (and the interpreter) outside the timed run.
    run_naive("meps", constraints, use_provenance=True)

    # jobs=1 pins the timed run to the serial loop so a REPRO_SOLVER_JOBS
    # environment (the sharded CI matrix job) can't skew the measurement.
    batched = run_naive("meps", constraints, use_provenance=True, jobs=1)
    print_records("sweep batching (meps, Naive+prov)", [batched])

    assert batched.feasible
    assert batched.solve_seconds <= BATCHED_SOLVE_BUDGET_SECONDS, (
        f"batched sweep solve took {batched.solve_seconds:.3f}s; "
        f"budget is {BATCHED_SOLVE_BUDGET_SECONDS:.2f}s"
    )
