"""E2 / Figure 3 — running time of the compared algorithms.

Per dataset, compares:

* ``MILP+opt`` under all three distance measures (the paper's main algorithm),
* the unoptimized ``MILP`` (predicate distance; expected to struggle on the
  larger datasets — it runs under a time limit, mirroring the paper's 1-hour
  timeout),
* the exhaustive baselines ``Naive`` and ``Naive+prov`` (predicate distance;
  expected to time out whenever the refinement space is large, i.e. on
  Astronauts and Law Students).

Expected shape (paper): MILP+opt completes everywhere and is the fastest
complete method; MILP times out on the large datasets; Naive/Naive+prov are
competitive only when the refinement space is tiny (MEPS, TPC-H).
"""

from __future__ import annotations

import pytest

from benchmarks.support import (
    DATASETS,
    bench_scale,
    dataset_bundle,
    default_constraint_set,
    print_records,
    run_milp,
    run_naive,
)

# Kendall on the MEPS instance is the single most expensive configuration; the
# reduced-scale suite skips it (the paper's qualitative point — KEN is the
# hardest distance to optimise — is already visible on the other datasets).
_SKIP_KENDALL_REDUCED = {"meps"}


def _distances_for(dataset: str) -> list[str]:
    distances = ["pred", "jaccard", "kendall"]
    if bench_scale() == "reduced" and dataset in _SKIP_KENDALL_REDUCED:
        distances.remove("kendall")
    return distances


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig3_algorithm_comparison(dataset):
    constraints = default_constraint_set(dataset)
    bundle = dataset_bundle(dataset)

    def run_all():
        records = []
        for distance in _distances_for(dataset):
            records.append(
                run_milp(dataset, constraints, distance=distance, method="milp+opt", bundle=bundle)
            )
        records.append(
            run_milp(dataset, constraints, distance="pred", method="milp", bundle=bundle)
        )
        records.append(
            run_naive(dataset, constraints, distance="pred", use_provenance=True, bundle=bundle)
        )
        records.append(
            run_naive(dataset, constraints, distance="pred", use_provenance=False, bundle=bundle)
        )
        return records

    records = run_all()
    print_records(f"Figure 3 – {dataset}", records)

    assert all(
        record.feasible for record in records if record.algorithm == "MILP+OPT"
    ), "MILP+opt must always complete with a refinement"

    # Whenever a baseline also completed, MILP+opt found a refinement at least
    # as close.  Compare within the predicate-distance family only (the
    # baselines here are run under DIS_pred).
    optimized_qd = next(
        record for record in records if record.algorithm == "MILP+OPT" and record.distance == "QD"
    )
    for name in ("NAIVE+PROV", "NAIVE", "MILP"):
        other = next(record for record in records if record.algorithm == name)
        if other.feasible and not other.timed_out:
            assert optimized_qd.distance_value <= other.distance_value + 1e-6

    # The exhaustive baselines cannot cope with the huge categorical domain of
    # the Astronauts query (2^114 candidate value sets): they must time out.
    if dataset == "astronauts":
        for name in ("NAIVE", "NAIVE+PROV"):
            baseline = next(record for record in records if record.algorithm == name)
            assert baseline.timed_out
