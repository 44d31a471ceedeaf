"""E3 / Figure 4 — running time as a function of k*.

The relevancy-based pruning keeps only the top-k* of every lineage class, so
its effectiveness degrades as k* grows: the paper observes runtimes increasing
with k* on Law Students and MEPS, a mild effect on Astronauts (many small
lineage classes) and virtually none on TPC-H (5 lineage classes, setup-bound).
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
)

_K_VALUES = {"reduced": (10, 20, 30), "paper": (10, 30, 50, 70, 90)}
_DISTANCES = {"reduced": ("pred", "jaccard"), "paper": ("pred", "jaccard", "kendall")}


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig4_effect_of_kstar(dataset):
    bundle = dataset_bundle(dataset)
    k_values = _K_VALUES[bench_scale()]
    distances = _DISTANCES[bench_scale()]

    def run_all():
        records = []
        for k in k_values:
            constraints = default_constraint_set(dataset, k)
            for distance in distances:
                record = run_milp(dataset, constraints, distance=distance, bundle=bundle)
                record.algorithm = f"MILP+OPT(k*={k})"
                records.append(record)
        return records

    records = run_all()
    print_records(f"Figure 4 – {dataset}", records)

    # Model size (a deterministic proxy for the pruning's effectiveness) must
    # grow monotonically with k*: a larger k* keeps more tuples per class.
    pred_records = [r for r in records if r.distance == "QD"]
    kept = [r.extra["annotated_tuples"] for r in pred_records]
    assert kept == sorted(kept)
    assert all(record.feasible or record.timed_out for record in records)
