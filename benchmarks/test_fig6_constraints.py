"""E5 / Figure 6 — running time as a function of the number of constraints.

Constraints are added in their Table 6 order.  As in the paper, the bounds of
the first two constraints are softened to k/3 (both cannot hold at k/2
simultaneously with a 0.5 deviation on every dataset), and the effect of the
constraint count on the runtime is expected to be small: the number of
expressions grows linearly in |C| but |C| << |D|.
"""

from __future__ import annotations

import pytest

from benchmarks.support import (
    DATASETS,
    DEFAULT_K,
    ConstraintSet,
    at_least,
    bench_scale,
    dataset_bundle,
    print_records,
    run_milp,
    table6_constraints,
)

_DISTANCES = {"reduced": ("pred",), "paper": ("pred", "jaccard", "kendall")}


def _softened_constraints(dataset: str) -> list:
    """Table 6 constraints with the first two softened to k/3 (paper, Section 5.2)."""
    constraints = table6_constraints(dataset, DEFAULT_K)
    third = max(DEFAULT_K // 3, 1)
    softened = []
    for index, constraint in enumerate(constraints):
        if index < 2 and dataset != "tpch":
            softened.append(
                at_least(third, constraint.k, **constraint.group.conditions)
            )
        else:
            softened.append(constraint)
    return softened


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig6_effect_of_constraint_count(dataset):
    bundle = dataset_bundle(dataset)
    constraints = _softened_constraints(dataset)

    def run_all():
        records = []
        for count in range(1, len(constraints) + 1):
            subset = ConstraintSet(constraints[:count])
            for distance in _DISTANCES[bench_scale()]:
                record = run_milp(dataset, subset, distance=distance, bundle=bundle)
                record.algorithm = f"MILP+OPT(|C|={count})"
                records.append(record)
        return records

    records = run_all()
    print_records(f"Figure 6 – {dataset}", records)

    # The model grows with the number of constraints (more l/E variables) ...
    sizes = [r.extra["topk_variables"] for r in records if r.distance == "QD"]
    assert sizes == sorted(sizes)
    # ... and every configuration still completes.
    assert all(record.feasible or record.timed_out for record in records)
