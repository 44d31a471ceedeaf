"""E6 / Figure 7 — lower-bound-only vs mixed constraint sets.

The rank-relaxation optimization (Section 4) only applies to tuples whose
groups carry a single type of bound.  The paper builds two constraint sets —
C_L with constraints (1) and (2) as lower bounds, and C_M where constraint (2)
is flipped into an upper bound — and shows that C_L typically solves faster.
Because the group attributes involved are binary, the two sets are equivalent
in terms of which rankings satisfy them, isolating the optimization's effect.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, at_least, at_most

from benchmarks.support import (
    DATASETS,
    DEFAULT_K,
    bench_scale,
    dataset_bundle,
    print_records,
    run_milp,
    table6_constraints,
)

_DISTANCES = {"reduced": ("pred", "jaccard"), "paper": ("pred", "jaccard", "kendall")}


def _constraint_sets(dataset: str) -> tuple[ConstraintSet, ConstraintSet]:
    first, second = table6_constraints(dataset, DEFAULT_K)[:2]
    third = max(DEFAULT_K // 3, 1)
    lower_only = ConstraintSet(
        [
            at_least(third, first.k, **first.group.conditions),
            at_least(third, second.k, **second.group.conditions),
        ]
    )
    mixed = ConstraintSet(
        [
            at_least(third, first.k, **first.group.conditions),
            at_most(DEFAULT_K - third, second.k, **second.group.conditions),
        ]
    )
    return lower_only, mixed


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig7_constraint_types(dataset):
    bundle = dataset_bundle(dataset)
    lower_only, mixed = _constraint_sets(dataset)

    def run_all():
        records = []
        for label, constraints in (("LOWER", lower_only), ("COMBINED", mixed)):
            for distance in _DISTANCES[bench_scale()]:
                record = run_milp(dataset, constraints, distance=distance, bundle=bundle)
                record.algorithm = f"MILP+OPT[{label}]"
                records.append(record)
        return records

    records = run_all()
    print_records(f"Figure 7 – {dataset}", records)
    assert all(record.feasible or record.timed_out for record in records)
