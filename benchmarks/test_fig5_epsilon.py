"""E4 / Figure 5 — running time as a function of the maximum deviation eps.

The paper finds that eps barely affects the running time (the solver still has
to prove optimality of the distance objective); only eps = 1.0 is slightly
faster because every refinement trivially satisfies a lower-bound-only
constraint set at that slack.
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

_EPSILONS = {"reduced": (0.0, 0.5, 1.0), "paper": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)}
_DISTANCES = {"reduced": ("pred", "jaccard"), "paper": ("pred", "jaccard", "kendall")}


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig5_effect_of_epsilon(dataset):
    bundle = dataset_bundle(dataset)
    constraints = default_constraint_set(dataset)

    def run_all():
        records = []
        for epsilon in _EPSILONS[bench_scale()]:
            for distance in _DISTANCES[bench_scale()]:
                record = run_milp(
                    dataset, constraints, distance=distance, epsilon=epsilon, bundle=bundle
                )
                record.algorithm = f"MILP+OPT(eps={epsilon:g})"
                records.append(record)
        return records

    records = run_all()
    print_records(f"Figure 5 – {dataset}", records)

    # At eps = 1.0 a lower-bound-only constraint set is trivially within the
    # allowed deviation, so the identity refinement (distance 0) is optimal.
    relaxed = [r for r in records if r.algorithm.endswith("eps=1)") and r.distance == "QD"]
    for record in relaxed:
        assert record.feasible
        assert record.distance_value == pytest.approx(0.0, abs=1e-6)
