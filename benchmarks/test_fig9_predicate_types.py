"""E8 / Figure 9 — refining categorical-only vs numerical-only predicates.

MEPS and TPC-H lack one of the two predicate kinds, so (as in the paper) the
experiment uses Astronauts and Law Students: each query is restricted to only
its categorical or only its numerical predicates, and the two variants are
refined under the same constraint.  Expected shape: the categorical-only
variant of the Astronauts query (domain of 114 majors) is the slow one; for
Law Students the difference is negligible.
"""

from __future__ import annotations

import pytest

from repro.datasets.registry import DatasetBundle
from repro.relational import Conjunction

from benchmarks.support import (
    bench_scale,
    dataset_bundle,
    default_constraint_set,
    print_records,
    run_milp,
)

_DISTANCES = {"reduced": ("pred", "jaccard"), "paper": ("pred", "jaccard", "kendall")}


def _predicate_variant(dataset: str, kind: str) -> DatasetBundle:
    base = dataset_bundle(dataset)
    query = base.query
    predicates = (
        query.categorical_predicates if kind == "categorical" else query.numerical_predicates
    )
    variant = query.with_where(Conjunction(predicates)).with_name(f"{query.name}_{kind}")
    return DatasetBundle(base.name, base.database, variant)


@pytest.mark.parametrize("dataset", ["astronauts", "law_students"])
def test_fig9_predicate_types(dataset):
    constraints = default_constraint_set(dataset)

    def run_all():
        records = []
        for kind in ("categorical", "numerical"):
            bundle = _predicate_variant(dataset, kind)
            for distance in _DISTANCES[bench_scale()]:
                record = run_milp(dataset, constraints, distance=distance, bundle=bundle)
                record.algorithm = f"MILP+OPT[{kind[:3].upper()}]"
                records.append(record)
        return records

    records = run_all()
    print_records(f"Figure 9 – {dataset}", records)
    assert all(record.feasible for record in records)
