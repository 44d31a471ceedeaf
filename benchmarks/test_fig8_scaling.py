"""E7 / Figure 8 — running time as a function of the data size.

Following the paper, the real-data stand-ins are scaled up with the mini-SDV
synthesizer (which also creates new lineage classes, as SDV does), while TPC-H
is scaled through its scale factor (the number of lineage classes stays at 5).
Expected shape: runtime grows modestly with data size; for TPC-H the setup
(join + lineage computation) dominates and grows linearly, while the solver
share stays negligible.
"""

from __future__ import annotations

import pytest

from repro.datasets import scale_database, tpch_database
from repro.datasets.registry import DatasetBundle
from repro.provenance import annotate

from benchmarks.support import (
    DATASETS,
    bench_scale,
    dataset_bundle,
    default_constraint_set,
    print_records,
    run_milp,
)

_FACTORS = {"reduced": (1.0, 1.5, 2.0), "paper": (1.0, 2.0, 3.0, 4.0, 5.0)}
_IDENTIFIERS = {
    "astronauts": {"Astronauts": "Name"},
    "law_students": {"LawStudents": "ID"},
    "meps": {"MEPS": "ID"},
}


def _scaled_bundle(dataset: str, factor: float) -> DatasetBundle:
    base = dataset_bundle(dataset)
    if factor == 1.0:
        return base
    if dataset == "tpch":
        scale = 0.15 if bench_scale() == "reduced" else 1.0
        database = tpch_database(scale_factor=scale * factor, seed=17)
    else:
        database = scale_database(
            base.database, factor, identifiers=_IDENTIFIERS[dataset], seed=int(factor * 10)
        )
    return DatasetBundle(base.name, database, base.query)


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig8_effect_of_data_size(dataset):
    constraints = default_constraint_set(dataset)
    factors = _FACTORS[bench_scale()]

    def run_all():
        records = []
        for factor in factors:
            bundle = _scaled_bundle(dataset, factor)
            annotated = annotate(bundle.query, bundle.database)
            record = run_milp(dataset, constraints, distance="pred", bundle=bundle)
            record.algorithm = f"MILP+OPT(x{factor:g})"
            record.extra = dict(record.extra or {})
            record.extra["data_rows"] = bundle.database.total_rows()
            record.extra["lineage_classes_full"] = annotated.num_lineage_classes
            records.append(record)
        return records

    records = run_all()
    print_records(f"Figure 8 – {dataset}", records)
    for record in records:
        print(
            f"    x-axis point: rows={record.extra['data_rows']}, "
            f"lineage classes={record.extra['lineage_classes_full']}"
        )

    rows = [record.extra["data_rows"] for record in records]
    assert rows == sorted(rows)
    if dataset == "tpch":
        classes = {record.extra["lineage_classes_full"] for record in records}
        assert classes == {5}, "TPC-H scaling must not create new lineage classes"
    assert all(record.feasible or record.timed_out for record in records)
