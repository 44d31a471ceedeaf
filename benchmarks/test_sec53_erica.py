"""E9 / Section 5.3 — comparison with Erica.

The setup follows the paper: the Law Students query with predicates
``Region = 'GL' AND GPA >= 3.0``, the single constraint "at least half of the
top-100 are women", exact satisfaction (eps = 0), and the predicate distance.
Erica is run with an additional "exactly 100 output tuples" requirement so its
whole-output constraint coincides with a top-100 constraint.

Expected shape (paper): our solver's refinement is at least as close to the
original query (in DIS_pred) as every refinement Erica returns, because
Erica's exact-output-size restriction excludes closer refinements.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, EricaBaseline, RefinementSolver, at_least
from repro.datasets import law_students_database
from repro.datasets.law_students import law_students_erica_query

from benchmarks.support import RunRecord, bench_scale, print_records

_NUM_ROWS = {"reduced": 1_500, "paper": 21_790}
_TOP_K = {"reduced": 50, "paper": 100}


def test_sec53_comparison_with_erica():
    num_rows = _NUM_ROWS[bench_scale()]
    k = _TOP_K[bench_scale()]
    database = law_students_database(num_rows=num_rows, seed=11)
    query = law_students_erica_query()
    constraints = ConstraintSet([at_least(k // 2, k, Sex="F")])

    def run_all():
        ours = RefinementSolver(
            database, query, constraints, epsilon=0.0, distance="pred", method="milp+opt"
        ).solve()
        erica = EricaBaseline(
            database, query, constraints, output_size=k
        ).solve(num_solutions=3)
        return ours, erica

    ours, erica = run_all()

    records = [
        RunRecord(
            dataset="law_students",
            algorithm="MILP+OPT",
            distance="QD",
            feasible=ours.feasible,
            timed_out=False,
            setup_seconds=ours.setup_seconds,
            solve_seconds=ours.solve_seconds,
            total_seconds=ours.total_seconds,
            distance_value=ours.distance_value,
        )
    ]
    for index, refinement in enumerate(erica.refinements, start=1):
        records.append(
            RunRecord(
                dataset="law_students",
                algorithm=f"ERICA#{index}",
                distance="QD",
                feasible=True,
                timed_out=False,
                setup_seconds=erica.setup_seconds,
                solve_seconds=erica.solve_seconds,
                total_seconds=erica.total_seconds,
                distance_value=refinement.distance_value,
            )
        )
    print_records(f"Section 5.3 – Erica comparison (top-{k})", records)

    assert ours.feasible, "our solver must find an exactly-satisfying refinement"
    assert ours.deviation == pytest.approx(0.0)
    # Every Erica refinement is at least as far from the original query.
    for refinement in erica.refinements:
        assert ours.distance_value <= refinement.distance_value + 1e-6
