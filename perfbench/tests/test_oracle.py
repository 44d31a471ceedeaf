"""The answer checker: real answers pass, doctored ones are flagged."""

import copy

import oracle
import pytest
from workloads import WORKLOADS, Cell


@pytest.fixture(scope="module")
def engine():
    from repro.service.engine import RefinementEngine

    return RefinementEngine()


def _solve(engine, request) -> dict:
    response = engine.refine(request)
    return dict(response.canonical_dict(), race=response.race)


def _frozen(workload: str, request) -> dict:
    answers = oracle.load(workload)
    return answers[oracle.problem_key(request.to_dict())]


def test_real_milp_answer_passes_and_doctored_ones_fail(engine):
    cell = WORKLOADS["service_mixed"].cells[0]
    request = cell.request(cell.fixed[0])
    expected = _frozen("service_mixed", request)
    answer = _solve(engine, request)
    wire = request.to_dict()
    assert oracle.check(wire, answer, expected) == []

    doctored = copy.deepcopy(answer)
    doctored["objective_value"] += 1.0
    assert oracle.check(wire, doctored, expected)[0].startswith("objective")

    doctored = copy.deepcopy(answer)
    doctored.update(status="infeasible", feasible=False)
    assert oracle.check(wire, doctored, expected)[0].startswith("status")


def test_real_exhaustive_answer_passes_and_a_doctored_distance_fails(engine):
    workload = WORKLOADS["exhaustive_sweep"]
    request = next(r for r in workload.problems() if r.dataset == "tpch")
    expected = _frozen("exhaustive_sweep", request)
    answer = _solve(engine, request)
    wire = request.to_dict()
    assert oracle.check(wire, answer, expected) == []
    if answer["status"] == "ok":
        doctored = copy.deepcopy(answer)
        doctored["distance_value"] += 0.5
        assert oracle.check(wire, doctored, expected)[0].startswith("distance")


def _wire(method="milp+opt", epsilon=0.0):
    request = Cell("tpch", method, "pred", 10).request(((0,), epsilon))
    return request.to_dict()


def test_oracle_free_checks():
    wire = _wire()
    label = next(iter(oracle_labels(wire)))
    good = {
        "status": "ok",
        "feasible": True,
        "method": "milp+opt",
        "deviation": 0.0,
        "constraint_counts": {label: 5},
    }
    assert oracle.check(wire, good, None) == []
    assert oracle.check(wire, dict(good, status="weird"), None) == ["untyped status 'weird'"]
    assert oracle.check(wire, dict(good, deviation=0.2), None)[0].startswith("deviation 0.2 above")
    # The counts say the constraint (at least 5 of the top 10) is 2 short.
    short = dict(good, constraint_counts={label: 3})
    assert "disagrees with the counts" in oracle.check(wire, short, None)[0]


def oracle_labels(wire):
    from repro.service.engine import ConstraintSpec

    return [ConstraintSpec.from_dict(spec).to_constraint().label() for spec in wire["constraints"]]


def test_portfolio_answers_are_anytime():
    wire = _wire("portfolio", epsilon=0.5)
    wire["deadline_s"] = 0.5
    expected = {"status": "ok", "distance": 2.0, "objective": 2.0}
    base = {"status": "ok", "feasible": True, "method": "portfolio", "deviation": 0.0}
    assert oracle.check(wire, {"status": "deadline", "feasible": False}, expected) == []
    assert oracle.check(wire, dict(base, distance_value=3.0), expected) == []
    assert "beats the proven optimum" in oracle.check(wire, dict(base, distance_value=1.0), expected)[0]
    proven = dict(base, distance_value=3.0, race={"proven_optimal": True})
    assert oracle.check(wire, proven, expected)[0].startswith("proven distance")
    wrong = {"status": "infeasible", "feasible": False}
    assert oracle.check(wire, wrong, expected)[0].startswith("status")


def _honest(request) -> dict:
    """An answer that agrees with the frozen oracle (no solve needed)."""
    frozen = _frozen("milp_solve", request)
    return {
        "status": frozen["status"],
        "feasible": frozen["status"] == "ok",
        "method": request.method,
        "deviation": 0.0,
        "objective_value": frozen["objective"],
        "distance_value": frozen["distance"],
    }


def test_only_expected_failures_keep_a_run_correct():
    import run

    workload = WORKLOADS["milp_solve"]
    known = oracle.expected_failures("milp_solve")
    listed = [r for r in workload.problems() if oracle.problem_key(r.to_dict()) in known]
    other = next(
        r
        for r in workload.problems()
        if r.method == "milp+opt"
        and oracle.problem_key(r.to_dict()) not in known
        and _frozen("milp_solve", r)["status"] == "ok"
    )
    assert len(listed) == 2

    def outcome(request, answer=None, error=None):
        return run.Outcome(0, request, 0.0, 1.0, answer=answer, error=error)

    wrong_status = dict(_honest(listed[0]), status="infeasible", feasible=False)
    defect = outcome(listed[0], wrong_status)
    assert run.check_outcomes(workload, [outcome(other, _honest(other)), defect]) == (True, 0)
    assert defect.failures and defect.failures[0].startswith("status")

    doctored = _honest(other)
    doctored["objective_value"] += 1.0
    assert run.check_outcomes(workload, [outcome(other, doctored)]) == (False, 0)
    raised = outcome(other, error="DeadlineExceeded: deadline of 10s exceeded")
    assert run.check_outcomes(workload, [raised]) == (False, 0)
