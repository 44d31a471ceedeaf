"""Frozen oracle answers and the checker every benchmark answer goes through.

Generate (slow; solves every catalogue problem without a deadline)::

    python3 perfbench/oracle.py --workload milp_solve

For each problem the generator solves the MILP twice, with the eager
lowering (``lazy_generation=False``) and with the default lazy loop, each
within :data:`ORACLE_TIME_LIMIT_S`.  It refuses to freeze an answer unless
both objectives agree, or, when only one lowering proves its answer in
time, unless the other's incumbent is no better than that optimum; the
answer records which lowerings proved it.  Where the
refinement space is small enough to exhaust (meps, tpch) it also requires
the MILP distance to equal the ``naive+prov`` distance.  It then freezes
status, objective and distance in ``oracles/<workload>.json``.

The checker (:func:`check`) compares one answer with the frozen one.  A
request with no frozen answer only gets the oracle-free checks (typed
status, deviation within epsilon), and the run reports how many answers
were checked that way.

An oracle file may also list ``expected_failures``: problems the program is
known to get wrong (key and reason).  They still count as failed requests,
but only a failure of some other problem makes a run incorrect.  The
generator keeps the list when it regenerates the answers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORACLE_DIR = HERE / "oracles"

#: Relative tolerance on objectives and distances.
TOLERANCE = 1e-6

TYPED_STATUSES = {"ok", "infeasible", "timeout", "deadline"}

#: Datasets whose refinement spaces ``naive+prov`` exhausts quickly.
EXHAUSTIBLE = ("meps", "tpch")

#: Budget of one oracle MILP solve; a problem neither lowering proves within
#: it cannot be part of a workload.
ORACLE_TIME_LIMIT_S = 300.0


def problem_key(request_dict: dict) -> str:
    return json.dumps(request_dict, sort_keys=True)


def _document(workload: str) -> dict:
    path = ORACLE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def load(workload: str) -> dict[str, dict]:
    """Frozen answers by :func:`problem_key`."""
    return _document(workload).get("answers", {})


def expected_failures(workload: str) -> dict[str, str]:
    """Known defects: problem key -> why the program fails it."""
    return _document(workload).get("expected_failures", {})


def _close(value: float | None, expected: float | None) -> bool:
    if value is None or expected is None:
        return value is expected
    return abs(value - expected) <= TOLERANCE * max(1.0, abs(expected))


def _deviation(request: dict, counts: dict) -> float | None:
    """Mean relative shortfall of the request's constraints, from the counts."""
    from repro.service.engine import ConstraintSpec

    total = 0.0
    for spec in request["constraints"]:
        constraint = ConstraintSpec.from_dict(spec).to_constraint()
        label = constraint.label()
        if label not in counts:
            return None
        total += constraint.shortfall(counts[label]) / constraint.denominator()
    return total / len(request["constraints"])


def oracle_free_failures(request: dict, answer: dict) -> list[str]:
    """Checks that need no frozen answer."""
    status = answer.get("status")
    if status not in TYPED_STATUSES:
        return [f"untyped status {status!r}"]
    if answer.get("feasible") != (status == "ok"):
        return [f"feasible={answer.get('feasible')} with status {status!r}"]
    if status != "ok":
        return []
    if answer.get("method") == "erica":
        return [] if answer.get("refinement") else ["erica answer without a refinement"]
    deviation = answer.get("deviation")
    if deviation is None or deviation > request["epsilon"] + 1e-9:
        return [f"deviation {deviation} above epsilon {request['epsilon']}"]
    counts = answer.get("constraint_counts") or {}
    if counts:
        recomputed = _deviation(request, counts)
        if recomputed is None or abs(recomputed - deviation) > 1e-9:
            return [f"deviation {deviation} disagrees with the counts ({recomputed})"]
    return []


def check(request: dict, answer: dict, expected: dict | None) -> list[str]:
    """Reasons ``answer`` fails (empty when it passes).

    ``answer`` is a response dict; ``expected`` the frozen oracle entry or
    ``None``.  Portfolio answers are anytime: a typed ``deadline`` passes,
    but a returned refinement must verify and must not beat the optimum.
    """
    failures = oracle_free_failures(request, answer)
    if failures or expected is None:
        return failures
    status = answer["status"]
    if request["method"] == "portfolio":
        if status == "deadline":
            return []
        if status != expected["status"]:
            return [f"status {status!r}, oracle {expected['status']!r}"]
        distance, best = answer.get("distance_value"), expected.get("distance")
        if status == "ok" and distance < best - TOLERANCE * max(1.0, abs(best)):
            return [f"distance {distance} beats the proven optimum {best}"]
        proven = (answer.get("race") or {}).get("proven_optimal")
        if status == "ok" and proven and not _close(distance, best):
            return [f"proven distance {distance}, oracle {best}"]
        return []
    if status != expected["status"]:
        return [f"status {status!r}, oracle {expected['status']!r}"]
    if status != "ok":
        return []
    if request["method"] in ("milp", "milp+opt"):
        if not _close(answer.get("objective_value"), expected["objective"]):
            return [
                f"objective {answer.get('objective_value')}, oracle {expected['objective']}"
            ]
    elif not _close(answer.get("distance_value"), expected["distance"]):
        return [f"distance {answer.get('distance_value')}, oracle {expected['distance']}"]
    return []


# -- generation ---------------------------------------------------------------------


def _solve_milp(session, request, lazy: bool | None):
    from repro.core.solver import RefinementSolver

    solver = RefinementSolver(
        session.database,
        session.query,
        request.constraint_set(),
        epsilon=request.epsilon,
        distance=request.distance,
        method=request.method if request.method != "portfolio" else "milp+opt",
        executor=session.executor,
        annotated=session.annotated(),
        lazy_generation=lazy,
        time_limit=ORACLE_TIME_LIMIT_S,
    )
    return solver.solve()


def _answer_milp(session, request) -> dict:
    results = {
        "lazy": _solve_milp(session, request, None),
        "eager": _solve_milp(session, request, False),
    }
    proven = {
        name: result
        for name, result in results.items()
        if result.solution_status in ("optimal", "infeasible")
    }
    if not proven:
        raise AssertionError(
            f"neither lowering proven within {ORACLE_TIME_LIMIT_S:g}s: {request.to_json()}"
        )
    reference = next(iter(proven.values()))
    for name, result in results.items():
        if name in proven:
            agrees = result.feasible == reference.feasible and _close(
                result.objective_value, reference.objective_value
            )
        else:
            # An unproven incumbent may be worse than the optimum, never better.
            agrees = not result.feasible or (
                reference.feasible
                and result.objective_value >= reference.objective_value - TOLERANCE
            )
        if not agrees:
            raise AssertionError(
                f"eager and lazy disagree on {request.to_json()}: "
                + ", ".join(f"{n} {r.solution_status} {r.objective_value}" for n, r in results.items())
            )
    answer = {
        "status": "ok" if reference.feasible else "infeasible",
        "objective": reference.objective_value,
        "distance": reference.distance_value,
        "proven_by": sorted(proven),
    }
    if request.dataset in EXHAUSTIBLE:
        exhaustive = _answer_exhaustive(session, request, "naive+prov", None)
        if exhaustive.get("exhausted") and not (
            exhaustive["status"] == answer["status"]
            and _close(exhaustive["distance"], answer["distance"])
        ):
            raise AssertionError(
                f"MILP and naive+prov disagree on {request.to_json()}: "
                f"{answer} vs {exhaustive}"
            )
        answer["naive_prov_checked"] = bool(exhaustive.get("exhausted"))
    return answer


def _answer_exhaustive(session, request, method: str, max_candidates) -> dict:
    from repro.core.naive import NaiveProvenanceSearch, NaiveSearch

    search_class = NaiveProvenanceSearch if method == "naive+prov" else NaiveSearch
    kwargs = {}
    if search_class is NaiveProvenanceSearch:
        kwargs["mask_data"] = session.mask_data()
    result = search_class(
        session.database,
        session.query,
        request.constraint_set(),
        epsilon=request.epsilon,
        distance=request.distance,
        max_candidates=max_candidates,
        jobs=1,
        executor=session.executor,
        annotated=session.annotated(),
        **kwargs,
    ).search()
    return {
        "status": "ok" if result.feasible else "infeasible",
        "distance": result.distance_value,
        "exhausted": result.exhausted,
    }


def _answer_erica(session, request) -> dict:
    from repro.core.erica import EricaBaseline

    result = EricaBaseline(
        session.database,
        session.query,
        request.constraint_set(),
        executor=session.executor,
        annotated=session.annotated(),
    ).solve()
    best = result.best
    return {
        "status": "ok" if best is not None else "infeasible",
        "distance": None if best is None else best.distance_value,
    }


def generate(workload_name: str) -> dict:
    from repro.service.session import SessionPool
    from workloads import DATASET_PARAMETERS, WORKLOADS

    workload = WORKLOADS[workload_name]
    pool = SessionPool(capacity=8)
    answers: dict[str, dict] = {}
    for request in workload.problems():
        key = problem_key(request.to_dict())
        if key in answers:
            continue
        session = pool.get(request.dataset, DATASET_PARAMETERS[request.dataset], warm=True)
        started = time.perf_counter()
        if request.method in ("milp", "milp+opt", "portfolio"):
            answer = _answer_milp(session, request)
        elif request.method == "erica":
            answer = _answer_erica(session, request)
        else:
            answer = _answer_exhaustive(
                session, request, request.method, request.max_candidates
            )
            answer.pop("exhausted")
        answer["solve_s"] = round(time.perf_counter() - started, 3)
        answers[key] = answer
        print(f"{answer['solve_s']:8.3f}s {answer['status']:10} {key}", flush=True)
    return answers


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)
    known = expected_failures(args.workload)
    answers = generate(args.workload)
    document = {"workload": args.workload, "answers": answers}
    if known:
        document["expected_failures"] = {key: known[key] for key in known if key in answers}
    ORACLE_DIR.mkdir(exist_ok=True)
    path = ORACLE_DIR / f"{args.workload}.json"
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(answers)} answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
