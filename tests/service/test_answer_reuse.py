"""A proven MILP answer is served again without a backend solve.

Once a backend proves a problem optimal or infeasible, the session keeps the
answer on the problem's prepared MILP; a repeat of the same problem for the
same backend is answered from it.  Everything a backend did *not* prove — a
time-limited incumbent, a time-out, a degraded fallback — solves again.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro import faults
from repro.core.solver import lazy_generation_default
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.service import ConstraintSpec, RefinementEngine, RefineRequest
from repro.service.session import DatasetSession

CONSTRAINTS = (
    ConstraintSpec("at_least", 3, 6, (("Gender", "F"),)),
    ConstraintSpec("at_most", 1, 3, (("Income", "High"),)),
)

INFEASIBLE = (
    ConstraintSpec("at_least", 6, 6, (("Gender", "F"),)),
    ConstraintSpec("at_least", 6, 6, (("Gender", "M"),)),
)


def students_request(**overrides) -> RefineRequest:
    defaults = dict(
        dataset="students", constraints=CONSTRAINTS, epsilon=0.0, backend="scipy"
    )
    defaults.update(overrides)
    return RefineRequest(**defaults)


def reused(engine: RefinementEngine) -> int:
    return sum(
        session["answers_reused"]
        for session in engine.sessions.describe()["sessions"]
    )


@pytest.fixture
def solves(monkeypatch):
    """Statuses of every backend solve (each one goes through Model.solve)."""
    statuses: list[SolveStatus] = []
    real = Model.solve

    def counting(self, *args, **kwargs):
        solution = real(self, *args, **kwargs)
        statuses.append(solution.status)
        return solution

    monkeypatch.setattr(Model, "solve", counting)
    return statuses


class TestReuse:
    def test_repeat_runs_no_solve_and_answers_the_same_bytes(self, solves):
        engine = RefinementEngine()
        first = engine.refine(students_request())
        assert first.status == "ok" and solves
        count = len(solves)
        second = engine.refine(students_request())
        assert len(solves) == count
        assert second.canonical_json() == first.canonical_json()
        assert second.timings["solve_seconds"] == 0.0
        assert reused(engine) == 1

    def test_solve_time_knobs_share_the_proof(self, solves):
        engine = RefinementEngine()
        first = engine.refine(students_request())
        count = len(solves)
        second = engine.refine(students_request(time_limit=30.0, deadline_s=30.0))
        assert len(solves) == count
        assert second.request.time_limit == 30.0
        first_answer, second_answer = first.canonical_dict(), second.canonical_dict()
        del first_answer["request"], second_answer["request"]
        assert second_answer == first_answer

    def test_cut_loop_statistics_match_a_one_shot_run(self, solves):
        # law_students MILP+OPT Kendall k=10 runs the cut loop; a warm
        # re-solve used to report 0 rounds on the model the first solve grew.
        request = RefineRequest(
            dataset="law_students",
            constraints=(ConstraintSpec("at_least", 5, 10, (("Sex", "M"),)),),
            dataset_parameters=(("num_rows", 1_500),),
            epsilon=0.0,
            distance="kendall",
            method="milp+opt",
        )
        engine = RefinementEngine()
        first = engine.refine(request)
        count = len(solves)
        second = engine.refine(request)
        assert len(solves) == count
        if lazy_generation_default():
            assert first.statistics["cut_rounds"] > 0
        one_shot = RefinementEngine().refine(request)
        assert second.canonical_json() == first.canonical_json()
        assert second.canonical_json() == one_shot.canonical_json()

    def test_proven_infeasible_is_reused(self, solves):
        engine = RefinementEngine()
        request = students_request(constraints=INFEASIBLE)
        first = engine.refine(request)
        assert first.status == "infeasible"
        count = len(solves)
        second = engine.refine(request)
        assert len(solves) == count
        assert second.canonical_json() == first.canonical_json()

    def test_another_backend_solves_again(self, solves):
        engine = RefinementEngine()
        engine.refine(students_request(backend="scipy"))
        count = len(solves)
        other = engine.refine(students_request(backend="branch_and_bound"))
        assert other.status == "ok"
        assert len(solves) > count
        count = len(solves)
        engine.refine(students_request(backend="branch_and_bound"))
        assert len(solves) == count

    def test_evicting_the_prepared_model_drops_the_answer(self, solves, monkeypatch):
        monkeypatch.setattr(DatasetSession, "MILP_CACHE_SIZE", 1)
        engine = RefinementEngine()
        engine.refine(students_request())
        engine.refine(students_request(epsilon=0.5))  # evicts the first model
        count = len(solves)
        engine.refine(students_request())
        assert len(solves) > count
        assert reused(engine) == 0

    def test_concurrent_repeats_after_completion_are_byte_identical(self, solves):
        engine = RefinementEngine()
        first = engine.refine(students_request()).canonical_json()
        count = len(solves)
        answers: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def repeat() -> None:
            barrier.wait()
            answer = engine.refine(students_request()).canonical_json()
            with lock:
                answers.append(answer)

        threads = [threading.Thread(target=repeat) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [first] * 8
        assert len(solves) == count
        # Each repeat either led a computation (answered from the proof) or
        # joined one: a lost counter update breaks the sum.
        assert reused(engine) + engine.coalescer.coalesced == 8


class TestNoReuse:
    def test_time_limited_incumbent_is_not_reused(self, solves, monkeypatch):
        real = Model.solve  # the counting wrapper

        def time_limited(self, *args, **kwargs):
            return replace(real(self, *args, **kwargs), status=SolveStatus.TIME_LIMIT)

        monkeypatch.setattr(Model, "solve", time_limited)
        engine = RefinementEngine()
        first = engine.refine(students_request())
        assert first.status == "ok" and first.feasible
        count = len(solves)
        engine.refine(students_request())
        assert len(solves) > count
        assert reused(engine) == 0

    def test_timeout_is_not_reused(self, solves, monkeypatch):
        real = Model.solve

        def out_of_time(self, *args, **kwargs):
            real(self, *args, **kwargs)
            return Solution(status=SolveStatus.TIME_LIMIT)

        monkeypatch.setattr(Model, "solve", out_of_time)
        engine = RefinementEngine()
        first = engine.refine(students_request())
        assert first.status == "timeout" and not first.feasible
        count = len(solves)
        engine.refine(students_request())
        assert len(solves) > count
        assert reused(engine) == 0

    def test_degraded_answer_is_not_reused(self, solves):
        engine = RefinementEngine()
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setenv("REPRO_FAULT_BACKEND_RAISE", "1.0")
            faults.refresh()
            try:
                first = engine.refine(students_request(time_limit=30.0))
            finally:
                patcher.undo()
                faults.refresh()
        assert first.statistics["degraded"]["from"] == "milp+opt"
        count = len(solves)
        second = engine.refine(students_request(time_limit=30.0))
        assert "degraded" not in second.statistics
        assert second.engine == "milp" and len(solves) > count
        assert reused(engine) == 0
