"""In-memory spans around the calls into each layer's public functions.

The program under test carries no tracing of its own, so the benchmark
patches wrappers onto the public entry points of each layer
(:func:`install_layer_spans`) and removes them when the returned stack
closes.  A span records its name, start, end, parent (a per-context stack)
and request id; spans stay in memory until the run writes them out.  A
span's self time is its duration minus the part of it that its child spans
cover.

Spans opened on threads the program starts itself (portfolio engine
threads) have no parent and no request id; they still count towards their
layer's busy time.  Work done in worker processes (``jobs=2`` sweeps) is not
seen here; its layers report it from the result objects instead.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator
from unittest.mock import patch


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int
    request: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; safe to use from several threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
            f"perfbench-stack-{id(self)}", default=()
        )
        self._request: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            f"perfbench-request-{id(self)}", default=None
        )

    @contextmanager
    def request(self, request_id: str | None) -> Iterator[None]:
        """Tag every span opened inside the block with ``request_id``."""
        token = self._request.set(request_id)
        try:
            yield
        finally:
            self._request.reset(token)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack.get()
        record = Span(
            name=name,
            start=self.clock(),
            end=0.0,
            parent=stack[-1] if stack else -1,
            request=self._request.get(),
            attrs=dict(attrs),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        token = self._stack.set(stack + (index,))
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.reset(token)

    # -- analysis ---------------------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record.parent >= 0:
                out[record.parent].append(index)
        return out

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = self.children()
        out = []
        for index, record in enumerate(self.spans):
            covered = 0.0
            cursor = record.start
            for start, end in sorted(
                (self.spans[child].start, self.spans[child].end)
                for child in children.get(index, ())
            ):
                start = max(start, cursor, record.start)
                end = min(end, record.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out.append(record.duration - covered)
        return out

    def named(self, name: str) -> list[Span]:
        return [record for record in self.spans if record.name == name]

    def to_dict(self) -> dict:
        return {"spans": [record.to_dict() for record in self.spans]}


def timed(tracer: Tracer, name: str, function: Callable, after: Callable | None = None):
    """``function`` wrapped in a span; ``after(span, result, args)`` may annotate it."""

    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = function(*args, **kwargs)
            if after is not None:
                after(record, result, args)
            return result

    return wrapper


def install_layer_spans(tracer: Tracer) -> ExitStack:
    """Wrap the public entry point of every layer; closing the stack unwraps them."""
    with ExitStack() as patches:
        _install(tracer, patches)
        # Installed in full: hand the stack to the caller instead of undoing it.
        return patches.pop_all()


def _install(tracer: Tracer, patches: ExitStack) -> None:
    from repro.core import erica, naive, portfolio, solver
    from repro.core.milp_builder import MILPBuilder
    from repro.milp.model import Model
    from repro.milp.solution import SolveStatus
    from repro.relational.executor import QueryExecutor
    from repro.service import engine, server, session
    from repro.service.admission import AdmissionController

    def replace(owner, attribute, value):
        patches.enter_context(patch.object(owner, attribute, value))

    def wrap(owner, attribute, name, after=None):
        replace(owner, attribute, timed(tracer, name, getattr(owner, attribute), after))

    # datasets / provenance: looked up by name in the modules that call them.
    wrap(session, "load_dataset", "datasets.load")
    wrap(session, "annotate", "provenance.annotate")
    wrap(solver, "annotate", "provenance.annotate")

    # relational
    wrap(QueryExecutor, "evaluate", "relational.evaluate")
    wrap(QueryExecutor, "evaluate_unfiltered", "relational.evaluate")

    # service
    wrap(engine.RefinementEngine, "refine", "service.engine")
    wrap(session.SessionPool, "get", "service.session_get")
    wrap(engine.RefineResponse, "to_dict", "service.serialize")

    original_prepared = session.DatasetSession.prepared_milp

    def prepared_milp(self, key, factory):
        with tracer.span("service.prepared", hit=True) as record:

            def tracked_factory():
                record.attrs["hit"] = False
                return factory()

            return original_prepared(self, key, tracked_factory)

    replace(session.DatasetSession, "prepared_milp", prepared_milp)

    original_admit = AdmissionController.admit

    @contextmanager
    def admit(self, deadline=None):
        manager = original_admit(self, deadline)
        with tracer.span("service.admission_wait"):
            manager.__enter__()
        try:
            yield
        finally:
            manager.__exit__(*sys.exc_info())

    replace(AdmissionController, "admit", admit)

    original_post = server._Handler.do_POST

    def do_post(self):
        request_id = self.headers.get("X-Perfbench-Request")
        with tracer.request(request_id), tracer.span("service.handler"):
            return original_post(self)

    replace(server._Handler, "do_POST", do_post)

    # core.solver / optimizations / milp_builder / lazy_generation
    wrap(solver.RefinementSolver, "prepare", "solver.prepare")
    wrap(solver.RefinementSolver, "solve", "solver.solve")
    wrap(solver, "apply_relevancy_pruning", "optimizations.prune")
    wrap(MILPBuilder, "build", "builder.build")

    def cut_loop_done(record, outcome, args):
        pools = args[1]
        record.attrs["rounds"] = outcome.rounds
        record.attrs["rows_generated"] = outcome.rows_generated
        record.attrs["pool_rows"] = sum(len(pool) for pool in pools)

    wrap(solver, "run_cut_loop", "cutloop.run", cut_loop_done)

    # milp
    original_lower = Model.to_standard_form

    def to_standard_form(self):
        full, extended = self.full_lowerings, self.incremental_extensions
        with tracer.span("milp.lower") as record:
            form = original_lower(self)
            record.attrs["full"] = self.full_lowerings - full
            record.attrs["extended"] = self.incremental_extensions - extended
        return form

    replace(Model, "to_standard_form", to_standard_form)

    def solve_done(record, solution, args):
        record.attrs["time_limit"] = solution.status is SolveStatus.TIME_LIMIT

    wrap(Model, "solve", "milp.solve", solve_done)

    # erica / naive / parallel / portfolio
    wrap(erica.EricaBaseline, "solve", "erica.solve")

    def search_done(record, result, args):
        record.attrs.update(
            setup_s=result.setup_seconds,
            search_s=result.search_seconds,
            candidates=result.candidates_examined,
            exhausted=result.exhausted,
            jobs=args[0].jobs,
        )

    wrap(naive._BaseExhaustiveSearch, "search", "naive.search", search_done)

    def race_done(record, result, args):
        record.attrs.update(
            deadline=args[0].deadline,
            proven=result.proven_optimal or result.status == "infeasible",
        )

    wrap(portfolio.PortfolioSolver, "solve", "portfolio.race", race_done)
