"""Span bookkeeping and self-time arithmetic on fake call trees."""

import threading

import layers
from tracing import Span, Tracer, install_layer_spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.request("r0"), tracer.span("solver.solve"):
        clock.now = 1.0
        with tracer.span("milp.solve"):
            clock.now = 2.0
            with tracer.span("milp.lower"):
                clock.now = 2.5
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("relational.evaluate"):
            clock.now = 7.5
        clock.now = 10.0
    solve, backend, lower, evaluate = tracer.spans
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert {s.request for s in tracer.spans} == {"r0"}
    assert tracer.self_times() == [10.0 - 4.0 - 1.5, 4.0 - 0.5, 0.5, 1.5]
    assert solve.duration == 10.0 and backend.duration == 4.0


def test_overlapping_children_count_once():
    # Siblings overlap when two threads run under copies of one context.
    tracer = Tracer()
    tracer.spans = [
        Span("parent", 0.0, 10.0, -1, None),
        Span("child", 0.0, 3.0, 0, None),
        Span("child", 1.0, 4.0, 0, None),
    ]
    # children cover [0, 3] and [1, 4]: their union is 4 seconds.
    assert tracer.self_times() == [6.0, 3.0, 3.0]


def test_spans_on_other_threads_are_roots():
    tracer = Tracer()

    def work():
        with tracer.span("engine.thread"):
            pass

    with tracer.request("r1"), tracer.span("client.request"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    inner = tracer.named("engine.thread")[0]
    assert inner.parent == -1 and inner.request is None


def test_outer_skips_nested_spans_of_the_same_layer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("relational.evaluate"):
        clock.now = 1.0
        with tracer.span("relational.evaluate"):
            clock.now = 2.0
        clock.now = 3.0
    with tracer.span("relational.evaluate"):
        clock.now = 4.0
    outer = list(layers._outer(tracer, {"relational.evaluate"}))
    assert [s.duration for s in outer] == [3.0, 1.0]


def test_layer_spans_unwrap_when_the_stack_closes():
    from repro.milp.model import Model
    from repro.service import session

    originals = (Model.solve, session.load_dataset)
    tracer = Tracer()
    with install_layer_spans(tracer):
        assert (Model.solve, session.load_dataset) != originals
        session.load_dataset("students")
    assert (Model.solve, session.load_dataset) == originals
    assert [s.name for s in tracer.spans] == ["datasets.load"]
