"""Request coalescing: identical in-flight requests share one computation.

A serving front end sees bursts of identical refine requests (the same
dashboard opened by many users, a retrying client).  Solving each copy is
pure waste — the problem is deterministic — so the coalescer keys every
computation by its canonical request key and lets late arrivals *join* the
in-flight leader instead of starting their own solve.  The coalescer keeps
nothing past completion: it only collapses concurrency.  A request arriving
after the leader finished is answered by the session layer instead — a MILP
problem a backend proved optimal or infeasible is served from the proof kept
on its prepared model (until that model is evicted), and everything else
(time-limited incumbents, time-outs, degraded fallbacks, exhaustive, Erica
and portfolio requests) computes afresh on the session's warm state.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable, TypeVar

from repro.analysis.debug_locks import guard_mapping
from repro.exceptions import DeadlineExceeded

T = TypeVar("T")


class _InFlight:
    """One leader computation plus the waiters that joined it."""

    __slots__ = ("done", "error", "result")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None


class RequestCoalescer:
    """Deduplicates concurrent computations by key.

    ``run(key, compute)`` either runs ``compute`` (the *leader* path) or, when
    another thread is already computing the same key, blocks until the leader
    finishes and returns its result.  A leader's exception propagates to every
    waiter (the same exception object — tracebacks point at the leader).

    Failure semantics: a raising leader removes the in-flight entry *before*
    waking the waiters (the ``finally`` below), so the key is never poisoned —
    the next request with the same key starts a fresh computation.  A waiter
    given a ``timeout`` (its own request deadline) that expires before the
    leader finishes raises the typed
    :class:`~repro.exceptions.DeadlineExceeded`; the leader and the other
    waiters are untouched.

    The counters make coalescing observable (and testable): ``started`` is
    the number of computations actually run, ``coalesced`` the number of
    requests that joined an in-flight one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, _InFlight] = guard_mapping(
            {}, self._lock, "RequestCoalescer._inflight"
        )
        self.started = 0
        self.coalesced = 0

    def run(
        self,
        key: Hashable,
        compute: Callable[[], T],
        timeout: float | None = None,
    ) -> T:
        with self._lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = _InFlight()
                self._inflight[key] = entry
                self.started += 1
                leader = True
            else:
                self.coalesced += 1
                leader = False
        if leader:
            try:
                entry.result = compute()
            except BaseException as error:
                entry.error = error
                raise
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                entry.done.set()
        else:
            if not entry.done.wait(timeout):
                raise DeadlineExceeded(
                    "request deadline expired while waiting on a coalesced "
                    "in-flight computation"
                )
            if entry.error is not None:
                raise entry.error
        return entry.result


__all__ = ["RequestCoalescer"]
