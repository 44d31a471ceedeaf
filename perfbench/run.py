"""Run one benchmark workload against the refinement engine and print its metrics.

    python3 perfbench/run.py --workload milp_solve --seed 1 --seconds 15 --trace 0

The run sets up warm dataset sessions, sends the workload's seeded request
list through the public API (``RefinementEngine.refine`` in process, or HTTP
against an in-process ``RefinementServer``), checks every answer against the
frozen oracle and prints one line per metric, then one JSON object as the
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the same list with spans around every layer and reports the per-layer
metrics.  Records (and, when traced, spans) are written under
``perfbench/out/``.

Requests are sent in blocks of fixed composition.  A run starts another
block only while the previous block's duration still fits in ``--seconds``;
the first block always runs in full.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: When this process began; a process's set-up time is measured from here.
STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Processes timed from start to ready (the run's own and fresh ones);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: No request starts later than this after the first one, whatever the block
#: rule says, so that a run always exits well within its time limit.
HARD_STOP_S = 110.0

#: How long the run waits for threads the program started to end.
THREAD_SETTLE_S = 20.0


def bootstrap() -> list[str]:
    """Pin the environment and make ``src/`` and this directory importable."""
    sys.path.insert(0, str(HERE))
    import environment

    removed = environment.pin()
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    return removed


# -- set-up ----------------------------------------------------------------------------


class Harness:
    """Warm sessions, the engine and (for HTTP workloads) a listening server."""

    def __init__(self, workload) -> None:
        from repro.service.engine import RefinementEngine
        from repro.service.server import RefinementServer
        from repro.service.session import SessionPool
        from workloads import DATASET_PARAMETERS, Cell

        self.pool = SessionPool(capacity=len(workload.datasets) + 1)
        self.engine = RefinementEngine(self.pool)
        for dataset in workload.datasets:
            self.pool.get(dataset, DATASET_PARAMETERS[dataset], warm=True)
        # A throwaway solve outside every catalogue (k=5) pays the backend's
        # first-call cost before the clock starts.
        warmup = Cell(workload.datasets[0], "milp+opt", "pred", 5).request(((0,), 0.5))
        self.engine.refine(warmup)
        self.server = None
        if workload.transport == "http":
            self.server = RefinementServer(port=0, engine=self.engine).start()
            _http_json(self.server.port, "GET", "/health")

    def stats(self) -> dict:
        if self.server is not None:
            return _http_json(self.server.port, "GET", "/stats")
        return {
            "coalescer": {
                "started": self.engine.coalescer.started,
                "coalesced": self.engine.coalescer.coalesced,
            }
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        else:
            self.pool.close()


def _http_json(port: int, method: str, path: str) -> dict:
    import http.client

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return json.loads(response.read())
    finally:
        connection.close()


def measure_setup(workload_name: str) -> list[float]:
    """Set-up seconds of fresh benchmark processes, each timed by itself.

    Together with the run's own set-up they make :data:`SETUP_SAMPLES`.
    """
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload_name, "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            output, _ = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        words = output.split()
        if child.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise SystemExit(f"set-up process failed (exit {child.returncode}, said {output!r})")
        times.append(float(words[1]))
    return times


# -- the closed loop -------------------------------------------------------------------


@dataclass
class Outcome:
    index: int
    request: object
    started: float
    finished: float
    answer: dict | None = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.finished - self.started


class InProcessClient:
    def __init__(self, harness: Harness) -> None:
        self.engine = harness.engine

    def send(self, request, request_id: str) -> tuple[dict | None, str | None]:
        from repro.exceptions import ReproError

        try:
            response = self.engine.refine(request)
        except ReproError as error:
            return None, f"{type(error).__name__}: {error}"
        except Exception as error:  # an untyped raise is a failed request
            return None, f"untyped {type(error).__name__}: {error}"
        return dict(response.canonical_dict(), race=response.race), None

    def close(self) -> None:
        pass


class HttpClient:
    """One keep-alive connection to the server."""

    def __init__(self, harness: Harness) -> None:
        self.port = harness.server.port
        self.connection = None

    def send(self, request, request_id: str) -> tuple[dict | None, str | None]:
        import http.client

        body = request.to_json().encode()
        headers = {"Content-Type": "application/json", "X-Perfbench-Request": request_id}
        try:
            if self.connection is None:
                self.connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            self.connection.request("POST", "/refine", body=body, headers=headers)
            response = self.connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return None, f"connection error {type(error).__name__}: {error}"
        if response.status != 200:
            return None, f"HTTP {response.status}: {data[:200].decode(errors='replace')}"
        return json.loads(data), None

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


class ClosedLoop:
    """``clients`` callers that each wait for a reply before sending again."""

    def __init__(self, workload, seed: int, seconds: float, max_requests: int | None) -> None:
        self.blocks = workload.iter_blocks(seed)
        self.seconds = seconds
        self.max_requests = max_requests
        self.queue: deque = deque()
        self.lock = threading.Lock()
        self.outcomes: list[Outcome] = []
        self.blocks_started = 0
        self.stopped = False
        self.started = 0.0
        self.block_started = 0.0
        self.sent = 0

    def _next(self):
        with self.lock:
            now = time.perf_counter()
            if now - self.started > HARD_STOP_S or self.sent == self.max_requests:
                self.stopped = True
            if not self.queue and not self.stopped:
                last_block = now - self.block_started
                if self.blocks_started and now - self.started + last_block > self.seconds:
                    self.stopped = True
                else:
                    self.queue.extend(next(self.blocks))
                    self.blocks_started += 1
                    self.block_started = now
            if self.stopped or not self.queue:
                return None
            self.sent += 1
            return self.sent - 1, self.queue.popleft()

    def _client(self, client, tracer) -> None:
        try:
            while (item := self._next()) is not None:
                index, request = item
                request_id = f"r{index}"
                if tracer is None:
                    started = time.perf_counter()
                    answer, error = client.send(request, request_id)
                    finished = time.perf_counter()
                else:
                    with tracer.request(request_id), tracer.span("client.request") as span:
                        answer, error = client.send(request, request_id)
                    started, finished = span.start, span.end
                with self.lock:
                    self.outcomes.append(Outcome(index, request, started, finished, answer, error))
        finally:
            client.close()

    def run(self, clients: list, tracer=None) -> list[Outcome]:
        self.started = self.block_started = time.perf_counter()
        if len(clients) == 1:
            self._client(clients[0], tracer)
        else:
            threads = [
                threading.Thread(target=self._client, args=(client, tracer), daemon=True)
                for client in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return sorted(self.outcomes, key=lambda outcome: outcome.index)


# -- metrics ---------------------------------------------------------------------------


def end_to_end(outcomes: list[Outcome], setup_times: list[float]) -> dict:
    latencies = [outcome.latency for outcome in outcomes]
    p90 = latencies[0]
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    wall = max(o.finished for o in outcomes) - min(o.started for o in outcomes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "requests_per_s": (len(outcomes) / wall, "req/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def service_levels(outcomes: list[Outcome]) -> dict:
    """``failed_frac`` and ``deadline_overrun_s``: printed, not gated (they can be 0)."""
    deadlined = [o for o in outcomes if o.request.deadline_s is not None]
    overrun = (
        sum(max(0.0, o.latency - o.request.deadline_s) for o in deadlined) / len(deadlined)
        if deadlined
        else 0.0
    )
    return {
        "failed_frac": (sum(1 for o in outcomes if o.failures) / len(outcomes), "ratio"),
        "deadline_overrun_s": (overrun, "s"),
    }


# -- main ------------------------------------------------------------------------------


def check_outcomes(workload, outcomes: list[Outcome]) -> tuple[bool, int]:
    """Fill ``failures``; returns (run correct, answers without an oracle).

    A run is correct when every answer is well-formed and no request fails
    except the oracle's expected failures (known defects, counted in
    ``failed`` all the same).
    """
    import oracle

    expected = oracle.load(workload.name)
    known = oracle.expected_failures(workload.name)
    correct = True
    unchecked = 0
    for outcome in outcomes:
        request = outcome.request.to_dict()
        key = oracle.problem_key(request)
        if outcome.error is not None:
            outcome.failures = [outcome.error]
        else:
            answer = expected.get(key)
            unchecked += answer is None
            if oracle.oracle_free_failures(request, outcome.answer):
                correct = False
            outcome.failures = oracle.check(request, outcome.answer, answer)
        if outcome.failures and key not in known:
            correct = False
    return correct, unchecked


def describe(request) -> str:
    text = f"{request.dataset}/{request.method}/{request.distance}/k{request.constraints[0].k}"
    text += f"/c{len(request.constraints)}/e{request.epsilon:g}"
    if request.jobs and request.jobs > 1:
        text += f"/j{request.jobs}"
    if request.deadline_s is not None:
        text += f"/d{request.deadline_s:g}"
    return text


def main(argv: list[str] | None = None) -> int:
    removed = bootstrap()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--max-requests", type=int, default=None, help="stop after this many (for tests)"
    )
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    import environment
    import layers
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        Harness(workload)
        print(f"ready {time.perf_counter() - STARTED!r}", flush=True)
        # The process started no other process and wrote no file, so it ends
        # here instead of spending the measuring parent's time on a shutdown.
        os._exit(0)

    tracer = tracing.Tracer() if args.trace else None
    with tracing.install_layer_spans(tracer) if tracer is not None else nullcontext():
        harness = Harness(workload)
        setup_times = [] if args.trace else [time.perf_counter() - STARTED]
        try:
            if not args.trace:
                setup_times += measure_setup(workload.name)
            client_class = HttpClient if workload.transport == "http" else InProcessClient
            loop = ClosedLoop(workload, args.seed, args.seconds, args.max_requests)
            outcomes = loop.run([client_class(harness) for _ in range(workload.clients)], tracer)
            stats = harness.stats()
        finally:
            harness.close()
    # Portfolio engines may still be parking after their race returned; let
    # them end before the interpreter tears their native solves down.
    settle_by = time.perf_counter() + THREAD_SETTLE_S
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=max(0.0, settle_by - time.perf_counter()))

    correct, unchecked = check_outcomes(workload, outcomes)
    failed = sum(1 for outcome in outcomes if outcome.failures)
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": environment.fingerprint(ROOT, args.seed, removed),
        "blocks": loop.blocks_started,
        "requests": [
            {
                "request": describe(o.request),
                "latency_s": o.latency,
                "status": (o.answer or {}).get("status"),
                "failures": o.failures,
            }
            for o in outcomes
        ],
    }
    print(
        f"workload {workload.name}: {len(outcomes)} requests in {loop.blocks_started} "
        f"block(s), {workload.clients} client(s), {workload.transport}, seed {args.seed}"
    )
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    if unchecked:
        print(f"oracle: {unchecked} answers had no frozen answer; only oracle-free checks applied")
    else:
        print("oracle: every answer checked against the frozen oracle")
    for outcome in outcomes:
        if outcome.failures:
            print(
                f"failed {describe(outcome.request)} after {outcome.latency:.2f}s: "
                f"{'; '.join(outcome.failures)}"
            )

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = end_to_end(outcomes, setup_times)
        levels = service_levels(outcomes)
        record["setup_samples_s"] = setup_times
        for name, (value, unit) in {**metrics, **levels}.items():
            print(f"metric {name} {value:.6g} {unit}")
    else:
        untraced = OUT_DIR / f"{workload.name}-seed{args.seed}-trace0.json"
        metrics = layers.per_layer(tracer, outcomes, stats)
        if untraced.exists():
            with open(untraced) as handle:
                before = json.load(handle)["metrics"]["requests_per_s"]["value"]
            traced = metrics["trace.requests_per_s"][0]
            record["tracing_overhead_requests_per_s"] = before - traced
            print(
                f"tracing overhead: {before - traced:.4g} req/s "
                f"(untraced run of this seed {before:.4g}, traced {traced:.4g})"
            )
        histogram = layers.builds_per_prepare(tracer, loop.started)
        record["builds_per_prepare"] = histogram
        print(f"builder builds per prepared problem (builds: problems): {histogram}")
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
        with open(f"{stem}-spans.json", "w") as handle:
            json.dump(tracer.to_dict(), handle)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["failed"] = failed
    with open(f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
