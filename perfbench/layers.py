"""Per-layer metrics of a traced run, and what each one should move.

Each entry of :data:`LAYER_METRICS` names a metric, its unit, which
direction is better, how it is computed from the spans of
:mod:`tracing`, and the end-to-end metric (on which workload) a change to
that layer should move.  Unless a definition says otherwise, per-request
figures divide by every request the run completed.
"""

from __future__ import annotations

import statistics

#: name -> (unit, better, definition, end-to-end metric it should move)
LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    "datasets.load_s": ("s", "lower", "load_dataset time during set-up", "setup_s on every workload"),
    "provenance.annotate_s": ("s", "lower", "annotate time (session warm-up and solvers)", "setup_s on every workload"),
    "relational.evaluate_s": ("s/req", "lower", "QueryExecutor.evaluate and evaluate_unfiltered time", "latency_p50_s on exhaustive_sweep"),
    "relational.evaluate_calls": ("1/req", "lower", "QueryExecutor.evaluate and evaluate_unfiltered calls", "latency_p50_s on exhaustive_sweep"),
    "service.engine_s": ("s/req", "lower", "RefinementEngine.refine time", "requests_per_s and latency_p50_s on service_mixed"),
    "service.http_overhead_s": ("s/req", "lower", "client latency minus RefinementEngine.refine time", "requests_per_s and latency_p50_s on service_mixed"),
    "service.admission_wait_s": ("s/req", "lower", "time to enter AdmissionController.admit", "latency_p50_s on service_mixed"),
    "service.session_get_s": ("s/req", "lower", "SessionPool.get time", "latency_p50_s on service_mixed"),
    "service.serialize_s": ("s/req", "lower", "RefineResponse.to_dict time", "latency_p50_s on service_mixed"),
    "service.prepared_hit_frac": ("ratio", "higher", "DatasetSession.prepared_milp calls that skip their factory", "requests_per_s on service_mixed"),
    "service.coalesced_frac": ("ratio", "higher", "coalesced requests (coalescer statistics) per request", "requests_per_s on service_mixed"),
    "solver.prepare_s": ("s/req", "lower", "RefinementSolver.prepare time", "latency_p50_s on milp_solve"),
    "solver.solve_self_s": ("s/req", "lower", "RefinementSolver.solve minus its timed children", "latency_p50_s on milp_solve"),
    "optimizations.prune_s": ("s/req", "lower", "apply_relevancy_pruning time", "latency_p50_s on milp_solve"),
    "builder.build_s": ("s/req", "lower", "MILPBuilder.build time", "latency_p50_s on milp_solve"),
    "builder.builds_per_request": ("1/prepare", "lower", "MILPBuilder.build calls per RefinementSolver.prepare", "latency_p50_s on milp_solve"),
    "cutloop.requests_frac": ("ratio", "lower", "RefinementSolver.solve calls that ran run_cut_loop", "requests_per_s on milp_solve"),
    "cutloop.rounds": ("1/loop", "lower", "cut rounds per run_cut_loop call", "requests_per_s and deadline_overrun_s on milp_solve"),
    "cutloop.rows_generated_frac": ("ratio", "lower", "rows generated per lazy pool row", "requests_per_s on milp_solve"),
    "cutloop.self_s": ("s/req", "lower", "run_cut_loop minus its timed children", "requests_per_s and failed_frac on milp_solve"),
    "milp.lower_s": ("s/req", "lower", "Model.to_standard_form time", "requests_per_s on milp_solve"),
    "milp.full_lowerings": ("1/req", "lower", "full lowerings of a model", "requests_per_s on milp_solve"),
    "milp.incremental_extensions": ("1/req", "lower", "incremental extensions of a lowered model", "requests_per_s on milp_solve"),
    "milp.backend_solve_s": ("s/req", "lower", "Model.solve minus lowering", "requests_per_s on milp_solve, latency_p90_s on service_mixed"),
    "milp.backend_solves_per_request": ("1/req", "lower", "Model.solve calls", "requests_per_s and deadline_overrun_s on milp_solve"),
    "milp.time_limit_stops": ("1/req", "lower", "Model.solve calls that stopped on their time limit", "deadline_overrun_s and failed_frac on milp_solve"),
    "erica.solve_s": ("s/req", "lower", "EricaBaseline.solve time", "latency_p50_s on milp_solve"),
    "naive.prepare_s": ("s/req", "lower", "NaiveResult.setup_seconds", "latency_p50_s on exhaustive_sweep"),
    "naive.sweep_s": ("s/req", "lower", "NaiveResult.search_seconds", "latency_p50_s and latency_p90_s on exhaustive_sweep"),
    "naive.candidates_per_s": ("1/s", "higher", "candidates examined per search second of jobs=1 searches", "latency_p50_s on exhaustive_sweep"),
    "naive.exhausted_frac": ("ratio", "higher", "searches that exhausted their space", "latency_p50_s on exhaustive_sweep"),
    "parallel.search_s": ("s/search", "lower", "NaiveResult.search_seconds of jobs=2 searches", "latency_p90_s on exhaustive_sweep"),
    "portfolio.race_s": ("s/race", "lower", "PortfolioSolver.solve time", "deadline_overrun_s on service_mixed"),
    "portfolio.overrun_s": ("s/race", "lower", "PortfolioSolver.solve time beyond its deadline budget", "deadline_overrun_s on service_mixed"),
    "portfolio.proven_frac": ("ratio", "higher", "races that ended on a proof", "deadline_overrun_s on service_mixed"),
    "trace.requests_per_s": ("req/s", "higher", "requests_per_s of the traced run (tracing overhead against --trace 0)", "none: measures the tracer"),
    "trace.top_span_coverage": ("ratio", "higher", "median share of client latency covered by the engine (in process) or handler (HTTP) span", "none: measures the tracer"),
}


def _outer(tracer, names: set[str], since: float = float("-inf")):
    """Spans named in ``names``, started at ``since`` or later, that have no
    ancestor named in ``names``."""
    spans = tracer.spans
    for record in spans:
        if record.name not in names or record.start < since:
            continue
        parent = record.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            yield record


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def builds_per_prepare(tracer, since: float) -> dict[int, int]:
    """How many RefinementSolver.prepare calls from ``since`` on ran
    MILPBuilder.build once, twice, ..."""
    children = tracer.children()
    histogram: dict[int, int] = {}
    for index, record in enumerate(tracer.spans):
        if record.name == "solver.prepare" and record.start >= since:
            builds = sum(
                1 for child in children.get(index, ()) if tracer.spans[child].name == "builder.build"
            )
            histogram[builds] = histogram.get(builds, 0) + 1
    return dict(sorted(histogram.items()))


def per_layer(tracer, outcomes, stats: dict) -> dict[str, tuple[float, str]]:
    """Every metric of :data:`LAYER_METRICS` from one traced run.

    Set-up spans (before the first request) count only towards the two
    set-up layers, ``datasets.load_s`` and ``provenance.annotate_s``.
    """
    n = len(outcomes)
    since = min(outcome.started for outcome in outcomes)
    self_times = tracer.self_times()

    def total(*names: str) -> float:
        return sum(record.duration for record in _outer(tracer, set(names), since))

    def count(*names: str) -> int:
        return sum(1 for _ in _outer(tracer, set(names), since))

    def self_total(name: str) -> float:
        return sum(
            self_times[index]
            for index, record in enumerate(tracer.spans)
            if record.name == name and record.start >= since
        )

    def named(name: str) -> list:
        return [record for record in tracer.named(name) if record.start >= since]

    searches = named("naive.search")
    serial = [s for s in searches if s.attrs.get("jobs") == 1]
    sharded = [s for s in searches if s.attrs.get("jobs", 1) > 1]
    loops = named("cutloop.run")
    races = named("portfolio.race")
    prepared = named("service.prepared")
    lowerings = named("milp.lower")
    client_latency = sum(outcome.latency for outcome in outcomes)

    # The top-level span of a request: the server's handler over HTTP, the
    # engine call directly under the client's span in process.
    by_request = {}
    for record in tracer.spans:
        if record.name == "service.handler" or (
            record.name == "service.engine"
            and record.parent >= 0
            and tracer.spans[record.parent].name == "client.request"
        ):
            by_request[record.request] = record.duration
    coverage = [
        by_request[f"r{outcome.index}"] / outcome.latency
        for outcome in outcomes
        if f"r{outcome.index}" in by_request and outcome.latency > 0
    ]
    wall = max(o.finished for o in outcomes) - min(o.started for o in outcomes)
    coalesced = stats.get("coalescer", {}).get("coalesced", 0)

    values = {
        "datasets.load_s": sum(r.duration for r in _outer(tracer, {"datasets.load"})),
        "provenance.annotate_s": sum(
            r.duration for r in _outer(tracer, {"provenance.annotate"})
        ),
        "relational.evaluate_s": total("relational.evaluate") / n,
        "relational.evaluate_calls": count("relational.evaluate") / n,
        "service.engine_s": total("service.engine") / n,
        "service.http_overhead_s": (client_latency - total("service.engine")) / n,
        "service.admission_wait_s": total("service.admission_wait") / n,
        "service.session_get_s": total("service.session_get") / n,
        "service.serialize_s": total("service.serialize") / n,
        "service.prepared_hit_frac": _ratio(sum(s.attrs["hit"] for s in prepared), len(prepared)),
        "service.coalesced_frac": coalesced / n,
        "solver.prepare_s": total("solver.prepare") / n,
        "solver.solve_self_s": self_total("solver.solve") / n,
        "optimizations.prune_s": total("optimizations.prune") / n,
        "builder.build_s": total("builder.build") / n,
        "builder.builds_per_request": _ratio(count("builder.build"), count("solver.prepare")),
        "cutloop.requests_frac": _ratio(len(loops), count("solver.solve")),
        "cutloop.rounds": _ratio(sum(s.attrs["rounds"] for s in loops), len(loops)),
        "cutloop.rows_generated_frac": _ratio(
            sum(s.attrs["rows_generated"] for s in loops),
            sum(s.attrs["pool_rows"] for s in loops),
        ),
        "cutloop.self_s": self_total("cutloop.run") / n,
        "milp.lower_s": total("milp.lower") / n,
        "milp.full_lowerings": sum(s.attrs["full"] for s in lowerings) / n,
        "milp.incremental_extensions": sum(s.attrs["extended"] for s in lowerings) / n,
        "milp.backend_solve_s": self_total("milp.solve") / n,
        "milp.backend_solves_per_request": count("milp.solve") / n,
        "milp.time_limit_stops": sum(s.attrs["time_limit"] for s in named("milp.solve")) / n,
        "erica.solve_s": total("erica.solve") / n,
        "naive.prepare_s": sum(s.attrs["setup_s"] for s in searches) / n,
        "naive.sweep_s": sum(s.attrs["search_s"] for s in searches) / n,
        "naive.candidates_per_s": _ratio(
            sum(s.attrs["candidates"] for s in serial), sum(s.attrs["search_s"] for s in serial)
        ),
        "naive.exhausted_frac": _ratio(sum(s.attrs["exhausted"] for s in searches), len(searches)),
        "parallel.search_s": _ratio(sum(s.attrs["search_s"] for s in sharded), len(sharded)),
        "portfolio.race_s": _ratio(sum(s.duration for s in races), len(races)),
        "portfolio.overrun_s": _ratio(
            sum(max(0.0, s.duration - s.attrs["deadline"]) for s in races), len(races)
        ),
        "portfolio.proven_frac": _ratio(sum(s.attrs["proven"] for s in races), len(races)),
        "trace.requests_per_s": n / wall,
        "trace.top_span_coverage": statistics.median(coverage) if coverage else 0.0,
    }
    return {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}
