"""Benchmark-suite configuration.

Each benchmark runs its workload exactly once: the measured quantity is a
full refinement search, not a micro operation, so repetition would multiply
the suite's runtime without improving the signal the paper's figures report.
"""

from __future__ import annotations

from benchmarks.support import bench_scale


def pytest_report_header(config):
    return f"repro benchmark scale: {bench_scale()} (set REPRO_BENCH_SCALE=paper for full size)"
