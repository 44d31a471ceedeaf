"""Environment pinning and the fingerprint every benchmark record carries."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: Variables that change what the program does (fault injection, debug lock
#: proxies, backend and lazy-generation switches, executor selection, default
#: worker count).  A benchmark run measures the defaults, so they are removed
#: before the program is imported.
PINNED_VARIABLES = (
    "REPRO_DEBUG_LOCKS",
    "REPRO_MILP_BACKEND",
    "REPRO_MILP_LAZY",
    "REPRO_EXECUTOR_BACKEND",
    "REPRO_EXECUTOR_DB",
    "REPRO_SOLVER_JOBS",
)
PINNED_PREFIXES = ("REPRO_FAULT_",)


def pin(environ: dict = os.environ) -> list[str]:
    """Remove every pinned variable from ``environ``; returns the names removed."""
    removed = sorted(
        name
        for name in environ
        if name in PINNED_VARIABLES or name.startswith(PINNED_PREFIXES)
    )
    for name in removed:
        del environ[name]
    return removed


def _git(root: Path, *args: str) -> str | None:
    try:
        completed = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def source_digest(root: Path) -> str:
    """sha256 over ``src/`` (paths and bytes), which also works outside git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: Path, seed: int, removed: list[str]) -> dict:
    """Code version, machine and library versions of one run."""
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    top = _git(root, "rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == root.resolve()
    sha = _git(root, "rev-parse", "HEAD") if in_git else None
    dirty = None
    if in_git:
        status = _git(root, "status", "--porcelain", "--", "src")
        dirty = bool(status) if status is not None else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": (
            f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
            f"{highs.HIGHS_VERSION_PATCH}"
        ),
        "seed": seed,
        "cleared_environment": removed,
    }
