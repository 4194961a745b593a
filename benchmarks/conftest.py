"""Shared bench infrastructure.

Every bench reproduces one table or figure of the paper at full scale
(trace length controlled by ``REPRO_TRACE_BRANCHES``, default 400K branches
per benchmark), prints the paper-style result table, records it under
``results/``, and asserts the paper's qualitative findings — who wins, by
roughly what factor, where the crossovers fall.  Absolute misp/KI values
differ from the paper's (different traces), and the assertions are written
with tolerances that reflect that.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

__all__ = ["emit", "emit_json", "current_commit", "run_once"]


def emit(text: str, name: str) -> None:
    """Print a result table and persist it under results/."""
    print()
    print(text)
    try:
        from repro.experiments.common import results_dir
        (results_dir() / f"{name}.txt").write_text(text + "\n")
    except OSError:
        pass


def current_commit() -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=Path(__file__).resolve().parent,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def emit_json(payload: dict, name: str) -> None:
    """Persist a machine-readable benchmark record under results/.

    Each record is stamped with the producing commit and the machine's CPU
    count so successive runs form a perf trajectory that tooling can diff
    across revisions (and discount across machines).
    """
    record = {"commit": current_commit(), "cpu_count": os.cpu_count(),
              **payload}
    print()
    print(f"{name}: {json.dumps(record, sort_keys=True)}")
    try:
        from repro.experiments.common import results_dir
        (results_dir() / f"{name}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are minutes-long simulations; one timed round is the
    honest measurement (pytest-benchmark's default calibration would re-run
    them dozens of times).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
