"""Regenerate the reference outputs in ``reference/`` with the scalar engine,
the repository's oracle.

    python3 perfbench/make_reference.py

For every trace variant it writes:

``report-v<k>.json``          ``runall --engine scalar --no-cache``: the
                              rendered report without its timing lines and
                              every simulation result (misp/KI) it records;
``sweep-g1-v<k>.json``        the serial scalar sweep's ``per_benchmark``
                              (refused unless every design point's outputs
                              differ from every other point's, so that
                              points filed out of order cannot match);
``sweep-telemetry-v<k>.json`` the same at the telemetry workload's trace
                              length, plus the merged telemetry counters
                              (engine-identity counters removed).

Every benchmark run compares its outputs with these files for equality.
Running this takes about three minutes per variant on one core.
"""

from __future__ import annotations

import json
import os
import shutil

import workload_specs as specs
from run import REFERENCE_DIR, WORK_ROOT, Runner, become_subreaper, \
    model_counters


def make_reference(name: str, variant: int) -> dict:
    workload = "report-cold" if name == "report" else name
    kind = specs.WORKLOADS[workload][0]
    work = WORK_ROOT / f"reference-{name}-{variant}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work, workload, variant)
        out = runner.child(kind, work / "traces", oracle=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if kind == "report":
        return {"report": out["report"], "cells": out["cells"]}
    rows = {tuple(sorted(point.items())) for point in out["per_benchmark"]}
    if len(rows) != len(out["per_benchmark"]):
        raise SystemExit(f"{name} variant {variant}: two design points give "
                         f"the same outputs")
    reference = {"per_benchmark": out["per_benchmark"]}
    if "counters" in out:
        reference["counters"] = model_counters(out["counters"])
    return reference


def main() -> int:
    become_subreaper()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for variant in range(specs.VARIANTS):
        for name in ("report", "sweep-g1", "sweep-telemetry"):
            reference = make_reference(name, variant)
            path = REFERENCE_DIR / f"{name}-v{variant}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
