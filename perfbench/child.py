"""One measured invocation of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once for the set-ups and once per timed sample,
with an environment whose ``REPRO_*`` variables point at that run's own
cache directories.  It writes one JSON document to ``--out``:

``setup``   generate the workload's traces into empty trace caches.
``report``  ``python -m repro.experiments.runall`` with its defaults (batched
            engine, result cache on); ``--oracle`` runs the scalar engine
            with the cache off instead.
``sweep``   the 12-point Table 1 design sweep through ``sweep_parallel``
            with 2 workers and the result cache off; ``--oracle`` runs the
            serial sweep on the scalar engine instead.

With ``--trace`` every layer's public calls are wrapped (``tracer.py``)
before the workload starts, and the span summary is written with the
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import warnings
from pathlib import Path

import workload_specs as specs
import tracer as tracing


def _setup(args, branches: int, kind: str) -> dict:
    """Generate the workload's traces ``--repeat`` times, each into a fresh
    empty trace cache; the last one is ``REPRO_TRACE_CACHE``, which the
    timed samples then read."""
    from repro.traces.io import TraceCache
    from repro.workloads.spec95 import spec95_trace
    final = Path(os.environ["REPRO_TRACE_CACHE"])
    seconds = []
    for index in range(args.repeat, 0, -1):
        directory = final if index == 1 else final.with_name(
            f"{final.name}-{index}")
        cache = TraceCache(directory)
        started = time.perf_counter()
        for name in specs.benchmark_names(kind):
            spec95_trace(name, branches, cache=cache)
        seconds.append(time.perf_counter() - started)
    return {"seconds": seconds}


def _report(args, branches: int) -> dict:
    from repro.experiments import runall
    output = Path(args.out).with_suffix(".md")
    argv = ["--branches", str(branches), "--output", str(output)]
    if args.oracle:
        argv += ["--engine", "scalar", "--no-cache"]
    started = time.perf_counter()
    runall.main(argv)
    wall = time.perf_counter() - started
    results_dir = Path(os.environ["REPRO_RESULTS_DIR"])
    results = {path.stem: json.loads(path.read_text())
               for path in results_dir.glob("*.json")}
    return {
        "wall_s": wall,
        "report": specs.strip_timing_lines(output.read_text()),
        "cells": specs.report_cells(results),
        "engines": specs.report_engines(results),
    }


def _serial_units(traces, telemetry: bool) -> list[dict[str, float]]:
    """The sweep's ``(point, trace)`` units run one after another in this
    process, each exactly as a pool worker runs it once the planes are
    attached: fresh predictor and provider, result cache off, and a
    unit-local recording sink on the telemetry workload."""
    from contextlib import nullcontext

    from repro.history.providers import ev8_info_provider
    from repro.obs import Telemetry, use_telemetry
    from repro.sim.driver import simulate
    points = []
    for value in specs.SWEEP_VALUES:
        per_benchmark = {}
        for name, trace in traces.items():
            sink = Telemetry() if telemetry else None
            with use_telemetry(sink) if sink is not None else nullcontext():
                result = simulate(specs.table1_predictor(value), trace,
                                  ev8_info_provider(), engine="batched",
                                  use_cache=False, telemetry=sink)
            per_benchmark[name] = result.misp_per_ki
        points.append(per_benchmark)
    return points


def _sweep(args, branches: int, telemetry: bool) -> dict:
    from repro.history.providers import ev8_info_provider
    from repro.obs import Telemetry
    from repro.sim import planes
    from repro.sim.sweep import sweep, sweep_parallel
    from repro.workloads.spec95 import spec95_trace
    traces = {name: spec95_trace(name, branches)
              for name in specs.SWEEP_TRACES}
    sink = Telemetry() if telemetry else None
    out: dict = {}
    if args.oracle:
        points = sweep(specs.table1_predictor, specs.SWEEP_VALUES,
                       traces, ev8_info_provider, engine="scalar",
                       use_cache=False, telemetry=sink)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = time.perf_counter()
            points = sweep_parallel(
                specs.table1_predictor, specs.SWEEP_VALUES, traces,
                ev8_info_provider, engine="batched",
                max_workers=specs.SWEEP_WORKERS, use_cache=False,
                telemetry=sink)
            out["wall_s"] = time.perf_counter() - started
        store = planes.get_plane_store()
        out["fallbacks"] = [
            str(warning.message) for warning in caught
            if issubclass(warning.category, RuntimeWarning)
            and "falling back to serial" in str(warning.message)]
        if not store.available or not store.segments:
            out["fallbacks"].append("PlaneStore unavailable: units were "
                                    "pickled instead of shared")
    out["values"] = [point.value for point in points]
    out["per_benchmark"] = [point.per_benchmark for point in points]
    if sink is not None:
        out["counters"] = dict(sink.counters)
    if args.trace:
        started = time.perf_counter()
        out["serial_per_benchmark"] = _serial_units(traces, telemetry)
        out["serial_s"] = time.perf_counter() - started
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("action", choices=("setup", "report", "sweep"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(specs.WORKLOADS))
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--repeat", type=int, default=1,
                        help="set-ups to time (setup only)")
    args = parser.parse_args()
    kind, branches, telemetry = specs.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    specs.apply_variant(args.variant)
    if args.action == "setup":
        out = _setup(args, branches, kind)
    elif args.action == "report":
        out = _report(args, branches)
    else:
        out = _sweep(args, branches, telemetry)
    if tracer is not None:
        out["layers"] = tracer.summary()
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
