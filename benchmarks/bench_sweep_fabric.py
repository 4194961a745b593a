"""End-to-end sweep throughput: plane fabric + work-stealing scheduler.

The gate this PR ships under: a Table-1-sized EV8 history sweep (>= 12
points over 4 SPEC95 stand-in traces) through the new ``sweep_parallel`` —
shared-memory planes, persistent pool, ``(point, trace)`` work units, native
replay kernel — must beat an honest reproduction of the pre-fabric
orchestration (fresh default ``ProcessPoolExecutor``, whole-point tasks
that pickle every trace and re-materialize its information vectors in
every task, every replay position through the scalar reference
``_read``/``_train``) by **>= 3x end-to-end wall-clock**, while producing
**bit-identical** ``SweepPoint.per_benchmark`` values.  An ungated
``legacy_fast`` arm runs the same pre-fabric pool with the native replay
kernel, so the record also shows the fabric's own share.  A second, smaller
pass asserts the merged telemetry counters of a recording parallel sweep
are identical to the serial fold.

Results land in ``results/BENCH_sweep.json`` (commit-stamped, so successive
runs form a perf trajectory).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor

from conftest import emit, emit_json, run_once
from repro.ev8.config import EV8_CONFIG
from repro.ev8.predictor import EV8BranchPredictor
from repro.history.providers import ev8_info_provider
from repro.obs import Telemetry
from repro.predictors.twobcgskew import TableConfig
from repro.sim.sweep import _evaluate_point, sweep, sweep_parallel
from repro.traces.model import Trace
from repro.workloads.spec95 import default_trace_branches, spec95_trace

SWEEP_VALUES = list(range(10, 22))  # 12 points around Table 1's G1=21
SWEEP_TRACES = ("gcc", "go", "compress", "li")
MAX_WORKERS = 2


def _table1_config(g1_history: int):
    return dataclasses.replace(
        EV8_CONFIG, g1=TableConfig(64 * 1024, g1_history, 64 * 1024))


def table1_predictor(g1_history: int) -> EV8BranchPredictor:
    """The full Table 1 EV8 predictor with the G1 history length swept
    (the paper's Section 4.5 history-length exploration, at scale)."""
    return EV8BranchPredictor(config=_table1_config(g1_history))


class ReferenceReplayEV8(EV8BranchPredictor):
    """Table 1 EV8 whose batched replay runs every position through the
    scalar reference ``_read``/``_train`` instead of the native kernel: the
    pre-fabric replay kernel ran at least 97% of positions that way."""

    _replay_native = EV8BranchPredictor._replay_reference


def reference_replay_predictor(g1_history: int) -> ReferenceReplayEV8:
    return ReferenceReplayEV8(config=_table1_config(g1_history))


def _fresh_traces(branches: int) -> dict[str, Trace]:
    """Distinct trace objects per arm so neither arm inherits the other's
    materialization or manifest caches."""
    out = {}
    for name in SWEEP_TRACES:
        trace = spec95_trace(name, branches)
        out[name] = Trace(trace.name, trace.starts.copy(),
                          trace.num_instructions.copy(), trace.kinds.copy(),
                          trace.takens.copy(), trace.next_starts.copy())
    return out


def _legacy_sweep_parallel(make_predictor, values, traces):
    """The pre-fabric orchestration, reproduced: one fresh default-context
    pool per sweep, one whole-point task per value (each task receives a
    pickled copy of every trace and re-materializes each trace's planes)."""
    with ProcessPoolExecutor(max_workers=MAX_WORKERS) as pool:
        futures = [pool.submit(_evaluate_point, make_predictor, value,
                               traces, ev8_info_provider, "batched",
                               False, False)
                   for value in values]
        return [future.result()[0] for future in futures]


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def test_sweep_fabric_speedup(benchmark):
    branches = max(60_000, default_trace_branches() // 4)
    total_branches = len(SWEEP_VALUES) * len(SWEEP_TRACES) * branches

    def run():
        return {
            "legacy": _timed(_legacy_sweep_parallel,
                             reference_replay_predictor, SWEEP_VALUES,
                             _fresh_traces(branches)),
            "legacy_fast": _timed(_legacy_sweep_parallel, table1_predictor,
                                  SWEEP_VALUES, _fresh_traces(branches)),
            "fabric": _timed(sweep_parallel, table1_predictor, SWEEP_VALUES,
                             _fresh_traces(branches), ev8_info_provider,
                             engine="batched", max_workers=MAX_WORKERS,
                             use_cache=False),
        }

    arms = run_once(benchmark, run)
    seconds = {arm: elapsed for arm, (_, elapsed) in arms.items()}
    speedup = seconds["legacy"] / seconds["fabric"]
    fabric_share = seconds["legacy_fast"] / seconds["fabric"]

    lines = [f"Sweep fabric speedup: {len(SWEEP_VALUES)}-point Table 1 EV8 "
             f"G1-history sweep, {len(SWEEP_TRACES)} traces x {branches:,} "
             f"branches, {MAX_WORKERS} workers",
             f"{'arm':>12}{'seconds':>10}{'branches/s':>14}",
             "-" * 36]
    lines += [f"{arm:>12}{elapsed:>10.2f}{total_branches / elapsed:>14,.0f}"
              for arm, elapsed in seconds.items()]
    lines += ["-" * 36,
              f"speedup {speedup:.1f}x vs legacy (gate: >= 3x); "
              f"{fabric_share:.2f}x vs legacy_fast (fabric alone, ungated)"]
    emit("\n".join(lines), "bench_sweep_fabric")
    emit_json({
        "wall_s": seconds,
        "speedup": speedup,
        "fabric_speedup_vs_legacy_fast": fabric_share,
        "points": len(SWEEP_VALUES),
        "traces": len(SWEEP_TRACES),
        "branches_per_trace": branches,
        "branches_per_second": {arm: total_branches / elapsed
                                for arm, elapsed in seconds.items()},
    }, "BENCH_sweep")

    legacy = arms["legacy"][0]
    for arm in ("legacy_fast", "fabric"):
        points = arms[arm][0]
        assert [p.value for p in points] == [p.value for p in legacy]
        assert [p.per_benchmark for p in points] \
            == [p.per_benchmark for p in legacy], \
            f"{arm} sweep is not bit-identical to the legacy orchestration"
    assert speedup >= 3.0, (
        f"fabric sweep only {speedup:.2f}x faster "
        f"({seconds['legacy']:.2f}s vs {seconds['fabric']:.2f}s)")


def test_sweep_fabric_telemetry_counters_match_serial(benchmark):
    """Merged telemetry counters of a recording parallel sweep are
    identical to the serial fold (run at reduced scale: a recording sink
    routes every replay position through the scalar reference path, so
    this pass is about the fold contract, not throughput)."""
    branches = 20_000
    values = SWEEP_VALUES[:4]

    def run():
        serial_sink, parallel_sink = Telemetry(), Telemetry()
        serial = sweep(table1_predictor, values, _fresh_traces(branches),
                       ev8_info_provider, engine="batched", use_cache=False,
                       telemetry=serial_sink)
        parallel = sweep_parallel(table1_predictor, values,
                                  _fresh_traces(branches), ev8_info_provider,
                                  engine="batched", max_workers=MAX_WORKERS,
                                  use_cache=False, telemetry=parallel_sink)
        return serial, serial_sink, parallel, parallel_sink

    serial, serial_sink, parallel, parallel_sink = run_once(benchmark, run)
    assert [p.per_benchmark for p in parallel] \
        == [p.per_benchmark for p in serial]
    assert serial_sink.counters == parallel_sink.counters, \
        "parallel merged counters diverged from the serial fold"
