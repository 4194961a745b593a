"""Integration tests: the plane fabric + work-stealing scheduler under
``sweep_parallel`` (determinism, materialize-once, cleanup)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.history.providers import ev8_info_provider
from repro.obs import Telemetry, use_telemetry
from repro.sim import planes, scheduler
from repro.sim.sweep import sweep, sweep_parallel
from repro.traces.model import Trace
from repro.workloads.spec95 import spec95_trace

from tests_support_sweep import history_predictor


def fresh_traces(branches: int = 2_500) -> dict[str, Trace]:
    """Distinct trace objects per call, so every test starts with cold
    WeakKey materialization caches and publishes fresh planes."""
    out = {}
    for name in ("gcc", "compress"):
        trace = spec95_trace(name, branches)
        out[name] = Trace(trace.name, trace.starts.copy(),
                          trace.num_instructions.copy(), trace.kinds.copy(),
                          trace.takens.copy(), trace.next_starts.copy())
    return out


@pytest.fixture(autouse=True)
def fabric_teardown():
    yield
    planes.release_attachments()
    planes.release_plane_store()


class TestDeterminism:
    def test_parallel_points_bit_identical_to_serial(self):
        traces = fresh_traces()
        values = [4, 6, 8, 10]
        serial = sweep(history_predictor, values, traces, ev8_info_provider,
                       engine="batched", use_cache=False)
        parallel = sweep_parallel(history_predictor, values, fresh_traces(),
                                  ev8_info_provider, engine="batched",
                                  max_workers=2, use_cache=False)
        assert [p.value for p in parallel] == [p.value for p in serial]
        assert [p.per_benchmark for p in parallel] \
            == [p.per_benchmark for p in serial]
        assert [p.mean_misp_per_ki for p in parallel] \
            == [p.mean_misp_per_ki for p in serial]

    def test_merged_telemetry_counters_identical_to_serial(self):
        values = [4, 7]
        serial_sink, parallel_sink = Telemetry(), Telemetry()
        sweep(history_predictor, values, fresh_traces(), ev8_info_provider,
              engine="batched", use_cache=False, telemetry=serial_sink)
        sweep_parallel(history_predictor, values, fresh_traces(),
                       ev8_info_provider, engine="batched", max_workers=2,
                       use_cache=False, telemetry=parallel_sink)
        assert serial_sink.counters == parallel_sink.counters
        serial_spans = {name: stats["count"]
                        for name, stats in serial_sink.spans.items()}
        parallel_spans = {name: stats["count"]
                          for name, stats in parallel_sink.spans.items()}
        assert serial_spans == parallel_spans

    def test_released_store_never_serves_a_later_sweep(self):
        """Two sweeps over different traces with the same name and length,
        with the plane store released in between: the persistent workers
        must attach the second sweep's planes, not their cached copies of
        the first sweep's (segment names are never reused)."""
        def same_shape(source: str) -> dict[str, Trace]:
            trace = spec95_trace(source, 2_500)
            cut = slice(0, 4_000)
            return {"gcc": Trace("gcc", trace.starts[cut].copy(),
                                 trace.num_instructions[cut].copy(),
                                 trace.kinds[cut].copy(),
                                 trace.takens[cut].copy(),
                                 trace.next_starts[cut].copy())}

        values = [4, 6]
        for source in ("gcc", "compress"):
            serial = sweep(history_predictor, values, same_shape(source),
                           ev8_info_provider, engine="batched",
                           use_cache=False)
            parallel = sweep_parallel(history_predictor, values,
                                      same_shape(source), ev8_info_provider,
                                      engine="batched", max_workers=2,
                                      use_cache=False)
            assert [p.per_benchmark for p in parallel] \
                == [p.per_benchmark for p in serial], source
            planes.release_plane_store()

    def test_work_stealing_chunks_preserve_order(self):
        pool = scheduler.SweepScheduler(max_workers=3)
        payloads = list(range(23))
        chunks = pool.chunk_payloads(payloads)
        assert [x for chunk in chunks for x in chunk] == payloads
        assert len(chunks) > 3  # finer than one-chunk-per-worker


class TestMaterializeOnce:
    def test_each_trace_materialized_exactly_once_process_wide(self):
        """The acceptance criterion: a 3-point sweep over fresh traces
        computes each trace's planes once — in the publisher — and every
        worker unit adopts them (zero worker-side recomputes)."""
        traces = fresh_traces()
        sink = Telemetry()
        with use_telemetry(sink):
            sweep_parallel(history_predictor, [4, 6, 8], traces,
                           ev8_info_provider, engine="batched",
                           max_workers=2, use_cache=False, telemetry=sink)
        assert sink.counters["provider.materialize_computed"] == len(traces)
        assert sink.counters["planes.trace_published"] == len(traces)
        assert sink.counters["planes.batch_published"] == len(traces)


class TestFallbacks:
    def test_unpicklable_factory_falls_back_to_serial(self):
        traces = fresh_traces()
        expected = sweep(history_predictor, [4, 6], traces,
                         ev8_info_provider, engine="batched", use_cache=False)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            actual = sweep_parallel(lambda h: history_predictor(h), [4, 6],
                                    traces, ev8_info_provider,
                                    engine="batched", max_workers=2,
                                    use_cache=False)
        assert [p.per_benchmark for p in actual] \
            == [p.per_benchmark for p in expected]

    def test_single_worker_short_circuits_to_serial(self):
        traces = fresh_traces()
        points = sweep_parallel(history_predictor, [5], traces,
                                ev8_info_provider, engine="batched",
                                max_workers=1, use_cache=False)
        assert len(points) == 1 and set(points[0].per_benchmark) == set(traces)


class TestPersistentScheduler:
    def test_pool_survives_across_sweeps(self):
        scheduler.shutdown_schedulers()  # force a cold pool for the count
        sink = Telemetry()
        with use_telemetry(sink):
            for _ in range(2):
                sweep_parallel(history_predictor, [4, 6], fresh_traces(),
                               ev8_info_provider, engine="batched",
                               max_workers=2, use_cache=False)
        assert sink.counters["scheduler.runs"] == 2
        assert sink.counters["scheduler.pools_started"] == 1

    def test_get_scheduler_memoizes_per_key(self):
        try:
            a = scheduler.get_scheduler(2)
            b = scheduler.get_scheduler(2)
            c = scheduler.get_scheduler(3)
            assert a is b and a is not c
        finally:
            scheduler.shutdown_schedulers()

    def test_shutdown_allows_restart(self):
        pool = scheduler.SweepScheduler(max_workers=2)
        try:
            assert pool.run(abs, [-1, -2]) == [1, 2]
            pool.shutdown()
            assert pool.run(abs, [-3]) == [3]
        finally:
            pool.shutdown()

    def test_default_start_method_is_platform_explicit(self):
        method = scheduler.default_start_method()
        if sys.platform in ("win32", "darwin"):
            assert method == "spawn"
        else:
            assert method == "fork"


_SIGINT_SCRIPT = """
import signal, sys, time
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from repro.history.providers import ev8_info_provider
from repro.sim.sweep import sweep_parallel
from repro.workloads.spec95 import spec95_trace
from tests_support_sweep import history_predictor

traces = {{n: spec95_trace(n, 60_000) for n in ("gcc", "compress", "go")}}
print("READY", flush=True)
sweep_parallel(history_predictor, list(range(2, 26)), traces,
               ev8_info_provider, engine="batched", max_workers=2,
               use_cache=False)
print("DONE", flush=True)
"""


@pytest.mark.slow
class TestSignalCleanup:
    def test_sigint_mid_sweep_leaves_no_segments(self, tmp_path):
        """Interrupting a sweep must not leak /dev/shm segments: the
        chained SIGINT handler (and the atexit fallback) release the plane
        store before the process dies."""
        shm = Path("/dev/shm")
        if not shm.is_dir():
            pytest.skip("no /dev/shm on this platform")
        repo = Path(__file__).resolve().parent.parent
        script = _SIGINT_SCRIPT.format(src=str(repo / "src"),
                                       tests=str(repo / "tests"))
        process = subprocess.Popen([sys.executable, "-c", script],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True,
                                   cwd=tmp_path)
        try:
            assert process.stdout.readline().strip() == "READY"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                mine = [p for p in shm.iterdir()
                        if p.name.startswith(
                            f"{planes.SEGMENT_PREFIX}-{process.pid}-")]
                if mine:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep never published a plane segment")
            process.send_signal(signal.SIGINT)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode != 0  # it really was interrupted
        leaked = [p.name for p in shm.iterdir()
                  if p.name.startswith(
                      f"{planes.SEGMENT_PREFIX}-{process.pid}-")]
        assert not leaked, f"leaked shared-memory segments: {leaked}"
