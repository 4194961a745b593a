"""Repository benchmark: the reproduction report and the Table 1 sweep,
measured end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 perfbench/run.py --workload report-cold --seed 1 --trace 0
    python3 perfbench/run.py              # every workload, end to end

Run from the root of a checkout.  Each run works in a fresh directory under
``.perfbench_work/`` and removes it at the end.  Every set-up and every
timed sample is its own interpreter (``child.py``) whose ``REPRO_*``
environment names only that run's cache directories, so no cache outlives
the run and no user setting changes what is measured.

End-to-end metrics are medians over the timed samples of one run; CPU time
and peak memory are the usage ``wait4`` reports as this process reaps each
child's whole process tree.  Every output is compared bit for bit
with the scalar-engine reference in ``reference/`` (``make_reference.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workload_specs as specs
from tracer import REPORT_SECTIONS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".perfbench_work"

SETUPS = 3
"""Set-ups per run; ``setup_s`` is their median."""
MIN_SAMPLES = 3
"""Timed samples per run at least, however long ``--seconds`` is."""
CHILD_TIMEOUT_S = 150
SHM_DIR = Path("/dev/shm")
PR_SET_CHILD_SUBREAPER = 36

_REPORT_LAYERS = (
    "workloads.generate", "traces.load", "traces.fetch_blocks",
    "sim.simulate", "sim.result_cache.key", "sim.result_cache.load",
    *(f"experiments.{section}" for section in REPORT_SECTIONS))
_SWEEP_LAYERS = (
    "workloads.generate", "traces.load", "history.materialize", "ev8.index",
    "predictors.replay", "sim.engine.batched", "sim.simulate",
    "sim.planes.publish", "sim.scheduler.run")
LAYERS_BY_WORKLOAD = {
    # Layers that must record at least one span in the traced run.
    "report-cold": _REPORT_LAYERS + (
        "history.materialize", "ev8.index", "indexing.index",
        "predictors.replay", "sim.engine.scalar", "sim.engine.batched",
        "sim.result_cache.store"),
    "report-warm": _REPORT_LAYERS,
    "sweep-g1": _SWEEP_LAYERS,
    "sweep-telemetry": _SWEEP_LAYERS + ("obs.merge",),
}


class ChildFailed(RuntimeError):
    """A child process exited non-zero or timed out."""


def become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers whose parent exited), so
    they are reaped here and their usage is counted."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init and their usage is not seen


@dataclass
class Usage:
    """CPU time and the largest peak resident set of reaped processes, as
    ``wait4`` reports them (each process's own usage plus that of the
    descendants it reaped itself)."""

    cpu_s: float = 0.0
    maxrss_kb: int = 0

    def add(self, rusage) -> None:
        self.cpu_s += rusage.ru_utime + rusage.ru_stime
        self.maxrss_kb = max(self.maxrss_kb, rusage.ru_maxrss)


def _reap_group(process: subprocess.Popen, timeout_s: float,
                usage: Usage, grace_s: float = 10.0) -> None:
    """Reap the child and every process of its process group (the pool
    workers it orphaned), adding each one's usage to ``usage``.  The group
    is killed if the child runs past ``timeout_s`` or stragglers outlive it
    by ``grace_s``; the child's exit code is set on ``process``."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while True:
                pid, status, rusage = os.wait4(-1, os.WNOHANG)
                if pid == 0:
                    break
                usage.add(rusage)
                if pid == process.pid:
                    process.returncode = os.waitstatus_to_exitcode(status)
                    deadline = min(deadline, time.monotonic() + grace_s)
        except ChildProcessError:
            pass
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            if process.returncode is not None:
                return
        if time.monotonic() > deadline:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)


def _leaked_segments(pid: int) -> list[str]:
    """Plane segments the child ``pid`` left in ``/dev/shm`` (removed here
    so that one leak is counted once)."""
    if not SHM_DIR.is_dir():
        return []
    leaked = sorted(path.name
                    for path in SHM_DIR.glob(f"repro-planes-{pid}-*"))
    for name in leaked:
        (SHM_DIR / name).unlink(missing_ok=True)
    return leaked


@dataclass
class Runner:
    """Starts children in one run's work directory."""

    work: Path
    workload: str
    variant: int
    _count: int = 0

    def child(self, action: str, trace_cache: Path,
              result_cache: Path | None = None, trace: bool = False,
              oracle: bool = False, repeat: int = 1) -> dict:
        """Run ``child.py action`` to completion; ``result_cache=None``
        gives the child a fresh empty result cache of its own."""
        self._count += 1
        sample = self.work / f"{self._count:03d}-{action}"
        result_cache = result_cache or sample / "result-cache"
        results = sample / "results"
        results.mkdir(parents=True)
        out = sample / "out.json"
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(SRC), REPRO_TRACE_CACHE=str(trace_cache),
                   REPRO_RESULT_CACHE_DIR=str(result_cache),
                   REPRO_RESULTS_DIR=str(results))
        argv = [sys.executable, str(BENCH_DIR / "child.py"), action,
                "--workload", self.workload, "--variant", str(self.variant),
                "--out", str(out)]
        argv += ["--trace"] * trace + ["--oracle"] * oracle
        argv += ["--repeat", str(repeat)]
        usage = Usage()
        with open(sample / "log.txt", "wb") as log:
            process = subprocess.Popen(argv, cwd=sample, env=env, stdout=log,
                                       stderr=subprocess.STDOUT,
                                       stdin=subprocess.DEVNULL,
                                       start_new_session=True)
            try:
                _reap_group(process, CHILD_TIMEOUT_S, usage)
            except BaseException:  # SIGTERM, Ctrl-C
                _reap_group(process, 0.0, usage)
                raise
        leaked = _leaked_segments(process.pid)
        if process.returncode != 0 or not out.exists():
            tail = (sample / "log.txt").read_text(errors="replace")[-2000:]
            raise ChildFailed(f"{action} exited with {process.returncode}:\n"
                              f"{tail}")
        result = json.loads(out.read_text())
        result["cpu_s"] = usage.cpu_s
        result["peak_rss_mb"] = usage.maxrss_kb / 1024
        result["leaked_segments"] = leaked
        return result


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str, operations: int = 1) -> bool:
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.notes.append(note)
        return ok


def _reference(kind: str, workload: str, variant: int) -> dict:
    name = "report" if kind == "report" else workload
    return json.loads((REFERENCE_DIR / f"{name}-v{variant}.json").read_text())


def model_counters(counters: dict) -> dict:
    return {key: value for key, value in counters.items()
            if key not in specs.ENGINE_IDENTITY_COUNTERS}


def _operations(kind: str, reference: dict) -> int:
    """Simulation results one sample produces: report cells or sweep
    units."""
    if kind == "report":
        return len(reference["cells"])
    return len(specs.SWEEP_VALUES) * len(specs.SWEEP_TRACES)


def _check_outputs(kind: str, out: dict, reference: dict, tally: Tally,
                   label: str) -> None:
    """Compare one sample's outputs with the scalar-oracle reference: one
    operation per simulation result (report cell or sweep unit)."""
    if kind == "report":
        cells = out["cells"]
        bad = [key for key, value in reference["cells"].items()
               if cells.get(key) != value]
        tally.attempted += len(reference["cells"])
        tally.failed += len(bad)
        if bad:
            tally.notes.append(f"{label}: {len(bad)} report cells differ, "
                               f"e.g. {bad[0]}")
        elif out["report"] != reference["report"]:
            tally.check(False, f"{label}: rendered report differs")
        return
    points = dict(zip(out["values"], out["per_benchmark"]))
    for value, want in zip(specs.SWEEP_VALUES, reference["per_benchmark"]):
        got = points.get(value, {})
        for name in want:
            tally.check(got.get(name) == want[name],
                        f"{label}: {specs.point_label(value)} {name} "
                        f"{got.get(name)} != {want[name]}")
    if "counters" in reference:
        tally.check(model_counters(out.get("counters", {}))
                    == reference["counters"],
                    f"{label}: merged telemetry counters differ")
    for fallback in out.get("fallbacks", []):
        tally.check(False, f"{label}: {fallback}")
    for segment in out["leaked_segments"]:
        tally.check(False, f"{label}: leaked /dev/shm/{segment}")


def _run_setups(runner: Runner, trace: bool) -> tuple[float, Path, Path, dict]:
    """``SETUPS`` set-ups into fresh caches; returns the median set-up time,
    the trace and result caches the timed samples use, and the set-up
    child's output.  On report-warm a set-up also fills a fresh result cache
    with the code under test (one cold ``runall``), and ``setup_s`` adds the
    median fill time; the last fill is the cache every timed sample hits."""
    trace_cache = runner.work / "traces"
    result_cache = runner.work / "results"
    out = runner.child("setup", trace_cache, result_cache, trace=trace,
                       repeat=SETUPS)
    setup_s = statistics.median(out["seconds"])
    if runner.workload == "report-warm":
        fills = [runner.child("report", trace_cache)
                 for _ in range(SETUPS - 1)]
        fills.append(runner.child("report", trace_cache, result_cache))
        setup_s += statistics.median(fill["wall_s"] for fill in fills)
    return setup_s, trace_cache, result_cache, out


def _sample(runner: Runner, kind: str, trace_cache: Path, result_cache: Path,
            trace: bool = False) -> dict:
    """One timed invocation; report-warm reuses the filled result cache,
    every other workload starts from an empty one."""
    if runner.workload != "report-warm":
        result_cache = None
    return runner.child(kind, trace_cache, result_cache, trace=trace)


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return (statistics.median(values),
            statistics.quantiles(values, n=10, method="inclusive")[8])


def _layer_metrics(layers: dict, setup_layers: dict, untraced_wall: float,
                   traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced sample; trace generation comes from
    the (traced) set-ups, per set-up."""
    def get(layer, key="self_s"):
        return layers.get(layer, {}).get(key, 0.0 if key == "self_s" else 0)

    generate = setup_layers.get("workloads.generate", {})
    batched_runs, fallbacks, scalar_runs = _engine_runs(layers)
    loads = layers.get("sim.result_cache.load", {}).get("outcomes", {})
    hits, misses = loads.get("hit", 0), loads.get("miss", 0)
    p50, p90 = _p50_p90(layers.get("sim.simulate", {}).get("durations", []))
    serial_s = traced.get("serial_s", 0.0)
    metrics = {
        "workloads.generate_s": (generate.get("self_s", 0.0) / SETUPS, "s"),
        "workloads.traces_generated": (generate.get("calls", 0) // SETUPS,
                                       "count"),
        "traces.load_s": (get("traces.load"), "s"),
        "traces.cache_lookups": (get("traces.load", "calls"), "count"),
        "traces.fetch_blocks_s": (get("traces.fetch_blocks"), "s"),
        "traces.fetch_block_builds": (get("traces.fetch_blocks", "calls"),
                                      "count"),
        "history.materialize_s": (get("history.materialize"), "s"),
        "history.materialize_calls": (get("history.materialize", "calls"),
                                      "count"),
        "ev8.index_s": (get("ev8.index"), "s"),
        "ev8.vectors_indexed": (get("ev8.index", "work"), "count"),
        "indexing.index_s": (get("indexing.index"), "s"),
        "predictors.replay_s": (get("predictors.replay"), "s"),
        "predictors.replay_branches": (get("predictors.replay", "work"),
                                       "count"),
        "sim.engine.scalar_s": (get("sim.engine.scalar"), "s"),
        "sim.engine.scalar_runs": (scalar_runs, "count"),
        "sim.engine.batched_s": (get("sim.engine.batched"), "s"),
        "sim.engine.batched_runs": (batched_runs, "count"),
        "sim.engine.batched_frac": (
            (batched_runs - fallbacks) / batched_runs if batched_runs else 0.0,
            "ratio"),
        "sim.simulate_p50_ms": (p50 * 1e3, "ms"),
        "sim.simulate_p90_ms": (p90 * 1e3, "ms"),
        "sim.result_cache.key_s": (get("sim.result_cache.key"), "s"),
        "sim.result_cache.key_calls": (get("sim.result_cache.key", "calls"),
                                       "count"),
        "sim.result_cache.load_s": (get("sim.result_cache.load"), "s"),
        "sim.result_cache.hits": (hits, "count"),
        "sim.result_cache.misses": (misses, "count"),
        "sim.result_cache.hit_frac": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sim.result_cache.store_s": (get("sim.result_cache.store"), "s"),
        "sim.result_cache.stores": (get("sim.result_cache.store", "calls"),
                                    "count"),
        "sim.result_cache.store_bytes": (get("sim.result_cache.store", "work"),
                                         "bytes"),
        "sim.planes.publish_s": (get("sim.planes.publish"), "s"),
        "sim.scheduler.run_s": (get("sim.scheduler.run"), "s"),
        "sim.sweep.units": (get("sim.scheduler.run", "work"), "count"),
        "sim.sweep.serial_s": (serial_s, "s"),
        "sim.sweep.efficiency": (
            serial_s / (specs.SWEEP_WORKERS * untraced_wall)
            if serial_s else 0.0, "ratio"),
    }
    for section in REPORT_SECTIONS:
        metrics[f"experiments.{section}_s"] = (
            sum(layers.get(f"experiments.{section}", {}).get("durations", [])),
            "s")
    metrics["experiments.self_s"] = (
        sum(get(f"experiments.{section}") for section in REPORT_SECTIONS),
        "s")
    metrics["obs.merge_s"] = (get("obs.merge"), "s")
    metrics["obs.counters"] = (get("obs.merge", "work"), "count")
    metrics["trace.overhead"] = (traced["wall_s"] / untraced_wall, "ratio")
    return metrics


def _engine_runs(layers: dict) -> tuple[int, int, int]:
    """A traced sample's ``BatchedEngine.run`` calls, how many of them fell
    back to ``ScalarEngine.run``, and all ``ScalarEngine.run`` calls."""
    scalar = layers.get("sim.engine.scalar", {})
    fallbacks = scalar.get("parents", {}).get("sim.engine.batched", 0)
    return (layers.get("sim.engine.batched", {}).get("calls", 0), fallbacks,
            scalar.get("calls", 0))


def _engine_mix(kind: str, out: dict) -> dict | None:
    """Simulations per engine that produced them: the report's cells or a
    telemetry sweep's engine counters.  ``None`` for a sweep without
    telemetry, whose outputs do not name the engine."""
    if kind == "report":
        return out["engines"]
    if "counters" in out:
        return {"batched": out["counters"].get("engine.batched_runs", 0),
                "scalar": out["counters"].get("engine.scalar_runs", 0)}
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool
                 ) -> tuple[dict, Tally, list[str]]:
    """One run of ``workload``; returns its metrics, the correctness tally
    and human-readable report lines."""
    kind, branches, _ = specs.WORKLOADS[workload]
    variant = specs.variant_of(seed)
    reference = _reference(kind, workload, variant)
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        runner = Runner(work, workload, variant)
        setup_s, trace_cache, result_cache, setup = _run_setups(runner,
                                                                trace)
        samples: list[dict] = []
        attempts = 0
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds
               or attempts < MIN_SAMPLES):
            attempts += 1
            label = f"sample {attempts}"
            try:
                out = _sample(runner, kind, trace_cache, result_cache)
            except ChildFailed as error:
                tally.check(False, f"{label}: {error}",
                            operations=_operations(kind, reference))
                continue
            _check_outputs(kind, out, reference, tally, label)
            samples.append(out)
        if not samples:
            raise ChildFailed("no timed sample completed")
        walls = [sample["wall_s"] for sample in samples]
        simulated = _operations(kind, reference) * branches
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": (wall_s, "s"),
            "branches_per_s": (statistics.median(
                simulated / wall for wall in walls), "1/s"),
            "cpu_s": (statistics.median(
                sample["cpu_s"] for sample in samples), "s"),
            "peak_rss_mb": (statistics.median(
                sample["peak_rss_mb"] for sample in samples), "MB"),
            "setup_s": (setup_s, "s"),
        }
        lines = [f"workload {workload}: seed {seed} (trace variant "
                 f"{variant}), {branches} branches per trace, "
                 f"{len(samples)} timed samples (median reported), "
                 f"{SETUPS} set-ups, cpu_count {os.cpu_count()}",
                 "wall_s per sample: "
                 + " ".join(f"{wall:.3f}" for wall in walls)]
        if trace:
            traced = _sample(runner, kind, trace_cache, result_cache,
                             trace=True)
            _check_outputs(kind, traced, reference, tally, "traced sample")
            mix = _engine_mix(kind, samples[0])
            if mix is not None:
                tally.check(_engine_mix(kind, traced) == mix,
                            f"traced engine mix {_engine_mix(kind, traced)} "
                            f"!= untraced {mix}")
            else:
                # The untraced sweep does not name its engine: check that
                # the traced serial pass made no scalar run.
                scalar_runs = _engine_runs(traced["layers"])[2]
                tally.check(scalar_runs == 0,
                            f"traced sweep made {scalar_runs} scalar runs")
            if kind == "sweep":
                tally.check(traced["serial_per_benchmark"]
                            == traced["per_benchmark"],
                            "serial attribution pass differs from the sweep")
            layers = traced["layers"]
            for layer in LAYERS_BY_WORKLOAD[workload]:
                recorded = layers.get(layer) or setup["layers"].get(layer)
                tally.check(bool(recorded and recorded["calls"]),
                            f"layer {layer} recorded no span")
            metrics = _layer_metrics(layers, setup["layers"], wall_s, traced)
            batched_runs, fallbacks, scalar_runs = _engine_runs(layers)
            lines.append(f"traced sample wall_s {traced['wall_s']:.3f}, "
                         f"{batched_runs} batched engine runs ({fallbacks} "
                         f"fell back), {scalar_runs} scalar runs")
        return metrics, tally, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *specs.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    become_subreaper()
    # SIGTERM unwinds like Ctrl-C, so children are killed and reaped and
    # the run directory is removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    workloads = (list(specs.WORKLOADS) if args.workload == "all"
                 else [args.workload])
    total, combined = Tally(), {}
    for workload in workloads:
        try:
            metrics, tally, lines = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
        except (ChildFailed, OSError, KeyError, ValueError) as error:
            print(f"error: workload {workload} could not run: {error}",
                  file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:>16.6g} {unit}")
        print(f"  correct={tally.failed == 0} attempted={tally.attempted} "
              f"failed={tally.failed}")
        for note in tally.notes[:20]:
            print(f"  FAILED: {note}")
        total.attempted += tally.attempted
        total.failed += tally.failed
        if len(workloads) == 1:
            combined = metrics
        else:
            combined.update({f"{workload}.{name}": metric
                             for name, metric in metrics.items()})
    print(_result_line(total, combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
