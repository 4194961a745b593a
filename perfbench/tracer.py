"""Span recording around the public calls of each ``repro`` layer.

The benchmark never edits ``src/``: it wraps the public functions and
methods of each module at every place they are bound (module attributes and
class dictionaries), records one span per call with its parent span, and
folds the spans into per-layer self times and work counts when the run
ends.  A layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass, field

__all__ = ["Tracer", "install", "replace_everywhere", "import_all"]

REPORT_SECTIONS = ("table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
                   "fig10")
"""The ``runall`` sections, in report order."""


def import_all() -> None:
    """Import every ``repro`` module so that every binding of a wrapped
    function exists before it is replaced."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro``
    module; returns the number of bindings replaced.

    ``sys.modules`` is walked rather than attribute paths because package
    attributes can shadow submodules (``repro.sim.sweep`` is the function
    there, not the module).
    """
    replaced = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


@dataclass
class Span:
    layer: str
    start: float
    parent: int  # index of the parent span, -1 for a root span
    end: float = 0.0
    work: int = 0
    outcome: str = ""


@dataclass
class Tracer:
    """Records spans in memory; :meth:`summary` folds them per layer."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _pid: int = field(default_factory=os.getpid)

    def wrap(self, layer: str, fn, work=None, outcome=None):
        """``fn`` recording a ``layer`` span per call.  ``work(args,
        result)`` gives the call's work count and ``outcome(args, result)``
        a label such as ``hit``/``miss``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked pool worker
                return fn(*args, **kwargs)
            span = Span(layer, 0.0, tracer._open[-1] if tracer._open else -1)
            tracer.spans.append(span)
            tracer._open.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if work is not None:
                span.work = work(args, result)
            if outcome is not None:
                span.outcome = outcome(args, result)
            return result

        return traced

    def wrap_method(self, cls, name: str, layer: str, **kwargs) -> None:
        setattr(cls, name, self.wrap(layer, cls.__dict__[name], **kwargs))

    def summary(self) -> dict[str, dict]:
        """Per layer: ``calls`` (outermost spans; a same-layer span nested
        in another, e.g. a ``super()`` call, is not counted again),
        ``self_s``, ``work``, ``outcomes`` and the inclusive ``durations``
        of its outermost calls."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        layers: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            entry = layers.setdefault(span.layer, {
                "calls": 0, "self_s": 0.0, "work": 0, "outcomes": {},
                "durations": [], "parents": {}})
            duration = span.end - span.start
            entry["self_s"] += duration - child_time[index]
            parent = self.spans[span.parent].layer if span.parent >= 0 \
                else ""
            if parent == span.layer:
                continue
            entry["calls"] += 1
            entry["work"] += span.work
            entry["durations"].append(duration)
            entry["parents"][parent] = entry["parents"].get(parent, 0) + 1
            if span.outcome:
                entry["outcomes"][span.outcome] = \
                    entry["outcomes"].get(span.outcome, 0) + 1
        return layers


def _length(args, result) -> int:
    return len(args[1])


def _subclasses(base) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Called once in a fresh interpreter, before the workload runs.
    """
    import_all()
    from repro.ev8.indexfuncs import EV8IndexScheme
    from repro.history.providers import HistoryProvider
    from repro.obs import Telemetry
    from repro.predictors.base import BatchCapable
    from repro.predictors.twobcgskew import IndexScheme
    from repro.sim import driver, engine, planes, result_cache, scheduler
    from repro.traces import fetch
    from repro.traces.io import TraceCache
    from repro.workloads import spec95

    def wrap_function(module, name, layer, **kwargs):
        original = getattr(module, name)
        replace_everywhere(original, tracer.wrap(layer, original, **kwargs))

    wrap_function(spec95, "generate_trace", "workloads.generate")
    tracer.wrap_method(TraceCache, "get_or_generate", "traces.load")
    wrap_function(fetch, "build_fetch_blocks", "traces.fetch_blocks")
    for cls in _subclasses(HistoryProvider):
        if "materialize" in cls.__dict__:
            tracer.wrap_method(cls, "materialize", "history.materialize")
    for cls in _subclasses(IndexScheme):
        if "compute_batch" in cls.__dict__:
            if issubclass(cls, EV8IndexScheme):
                tracer.wrap_method(cls, "compute_batch", "ev8.index",
                                   work=_length)
            else:
                tracer.wrap_method(cls, "compute_batch", "indexing.index")
    for cls in _subclasses(BatchCapable):
        if "batch_access" in cls.__dict__:
            tracer.wrap_method(cls, "batch_access", "predictors.replay",
                               work=_length)
    tracer.wrap_method(engine.ScalarEngine, "run", "sim.engine.scalar")
    tracer.wrap_method(engine.BatchedEngine, "run", "sim.engine.batched")
    wrap_function(driver, "simulate", "sim.simulate")
    wrap_function(result_cache, "result_key", "sim.result_cache.key")
    wrap_function(result_cache, "load", "sim.result_cache.load",
                  outcome=lambda args, result:
                  "miss" if result is None else "hit")
    wrap_function(result_cache, "store", "sim.result_cache.store",
                  work=lambda args, result:
                  (result_cache.cache_dir() / f"{args[0]}.json")
                  .stat().st_size)
    tracer.wrap_method(planes.PlaneStore, "publish_trace",
                       "sim.planes.publish")
    tracer.wrap_method(planes.PlaneStore, "publish_batch",
                       "sim.planes.publish")
    tracer.wrap_method(scheduler.SweepScheduler, "run", "sim.scheduler.run",
                       work=lambda args, result: len(args[2]))
    for section in REPORT_SECTIONS:
        module = importlib.import_module(f"repro.experiments.{section}")
        wrap_function(module, "run", f"experiments.{section}")
    tracer.wrap_method(Telemetry, "merge_snapshot", "obs.merge",
                       work=lambda args, result:
                       len(args[1].get("counters", {})))
