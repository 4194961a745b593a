"""Workload definitions shared by the benchmark runner, its child processes
and the reference generator.

A workload's inputs are a function of ``(workload, seed)`` only.  The seed
picks one of ``VARIANTS`` trace families: variant ``v`` re-roots every
SPECINT95 stand-in profile at ``DEFAULT_SEED + v`` (variant 0 is the
repository's own published traces).  Trace lengths and sweep grids are
fixed per workload, so every seed asks for the same amount of work.
Reference outputs for every variant live in ``reference/``.
"""

from __future__ import annotations

import dataclasses

VARIANTS = 8

REPORT_BRANCHES = 15_000
"""Branches per benchmark trace for ``runall`` (report-cold/report-warm)."""

SWEEP_GRID = tuple(
    (g1_hysteresis, policy, wordline)
    for g1_hysteresis in (16 * 1024, 32 * 1024, 64 * 1024)
    for policy in ("partial", "total")
    for wordline in ("history", "address"))
"""The 12 design points of the Table 1 sweep: G1 hysteresis entries (Table
1's 64K and the halved sizes of Section 4.4) x update policy (Section 4.2)
x index scheme (the EV8 functions, or Fig 9's address-only wordline and
bank).  Every parameter changes what the EV8 model predicts, so each point
has its own reference outputs and a unit filed under the wrong point shows
as a mismatch.  (The G1 history length is not swept: the EV8 index
functions fix the history bits G1 reads, so every history length would
give the same predictor.)"""

SWEEP_VALUES = tuple(range(len(SWEEP_GRID)))
"""The sweep's values: indices into ``SWEEP_GRID``."""

SWEEP_TRACES = ("gcc", "go", "compress", "li")
SWEEP_WORKERS = 2

WORKLOADS = {
    # name: (kind, branches per trace, records telemetry)
    "report-cold": ("report", REPORT_BRANCHES, False),
    "report-warm": ("report", REPORT_BRANCHES, False),
    "sweep-g1": ("sweep", 60_000, False),
    "sweep-telemetry": ("sweep", 25_000, True),
}

ENGINE_IDENTITY_COUNTERS = frozenset({
    "engine.scalar_runs", "engine.batched_runs", "engine.batched_fallbacks",
    "replay.positions", "replay.coupled"})
"""Telemetry counters that name the engine or replay kernel that ran rather
than what the modelled predictor did; they are excluded when merged
counters are compared with the scalar oracle."""


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def apply_variant(variant: int) -> None:
    """Re-root every SPECINT95 profile at ``DEFAULT_SEED + variant``.

    Wraps the public ``profile_for`` at every module that imported it, so
    ``spec95_trace`` (and with it ``runall``) builds the variant's traces.
    """
    if variant == 0:
        return
    from repro.workloads import spec95
    from tracer import replace_everywhere

    original = spec95.profile_for

    def profile_for(name: str):
        profile = original(name)
        return profile.with_seed(profile.root_seed + variant)

    replace_everywhere(original, profile_for)


def benchmark_names(kind: str) -> tuple[str, ...]:
    from repro.workloads.spec95 import SPEC95_BENCHMARKS
    return SPEC95_BENCHMARKS if kind == "report" else SWEEP_TRACES


def table1_predictor(point: int):
    """The full Table 1 EV8 predictor at design point ``SWEEP_GRID[point]``
    (module-level so the sweep's worker processes can unpickle it)."""
    from repro.ev8.config import EV8_CONFIG
    from repro.ev8.indexfuncs import EV8IndexScheme
    from repro.ev8.predictor import EV8BranchPredictor
    from repro.predictors.twobcgskew import TableConfig
    g1_hysteresis, policy, wordline = SWEEP_GRID[point]
    config = dataclasses.replace(EV8_CONFIG, g1=TableConfig(
        EV8_CONFIG.g1.entries, EV8_CONFIG.g1.history_length, g1_hysteresis))
    scheme = EV8IndexScheme(wordline_mode=wordline,
                            use_block_bank=wordline == "history")
    return EV8BranchPredictor(config=config, index_scheme=scheme,
                              update_policy=policy)


def point_label(point: int) -> str:
    g1_hysteresis, policy, wordline = SWEEP_GRID[point]
    return f"G1 hysteresis {g1_hysteresis // 1024}K/{policy}/{wordline}"


def strip_timing_lines(report: str) -> str:
    """The report without its ``*(Ns)*`` section timing lines, the only
    lines that differ between two runs of the same code."""
    return "\n".join(line for line in report.splitlines()
                     if not (line.startswith("*(") and line.endswith("s)*")))


def _tables(payload: dict) -> list[dict]:
    """The comparison tables one experiment recorded (Fig 6 records two)."""
    if "misp_per_ki" in payload:
        return [payload]
    return [table for table in payload.values()
            if isinstance(table, dict) and "misp_per_ki" in table]


def report_cells(results: dict[str, dict]) -> dict[str, float]:
    """Flatten the experiments' recorded comparison tables into
    ``{"section/table/config/benchmark": misp_per_ki}``: one entry per
    simulation result in the report."""
    cells = {}
    for section, payload in sorted(results.items()):
        for index, table in enumerate(_tables(payload)):
            for config, row in table["misp_per_ki"].items():
                for benchmark, value in row.items():
                    cells[f"{section}/{index}/{config}/{benchmark}"] = value
    return cells


def report_engines(results: dict[str, dict]) -> dict[str, int]:
    """How many report cells each engine produced."""
    mix: dict[str, int] = {}
    for payload in results.values():
        for table in _tables(payload):
            for row in table["engine"].values():
                for engine in row.values():
                    mix[engine] = mix.get(engine, 0) + 1
    return dict(sorted(mix.items()))
