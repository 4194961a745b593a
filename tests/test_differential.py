"""Differential fuzzing: the scalar ↔ batched contract, whole-predictor.

``tests/test_counters.py`` locks ``SplitCounterArray.batch_access`` against
the scalar counter walk per component; these tests lock the contract at the
level the engines actually rely on: Hypothesis generates random predictor
configurations (per-table sizes, history lengths, hysteresis sharing on/off,
partial vs total update, ghist vs lghist providers) and random short traces,
then asserts that the scalar reference walk and the strict batched replay
produce **bit-identical per-branch predictions**, identical final
prediction/hysteresis array bytes, and identical telemetry counters.

The example budget is tunable: ``REPRO_DIFF_FUZZ_EXAMPLES`` (default 230)
lets the dedicated CI fuzzer step pick a budget that fits its time box
while local runs keep the full sweep.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.counters import SplitCounterArray
from repro.history.providers import BlockLghistProvider, BranchGhistProvider
from repro.obs import Telemetry
from repro.predictors.egskew import EGskewPredictor
from repro.predictors.twobcgskew import (SkewedIndexScheme, TableConfig,
                                         TwoBcGskewPredictor)
from repro.traces.fetch import fetch_blocks_for
from repro.traces.model import TerminatorKind, TraceBuilder

FUZZ_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "230"))

_PCS = tuple(0x4000 + 16 * i for i in range(12))


# -- strategies ---------------------------------------------------------------

@st.composite
def random_traces(draw):
    """A short trace over a small set of branch PCs with random outcomes
    (some unconditional blocks mixed in to exercise block/path plumbing)."""
    length = draw(st.integers(min_value=4, max_value=120))
    builder = TraceBuilder("fuzz")
    for _ in range(length):
        pc = draw(st.sampled_from(_PCS))
        if draw(st.integers(0, 9)) == 0:
            builder.add(pc, draw(st.integers(1, 4)), TerminatorKind.JUMP,
                        True, draw(st.sampled_from(_PCS)))
            continue
        taken = draw(st.booleans())
        target = draw(st.sampled_from(_PCS))
        builder.add(pc, draw(st.integers(1, 4)), TerminatorKind.CONDITIONAL,
                    taken, target if taken else pc + 16)
    return builder.build()


@st.composite
def table_configs(draw, max_history: int = 14):
    entries = 1 << draw(st.integers(min_value=4, max_value=7))
    history = draw(st.integers(min_value=0, max_value=max_history))
    shared = draw(st.booleans())
    return TableConfig(entries, history,
                       entries // 2 if shared else None)


@st.composite
def twobcgskew_configs(draw):
    """Constructor kwargs for a random (small) 2Bc-gskew instance."""
    return dict(
        bim=draw(table_configs(max_history=4)),
        g0=draw(table_configs()),
        g1=draw(table_configs()),
        meta=draw(table_configs()),
        index_scheme=SkewedIndexScheme(
            use_path_addresses=draw(st.booleans())),
        update_policy=draw(st.sampled_from(("partial", "total"))),
    )


@st.composite
def providers_factories(draw):
    """A factory for fresh, equivalent provider instances (providers are
    stateful, so each engine run needs its own)."""
    kind = draw(st.sampled_from(("ghist", "lghist")))
    if kind == "ghist":
        return BranchGhistProvider
    include_path = draw(st.booleans())
    delay_blocks = draw(st.integers(min_value=0, max_value=2))

    def make() -> BlockLghistProvider:
        return BlockLghistProvider(include_path=include_path,
                                   delay_blocks=delay_blocks)

    return make


# -- the reference walk -------------------------------------------------------

def scalar_walk(predictor, trace, provider, sink) -> np.ndarray:
    """The ScalarEngine loop, returning every per-branch prediction."""
    predictor.attach_telemetry(sink)
    predictions = []
    for block in fetch_blocks_for(trace):
        if block.branch_pcs:
            vectors = provider.begin_block(block)
            for vector, taken in zip(vectors, block.branch_outcomes):
                predictions.append(predictor.access(vector, taken))
        provider.end_block(block)
    return np.asarray(predictions, dtype=np.bool_)


def reference_walk(predictor, trace, provider, sink) -> np.ndarray:
    """The strict batched replay with a recording sink attached, which
    routes every position through the predictor's scalar reference path."""
    batch = provider.materialize(trace)
    assert batch is not None, "provider fell out of the batchable envelope"
    predictor.attach_telemetry(sink)
    return predictor.batch_access(batch)


def fast_walk(predictor, trace, provider) -> np.ndarray:
    """The strict batched replay with no sink attached: the fast kernel
    (for 2Bc-gskew the compiled ``replay2bc.c``), exactly like production
    sweeps."""
    batch = provider.materialize(trace)
    assert batch is not None, "provider fell out of the batchable envelope"
    return predictor.batch_access(batch)


def _bank_arrays(predictor) -> dict[str, SplitCounterArray]:
    banks = {name: value for name, value in vars(predictor).items()
             if isinstance(value, SplitCounterArray)}
    assert banks, "predictor exposes no counter arrays to compare"
    return banks


def _assert_same_state(reference, candidate, arm: str) -> None:
    for name, bank in _bank_arrays(reference).items():
        other = getattr(candidate, name)
        assert bytes(bank._prediction) == bytes(other._prediction), \
            f"{name} prediction array diverged ({arm})"
        assert bytes(bank._hysteresis) == bytes(other._hysteresis), \
            f"{name} hysteresis array diverged ({arm})"


def assert_equivalent(make_predictor, trace, make_provider) -> None:
    scalar_sink, batched_sink = Telemetry(), Telemetry()
    reference = make_predictor()
    candidate = make_predictor()
    expected = scalar_walk(reference, trace, make_provider(), scalar_sink)
    actual = reference_walk(candidate, trace, make_provider(), batched_sink)

    np.testing.assert_array_equal(expected, actual)
    _assert_same_state(reference, candidate, "reference path")

    # Engine-consistent telemetry: logical bank traffic, arbitration and
    # update-policy event counts must match key-for-key.
    def comparable(sink):
        return {name: value
                for name, value in sink.snapshot()["counters"].items()
                if name.split(".", 1)[0] in ("bank", "arbitration", "update")}

    assert comparable(scalar_sink) == comparable(batched_sink)

    # Second arm: the fast kernel (what production sweeps run when no sink
    # is attached) must be bit-identical to the same scalar walk —
    # predictions and final table state both.
    fast = make_predictor()
    np.testing.assert_array_equal(
        expected, fast_walk(fast, trace, make_provider()))
    _assert_same_state(reference, fast, "fast kernel")


# -- the fuzzers --------------------------------------------------------------

class TestTwoBcGskewDifferential:
    # slow: the full randomized budget runs in the dedicated CI fuzzer step
    # (which runs this file without the marker filter); the default lane
    # keeps the fixed-shape differential tests below.
    @pytest.mark.slow
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(config=twobcgskew_configs(), trace=random_traces(),
           make_provider=providers_factories())
    def test_random_config_random_trace(self, config, trace, make_provider):
        assert_equivalent(lambda: TwoBcGskewPredictor(**config), trace,
                          make_provider)

    @settings(max_examples=40, deadline=None)
    @given(trace=random_traces(), make_provider=providers_factories())
    def test_ev8_shaped_sharing(self, trace, make_provider):
        """The Table 1 shape in miniature: half-size hysteresis on G0 and
        Meta, distinct per-table history lengths."""
        def make():
            return TwoBcGskewPredictor(
                bim=TableConfig(64, 4),
                g0=TableConfig(256, 8, 128),
                g1=TableConfig(256, 12),
                meta=TableConfig(256, 10, 128),
                update_policy="partial")
        assert_equivalent(make, trace, make_provider)


class TestEGskewDifferential:
    @settings(max_examples=60, deadline=None)
    @given(entries_log2=st.integers(min_value=4, max_value=7),
           history=st.integers(min_value=0, max_value=12),
           g0_history=st.integers(min_value=0, max_value=12),
           policy=st.sampled_from(("partial", "total")),
           trace=random_traces())
    def test_random_config_random_trace(self, entries_log2, history,
                                        g0_history, policy, trace):
        def make():
            return EGskewPredictor(1 << entries_log2, history,
                                   g0_history_length=g0_history,
                                   update_policy=policy)
        assert_equivalent(make, trace, BranchGhistProvider)


def test_fuzz_budget_meets_acceptance_floor():
    """The default example budget exercises 200+ generated cases (the
    acceptance criterion); CI may override it explicitly but the default
    must not silently shrink."""
    if "REPRO_DIFF_FUZZ_EXAMPLES" not in os.environ:
        assert FUZZ_EXAMPLES >= 200


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
