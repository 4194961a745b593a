"""The compiled 2Bc-gskew replay kernel: build cache, fallback, pickling.

Bit-identity of the kernel against the scalar walk is the differential
fuzzer's job (``tests/test_differential.py``); these tests pin how the
kernel is built, reused and given up on.
"""

from __future__ import annotations

import pickle
import shutil
import warnings

import pytest

from conftest import simple_loop_trace
from repro.predictors import TableConfig, TwoBcGskewPredictor, native
from repro.sim.engine import BatchedEngine, ScalarEngine
from repro.sim.result_cache import result_key

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on this machine")


def _predictor() -> TwoBcGskewPredictor:
    return TwoBcGskewPredictor(
        TableConfig(1 << 8, 0), TableConfig(1 << 9, 8, 1 << 8),
        TableConfig(1 << 9, 12), TableConfig(1 << 9, 10, 1 << 8))


@pytest.fixture
def fresh_native(tmp_path, monkeypatch):
    """An empty kernel cache directory and a process that has not loaded
    (or given up on) any kernel yet; both are restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_LOADED", {})
    return tmp_path


def _no_compiler(monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)


class TestFallback:
    def test_missing_compiler_falls_back_to_scalar(self, fresh_native,
                                                   monkeypatch, gcc_trace):
        _no_compiler(monkeypatch)
        with pytest.warns(RuntimeWarning, match="cc not found"):
            result = BatchedEngine().run(_predictor(), gcc_trace)
        assert result.engine == "scalar"
        reference = ScalarEngine().run(_predictor(), gcc_trace)
        assert (result.mispredictions, result.branches) == \
            (reference.mispredictions, reference.branches)

    def test_strict_engine_names_the_cause(self, fresh_native, monkeypatch,
                                           gcc_trace):
        _no_compiler(monkeypatch)
        with pytest.warns(RuntimeWarning):
            predictor = _predictor()
            assert not predictor.batch_supported()
        with pytest.raises(ValueError, match="cc not found"):
            BatchedEngine(strict=True).run(predictor, gcc_trace)

    def test_warns_once_per_process(self, fresh_native, monkeypatch):
        _no_compiler(monkeypatch)
        with pytest.warns(RuntimeWarning):
            assert not _predictor().batch_supported()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _predictor().batch_supported()
        assert native.unavailable_reason("replay2bc") == "cc not found"

    @needs_cc
    def test_compile_error_names_the_compiler_message(self, fresh_native,
                                                      monkeypatch):
        (fresh_native / "broken.c").write_text("int broken(void) { return 0 }")
        monkeypatch.setattr(native, "_SOURCE_DIR", fresh_native)
        with pytest.warns(RuntimeWarning, match="cc failed on broken.c"):
            assert native.kernel("broken", ()) is None
        assert "error" in native.unavailable_reason("broken")
        assert not list((fresh_native / "xdg").rglob("*.so"))

    def test_unwritable_cache_directory(self, fresh_native, monkeypatch):
        blocker = fresh_native / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with pytest.warns(RuntimeWarning, match="cannot write"):
            assert not _predictor().batch_supported()


@needs_cc
class TestBuildCache:
    def test_second_load_reuses_the_cached_library(self, fresh_native,
                                                   monkeypatch):
        assert _predictor().batch_supported()
        library = native.library_path("replay2bc")
        assert library.is_file()
        assert library.parent == fresh_native / "xdg" / "repro" / "native"
        assert [path.name for path in library.parent.iterdir()] \
            == [library.name]  # the temporary build file was renamed away
        # A new process (simulated by forgetting the loaded kernel) finds
        # the library on disk and never looks for, let alone runs, cc.
        monkeypatch.setattr(native, "_LOADED", {})

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran for a cached kernel")

        monkeypatch.setattr(native.shutil, "which", no_compiler)
        monkeypatch.setattr(native.subprocess, "run", no_compiler)
        assert _predictor().batch_supported()

    def test_digest_covers_source_command_and_machine(self, fresh_native,
                                                      monkeypatch):
        original = native.library_path("replay2bc")
        source = (native._SOURCE_DIR / "replay2bc.c").read_text()
        (fresh_native / "replay2bc.c").write_text(source + "\n")
        with monkeypatch.context() as patch:
            patch.setattr(native, "_SOURCE_DIR", fresh_native)
            assert native.library_path("replay2bc") != original
        with monkeypatch.context() as patch:
            patch.setattr(native, "COMPILE_COMMAND",
                          ("cc", "-O3", "-shared", "-fPIC"))
            assert native.library_path("replay2bc") != original
        with monkeypatch.context() as patch:
            patch.setattr(native.platform, "machine", lambda: "other")
            assert native.library_path("replay2bc") != original
        assert native.library_path("replay2bc") == original


@needs_cc
def test_predictor_pickles_and_keys_after_a_batched_run():
    """The loaded library lives in the native module, not on the
    predictor, so a batched run leaves it picklable and fingerprintable."""
    trace = simple_loop_trace(300)
    predictor = _predictor()
    result = BatchedEngine(strict=True).run(predictor, trace)
    assert result.engine == "batched"
    copy = pickle.loads(pickle.dumps(predictor))
    assert bytes(copy.g0._prediction) == bytes(predictor.g0._prediction)
    assert result_key(copy, trace, None, 0, "batched") \
        == result_key(predictor, trace, None, 0, "batched")
