"""The collector pause of the trace build path leaves ``gc`` as it found it.

``store_compiled`` and ``load_compiled`` disable the cyclic collector
around their one bulk ``pickle`` call (``code_cache._paused_gc``).  After
each of the four public build-path calls — returning, raising, nested or
not — ``gc.isenabled()`` must equal its value before the call.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.regalloc import get_mapping
from repro.trace import code_cache, compile_kernel
from repro.trace.code_cache import _paused_gc as paused_gc
from repro.trace.code_cache import get_or_build, load_compiled, store_compiled
from repro.workloads import get_profile
from repro.workloads.synth import build_kernel

PROFILE = get_profile("rod-kmeans")
MAPPER = get_mapping("warp_swizzle")


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test from both collector states; put the real one back."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()
    code_cache.reset_degradation()  # the quarantine note of the decode case


def _build():
    kernel = build_kernel(PROFILE)
    compile_kernel(kernel, MAPPER, 2)
    return kernel


def test_helper_pauses_restores_and_nests(collector):
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled(), "an inner block must not re-enable its outer one"
    assert gc.isenabled() == collector
    with pytest.raises(KeyboardInterrupt):
        with paused_gc():
            raise KeyboardInterrupt
    assert gc.isenabled() == collector


def test_each_public_call_restores_the_collector(collector, tmp_path):
    kernel = build_kernel(PROFILE)
    assert gc.isenabled() == collector
    assert compile_kernel(kernel, MAPPER, 2) == PROFILE.warps_per_cta
    assert gc.isenabled() == collector
    store_compiled(tmp_path, "k", kernel)
    assert gc.isenabled() == collector
    assert load_compiled(tmp_path, "k") is not None
    assert gc.isenabled() == collector
    assert load_compiled(tmp_path, "absent") is None
    assert gc.isenabled() == collector


def test_pickle_calls_run_with_the_collector_paused(collector, tmp_path, monkeypatch):
    seen = []

    def spy(real):
        def call(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(code_cache.pickle, "dump", spy(pickle.dump))
    monkeypatch.setattr(code_cache, "_checked", spy(code_cache._checked))  # runs after the load
    store_compiled(tmp_path, "k", _build())
    assert load_compiled(tmp_path, "k").name == PROFILE.name
    assert seen == [False, False]
    assert gc.isenabled() == collector


def test_get_or_build_restores_the_collector_on_miss_and_hit(collector, tmp_path):
    seen = []

    def builder():
        # Entered from inside get_or_build, after load_compiled's miss.
        seen.append(gc.isenabled())
        return _build()

    assert get_or_build(tmp_path, "k", builder)[1] == "compile"
    assert gc.isenabled() == collector
    assert get_or_build(tmp_path, "k", builder)[1] == "disk"
    assert gc.isenabled() == collector
    assert seen == [collector]
    # A caller's own pause around the whole path is kept until it ends.
    with paused_gc():
        assert get_or_build(tmp_path, "k2", _build)[1] == "compile"
        assert not gc.isenabled()
    assert gc.isenabled() == collector


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_raising_calls_restore_the_collector(collector, tmp_path, monkeypatch, error):
    def boom(*args, **kwargs):
        raise error("injected")

    kernel = _build()

    # ``encode`` raises: nothing is left in the directory either.
    with monkeypatch.context() as patch:
        patch.setattr(code_cache.pickle, "dump", boom)
        with pytest.raises(error):
            store_compiled(tmp_path, "k", kernel)
    assert gc.isenabled() == collector
    assert list(tmp_path.iterdir()) == []

    # ``decode`` raises: an Exception quarantines, anything else propagates.
    store_compiled(tmp_path, "k", kernel)
    with monkeypatch.context() as patch:
        patch.setattr(code_cache._ArtifactUnpickler, "load", boom, raising=False)
        if issubclass(error, Exception):
            assert load_compiled(tmp_path, "k") is None
        else:
            with pytest.raises(error):
                load_compiled(tmp_path, "k")
    assert gc.isenabled() == collector

    # The builder raises under get_or_build.
    with pytest.raises(error):
        get_or_build(tmp_path, "other", boom)
    assert gc.isenabled() == collector


def test_unpicklable_artifact_restores_the_collector(collector, tmp_path):
    with pytest.raises((pickle.PicklingError, AttributeError)):
        store_compiled(tmp_path, "k", lambda: None)
    assert gc.isenabled() == collector
