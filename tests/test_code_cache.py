"""Tests for the compiled-trace disk cache and its invalidation contract.

The content address of a compiled kernel covers the profile payload,
``PROFILE_VERSION``, and the bank layout (mapping name + bank count):
changing any of them must miss the cache, and a disk-loaded artifact must
simulate byte-identically to a freshly synthesized one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import volta_v100
from repro.experiments.engine import ExperimentEngine, SimPoint
from repro.gpu import simulate
from repro.isa import MAX_SRC_OPERANDS
from repro.obs import stats_digest
from repro.regalloc import get_mapping
from repro.trace import TraceBuilder, compile_kernel, make_kernel
from repro.trace.code_cache import load_compiled, store_compiled
from repro.trace.compiled import _BANK_TUPLES
from repro.workloads import (
    compiled_code_key,
    get_compiled_kernel,
    get_kernel,
)
from repro.workloads import registry

APP = "rod-nw"
LAYOUT = ("warp_swizzle", 2)


def small_kernel():
    """A two-warp kernel lowered for ``LAYOUT``: what ``store_compiled`` takes."""
    warps = [
        TraceBuilder().fma_chain(6).global_load(1, 0, 4096, 2).barrier().build(),
        TraceBuilder().shared_load(2, 0).build(),
    ]
    kernel = make_kernel("small", warps, num_ctas=3)
    compile_kernel(kernel, get_mapping(LAYOUT[0]), LAYOUT[1])
    return kernel


class _Reduces:
    """Pickles as a call of ``fn(*args)``, the way a hostile file would."""

    def __init__(self, fn, *args):
        self.call = (fn, args)

    def __reduce__(self):
        return self.call


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Isolate each test from compiled kernels memoized by earlier tests."""
    registry._COMPILED_MEMO.clear()
    yield
    registry._COMPILED_MEMO.clear()


class TestKeyInvalidation:
    def test_bank_mapping_changes_key(self):
        base = compiled_code_key(APP, *LAYOUT)
        assert compiled_code_key(APP, "mod", 2) != base
        assert compiled_code_key(APP, "warp_swizzle", 4) != base

    def test_profile_version_changes_key(self, monkeypatch):
        base = compiled_code_key(APP, *LAYOUT)
        monkeypatch.setattr(registry, "PROFILE_VERSION", "test-bump")
        assert compiled_code_key(APP, *LAYOUT) != base

    def test_app_changes_key(self):
        assert compiled_code_key(APP, *LAYOUT) != compiled_code_key(
            "tpcU-q3", *LAYOUT
        )


class TestKernelSpecs:
    """A point's ``kernel`` spec: a profile variant or a builder's arguments."""

    VARIANT = (("num_ctas", 8),)

    def test_profile_variant_never_gets_the_plain_kernel(self, tmp_path):
        plain, _ = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        variant, src = get_compiled_kernel(
            APP, *LAYOUT, cache_dir=tmp_path, kernel=self.VARIANT
        )
        assert src == "compile"
        assert (plain.num_ctas, variant.num_ctas) == (4, 8)
        assert compiled_code_key(APP, *LAYOUT, self.VARIANT) != compiled_code_key(
            APP, *LAYOUT
        )
        registry._COMPILED_MEMO.clear()  # a fresh process: the disk entry serves
        again, src = get_compiled_kernel(
            APP, *LAYOUT, cache_dir=tmp_path, kernel=self.VARIANT
        )
        assert (src, again.num_ctas) == ("disk", 8)
        plain_again, src = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert (src, plain_again.num_ctas) == ("disk", 4)

    def test_builder_kernel_compiles_then_loads(self, tmp_path):
        spec = (("insts", 32), ("warps", 4))
        kernel, src = get_compiled_kernel("ub-1op", *LAYOUT, cache_dir=tmp_path, kernel=spec)
        assert (src, kernel.name, kernel.total_warps) == ("compile", "ub-1op", 4)
        registry._COMPILED_MEMO.clear()
        loaded, src = get_compiled_kernel("ub-1op", *LAYOUT, cache_dir=tmp_path, kernel=spec)
        assert src == "disk"
        cfg = volta_v100()
        assert stats_digest(simulate(loaded, cfg, 1).to_payload()) == stats_digest(
            simulate(kernel, cfg, 1).to_payload()
        )

    def test_builder_key_carries_profile_version(self, monkeypatch):
        spec = (("fmas", 8), ("layout", "baseline"))
        base = compiled_code_key("fma_microbenchmark", *LAYOUT, spec)
        assert compiled_code_key("fma_microbenchmark", *LAYOUT, (("fmas", 16),) + spec[1:]) != base
        monkeypatch.setattr(registry, "PROFILE_VERSION", "test-bump")
        assert compiled_code_key("fma_microbenchmark", *LAYOUT, spec) != base


class TestResolutionOrder:
    def test_compile_then_memory_then_disk(self, tmp_path):
        k1, src1 = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src1 == "compile"
        k2, src2 = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src2 == "memory"
        assert k2 is k1
        registry._COMPILED_MEMO.clear()  # a fresh process: memo gone
        k3, src3 = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src3 == "disk"
        assert k3.name == k1.name

    def test_no_disk_mode_always_compiles(self, tmp_path):
        _, src1 = get_compiled_kernel(APP, *LAYOUT, use_disk=False)
        assert src1 == "compile"
        registry._COMPILED_MEMO.clear()
        _, src2 = get_compiled_kernel(APP, *LAYOUT, use_disk=False)
        assert src2 == "compile"
        assert list(tmp_path.iterdir()) == []


class TestDiskInvalidation:
    def test_layout_change_misses_disk(self, tmp_path):
        get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        registry._COMPILED_MEMO.clear()
        _, src = get_compiled_kernel(APP, "warp_swizzle", 4, cache_dir=tmp_path)
        assert src == "compile"
        registry._COMPILED_MEMO.clear()
        _, src = get_compiled_kernel(APP, "mod", 2, cache_dir=tmp_path)
        assert src == "compile"

    def test_profile_version_bump_misses_disk(self, tmp_path, monkeypatch):
        get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        registry._COMPILED_MEMO.clear()
        monkeypatch.setattr(registry, "PROFILE_VERSION", "test-bump")
        _, src = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src == "compile"


class TestDiskLoadedEquivalence:
    def test_disk_loaded_kernel_simulates_byte_identically(self, tmp_path):
        config = volta_v100()
        fresh = simulate(get_kernel(APP), config).to_payload()
        get_compiled_kernel(
            APP, config.bank_mapping, config.rf_banks_per_subcore,
            cache_dir=tmp_path,
        )
        registry._COMPILED_MEMO.clear()
        loaded, src = get_compiled_kernel(
            APP, config.bank_mapping, config.rf_banks_per_subcore,
            cache_dir=tmp_path,
        )
        assert src == "disk"
        assert stats_digest(simulate(loaded, config).to_payload()) == stats_digest(
            fresh
        )


class TestCorruptionQuarantine:
    """Corrupted entries are quarantined — moved aside, never served —
    and degraded stores go memory-only with a single note."""

    @pytest.fixture(autouse=True)
    def _fresh_state(self):
        from repro.chaos import clear_plan
        from repro.trace import code_cache

        clear_plan()
        code_cache.reset_degradation()
        yield
        clear_plan()
        code_cache.reset_degradation()

    def _entry(self, tmp_path):
        get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.code.pkl"))
        assert len(entries) == 1
        return entries[0]

    def test_truncated_pickle_is_quarantined_and_recompiled(self, tmp_path):
        from repro.trace import code_cache

        entry = self._entry(tmp_path)
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])
        registry._COMPILED_MEMO.clear()
        _, src = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src == "compile"
        quarantined = tmp_path / "quarantine" / entry.name
        assert quarantined.read_bytes() == data[: len(data) // 2]
        notes = code_cache.drain_notes()
        assert [kind for kind, _ in notes] == ["cache_quarantine"]
        assert entry.name in notes[0][1]
        # The recompile re-stored a valid entry: next fresh process hits disk.
        registry._COMPILED_MEMO.clear()
        _, src2 = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src2 == "disk"

    def test_wrong_generation_envelope_is_quarantined(self, tmp_path):
        import pickle

        from repro.trace import code_cache

        entry = self._entry(tmp_path)
        entry.write_bytes(
            pickle.dumps(("repro-code", code_cache.CODE_VERSION + 1, None))
        )
        registry._COMPILED_MEMO.clear()
        _, src = get_compiled_kernel(APP, *LAYOUT, cache_dir=tmp_path)
        assert src == "compile"
        assert (tmp_path / "quarantine" / entry.name).exists()
        notes = code_cache.drain_notes()
        assert notes and "wrong cache generation" in notes[0][1]

    def _rejected(self, tmp_path, payload: bytes, why: str):
        """``payload`` under a key: not served, quarantined for ``why``, rebuilt."""
        from repro.trace import code_cache

        (tmp_path / "k.code.pkl").write_bytes(payload)
        assert code_cache.load_compiled(tmp_path, "k") is None
        assert (tmp_path / "quarantine" / "k.code.pkl").read_bytes() == payload
        notes = code_cache.drain_notes()
        assert [kind for kind, _ in notes] == ["cache_quarantine"] and why in notes[0][1]
        assert code_cache.get_or_build(tmp_path, "k", small_kernel)[1] == "compile"
        assert code_cache.get_or_build(tmp_path, "k", small_kernel)[1] == "disk"

    def test_v1_envelope_is_quarantined(self, tmp_path):
        import pickle

        # What the previous generation's store_compiled wrote around its
        # artifact; the key contains CODE_VERSION, so only a copied or
        # renamed file can put one under a current key.
        envelope = ("repro-code", 1, {"warps": [1, 2]})
        self._rejected(tmp_path, pickle.dumps(envelope, protocol=4), "wrong cache generation")

    def test_foreign_global_is_not_imported(self, tmp_path, monkeypatch):
        import pickle
        import subprocess

        from repro.trace import code_cache

        # A right-generation envelope whose artifact names a callable.
        envelope = ("repro-code", code_cache.CODE_VERSION, _Reduces(subprocess.getoutput, "id"))
        payload = pickle.dumps(envelope, protocol=4)
        called = []
        monkeypatch.setattr(subprocess, "getoutput", called.append)
        assert pickle.loads(payload)[2] is None and called == ["id"]  # what pickle.load does
        self._rejected(
            tmp_path, payload, "subprocess.getoutput is not part of a trace artifact"
        )
        assert called == ["id"]

    @pytest.mark.parametrize("column", ["flags", "hazard_masks", "num_src"])
    def test_ragged_columns_are_quarantined(self, tmp_path, column):
        import io
        import pickle

        from repro.trace import code_cache

        kernel = small_kernel()
        code = kernel.ctas[0].warps[0]._code
        setattr(code, column, getattr(code, column)[:-1])
        payload = io.BytesIO()
        pickle.dump(("repro-code", code_cache.CODE_VERSION, kernel), payload, protocol=4)
        self._rejected(tmp_path, payload.getvalue(), "malformed compiled columns")

    def test_missing_bank_rows_are_quarantined(self, tmp_path):
        import pickle

        from repro.trace import code_cache

        kernel = small_kernel()
        table = kernel.ctas[0].warps[0]._code.bank_table(get_mapping(LAYOUT[0]), LAYOUT[1])
        del table._rows[1]
        envelope = ("repro-code", code_cache.CODE_VERSION, kernel)
        self._rejected(tmp_path, pickle.dumps(envelope, protocol=4), "malformed compiled columns")

    def test_store_io_errors_degrade_to_memory_once(self, tmp_path, monkeypatch):
        from repro import _store
        from repro.chaos import clear_plan, install_plan, single_fault_plan
        from repro.trace import code_cache

        monkeypatch.setattr(_store, "STORE_ERROR_THRESHOLD", 1)
        install_plan(single_fault_plan("io_error", "code_store", times=0))
        code_cache.store_compiled(tmp_path, "k1", small_kernel())
        code_cache.store_compiled(tmp_path, "k2", small_kernel())
        notes = code_cache.drain_notes()
        assert [kind for kind, _ in notes] == ["cache_degraded"]
        assert list(tmp_path.iterdir()) == []
        # reset_degradation re-arms the store path.
        clear_plan()
        code_cache.reset_degradation()
        code_cache.store_compiled(tmp_path, "k1", small_kernel())
        assert code_cache.load_compiled(tmp_path, "k1").name == "small"


# -- compiled code in bounded memory --------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")
EIGHT_BANKS = ("warp_swizzle", 8)


def _lowered(app, layout=EIGHT_BANKS):
    kernel = get_kernel(app)
    compile_kernel(kernel, get_mapping(layout[0]), layout[1])
    return kernel


def _bank_tuples(kernel):
    """Every entry of every bank row of ``kernel``'s warp traces."""
    return [
        banks
        for trace in kernel.ctas[0].warps
        for table in trace._code._bank_tables.values()
        for row in table._rows.values()
        for banks in row
    ]


def _source_tuples(kernel):
    return [srcs for trace in kernel.ctas[0].warps for srcs in trace.src_regs]


def _one_object_per_value(tuples):
    """Whether equal tuples are one object, and some value repeats."""
    first = {}
    return len(set(tuples)) < len(tuples) and all(first.setdefault(t, t) is t for t in tuples)


class TestSharing:
    """Bank tuples come from one process-wide table, source tuples from one
    table per synthesized kernel; pickling keeps both within an artifact."""

    def test_two_apps_share_every_equal_bank_tuple(self):
        a, b = _lowered("pb-sgemm"), _lowered("cg-lou")
        assert _one_object_per_value(_bank_tuples(a) + _bank_tuples(b))
        assert _one_object_per_value(_source_tuples(a))

    def test_table_is_bounded_per_bank_count(self):
        for banks in (2, 4, 8):
            _lowered(APP, ("warp_swizzle", banks))
        _lowered("pb-sgemm")
        assert all(_BANK_TUPLES[t] is t and len(t) <= MAX_SRC_OPERANDS for t in _BANK_TUPLES)
        for banks in (2, 4, 8):
            within = [t for t in _BANK_TUPLES if all(b < banks for b in t)]
            assert len(within) <= sum(banks**k for k in range(MAX_SRC_OPERANDS + 1))

    def test_loaded_artifact_keeps_the_sharing(self, tmp_path):
        store_compiled(tmp_path, "k", _lowered("pb-sgemm"))
        loaded = load_compiled(tmp_path, "k")
        assert _one_object_per_value(_bank_tuples(loaded))
        assert _one_object_per_value(_source_tuples(loaded))
        assert all(trace._code.well_formed(trace) for trace in loaded.ctas[0].warps)

    def test_artifact_bytes_do_not_depend_on_earlier_compiles(self, tmp_path):
        # A fresh interpreter (under the caller's hash seed) lowers only the
        # app; this process has lowered others first.
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.regalloc import get_mapping\n"
            "from repro.trace import compile_kernel\n"
            "from repro.trace.code_cache import store_compiled\n"
            "from repro.workloads import get_kernel\n"
            "kernel = get_kernel(sys.argv[2])\n"
            "compile_kernel(kernel, get_mapping('warp_swizzle'), 8)\n"
            "store_compiled(Path(sys.argv[1]), 'k', kernel)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        fresh, warm = tmp_path / "fresh", tmp_path / "warm"
        subprocess.run(
            [sys.executable, "-c", script, str(fresh), APP], env=env, check=True
        )
        for other in ("cg-lou", "pb-sgemm"):
            _lowered(other)
        store_compiled(warm, "k", _lowered(APP))
        (a,), (b,) = (list(d.glob("*.code.pkl")) for d in (fresh, warm))
        assert a.read_bytes() == b.read_bytes()


class TestMemoBound:
    """The compiled-kernel memo keeps the most recently used kernels only."""

    @staticmethod
    def _spec(i):
        return (("insts", 8 + i), ("warps", 2))

    def test_memo_stays_at_the_bound(self):
        bound = registry.COMPILED_MEMO_SIZE
        for i in range(bound + 3):
            get_compiled_kernel("ub-1op", *LAYOUT, use_disk=False, kernel=self._spec(i))
        assert len(registry._COMPILED_MEMO) == bound
        kept = [key[1] for key in registry._COMPILED_MEMO]
        assert kept == [self._spec(i) for i in range(3, bound + 3)]

    def test_one_apps_layouts_are_memory_hits(self):
        layouts = [("warp_swizzle", 2), ("warp_swizzle", 4), ("warp_swizzle", 8), ("mod", 2)]
        for layout in layouts:
            assert get_compiled_kernel(APP, *layout, use_disk=False)[1] == "compile"
        for layout in layouts + layouts[::-1]:
            assert get_compiled_kernel(APP, *layout, use_disk=False)[1] == "memory"

    def test_serial_batch_compiles_each_app_layout_once(self, tmp_path):
        # App-major, as the figures ask: each kernel spec under 2-, 8- and
        # 2-bank designs in turn, over more specs than the memo holds.
        specs = [self._spec(i) for i in range(registry.COMPILED_MEMO_SIZE + 2)]
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path, use_disk_cache=False)
        engine.run_many(
            SimPoint("ub-1op", design, kernel=spec)
            for spec in specs
            for design in ("baseline", "fully_connected", "rba")
        )
        assert engine.profile.code_compiles == 2 * len(specs)
        assert len(registry._COMPILED_MEMO) == registry.COMPILED_MEMO_SIZE
