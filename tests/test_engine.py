"""Tests for the parallel, disk-cached experiment engine.

Covers the cache layer (key stability across processes, invalidation on
config changes, corrupted-file recovery), the parallel path (byte-identical
to serial), robustness (timeout → in-parent retry, pool-unavailable →
serial fallback), and the warm-cache contract (a re-run of a full figure
experiment performs zero simulations).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.engine as eng
from repro import _store
from repro.experiments.speedups import FIG01
from repro.experiments.engine import (
    ExperimentEngine,
    SimPoint,
    point_key,
)
from repro.experiments.export import dump_json
from repro.obs import read_manifest, stats_digest
from repro.workloads import app_names

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Small cross-suite sample; REPRO_FULL=1 widens to the whole registry.
SAMPLE_APPS = ["rod-nw", "ply-atax", "tpcU-q3", "db-rnn-inf"]

POINT = SimPoint("rod-nw", "baseline")


def serial_engine(tmp_path=None, **kw) -> ExperimentEngine:
    if tmp_path is None:
        kw.setdefault("use_disk_cache", False)
        return ExperimentEngine(workers=1, **kw)
    return ExperimentEngine(workers=1, cache_dir=tmp_path, **kw)


@functools.lru_cache(maxsize=None)
def reference():
    """POINT's stats from an engine with no disk cache to go wrong."""
    return serial_engine().run_point(POINT)


def parent_entry(schema: int = 2) -> str:
    """POINT's result entry as PR 12's ``_store_disk`` wrote it."""
    doc = {
        "schema": schema,
        "point": {"app": "rod-nw", "collect_timeline": False, "design": "baseline", "num_sms": 1},
        "stats": reference().to_payload(),
    }
    return json.dumps(doc, sort_keys=True)


def manifest_warnings(manifest) -> list:
    return [r["kind"] for r in read_manifest(manifest) if r["source"] == "warning"]


class TestCacheKey:
    def test_stable_across_fresh_processes(self):
        script = (
            "from repro.experiments.engine import SimPoint, point_key;"
            "print(point_key(SimPoint('rod-nw', 'baseline')))"
        )
        keys = set()
        for seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()
            keys.add(out)
        assert keys == {point_key(POINT)}

    def test_changes_when_config_field_changes(self, monkeypatch):
        from repro.config import volta_v100
        from repro.experiments import designs

        base_key = point_key(SimPoint("rod-nw", "baseline"))
        monkeypatch.setitem(
            designs.DESIGNS,
            "baseline",
            lambda: volta_v100().replace(rf_banks_per_subcore=4),
        )
        assert point_key(SimPoint("rod-nw", "baseline")) != base_key

    def test_distinguishes_point_fields(self):
        keys = {
            point_key(SimPoint("rod-nw", "baseline")),
            point_key(SimPoint("rod-nw", "rba")),
            point_key(SimPoint("rod-nw", "baseline", num_sms=2)),
            point_key(SimPoint("rod-nw", "baseline", collect_timeline=True)),
            point_key(SimPoint("rod-kmeans", "baseline")),
        }
        assert len(keys) == 5

    def test_kernel_spec_and_overrides_distinguish_points(self):
        # The journal, the manifest's chunk weights and the trace files are
        # keyed by these three; a point differing only in a new field must
        # not collide with its neighbour in any of them.
        points = [
            SimPoint("cg-lou", "baseline", 4),
            SimPoint("cg-lou", "baseline", 4, kernel={"num_ctas": 8}),
            SimPoint("cg-lou", "baseline", 4, kernel={"num_ctas": 16}),
            SimPoint("cg-lou", "baseline", 4, overrides={"rf_banks_per_subcore": 4}),
            SimPoint("cg-lou", "baseline", 4, overrides={"rf_banks_per_subcore": 1}),
            SimPoint("ub-1op", "cu2", kernel={"insts": 96}),
            SimPoint("ub-1op", "cu2", kernel={"insts": 128}),
            SimPoint("ub-1op", "cu2"),
        ]
        for derive in (point_key, SimPoint.label, eng.trace_stem):
            assert len({derive(p) for p in points}) == len(points), derive

    def test_empty_new_fields_leave_label_and_stem_as_they_were(self):
        point = SimPoint("cg-lou", "rba", 4, True, kernel={}, overrides={})
        assert point == SimPoint("cg-lou", "rba", 4, True)
        assert point.label() == "cg-lou × rba (num_sms=4 +timeline)"
        assert eng.trace_stem(point) == "cg-lou--rba--sms4-tl"

    def test_kernel_spec_and_overrides_are_canonical(self):
        a = SimPoint("fma_microbenchmark", kernel={"layout": "unbalanced", "fmas": 64})
        b = SimPoint("fma_microbenchmark", kernel=(("layout", "unbalanced"), ("fmas", 64)))
        assert a == b and hash(a) == hash(b)
        assert a.kernel == (("fmas", 64), ("layout", "unbalanced"))
        assert a.label() == "fma_microbenchmark[fmas=64,layout=unbalanced] × baseline (num_sms=1)"
        assert SimPoint(*dataclasses.astuple(a)) == a

    def test_overrides_apply_on_top_of_the_design(self):
        from repro.config import kepler
        from repro.experiments.designs import overrides_from

        point = SimPoint("rod-nw", "baseline", 1, overrides=overrides_from(kepler()))
        assert eng.resolved_config(point) == kepler().replace(num_sms=1)
        srr_banks = SimPoint("rod-nw", "srr", 2, overrides={"rf_banks_per_subcore": 4})
        cfg = eng.resolved_config(srr_banks)
        assert (cfg.assignment, cfg.rf_banks_per_subcore, cfg.num_sms) == ("srr", 4, 2)

    def test_dataclass_override_reaches_serial_and_pool_workers(self):
        # A worker rebuilds its point from the fields: an override's
        # MemoryConfig must arrive as a MemoryConfig, not a tuple.
        from repro.config.gpu_config import MemoryConfig

        memory = MemoryConfig(l1_size_bytes=64 * 1024)
        points = [SimPoint("rod-nw", d, overrides={"memory": memory}) for d in ("baseline", "rba")]
        assert eng.resolved_config(points[0]).memory == memory
        serial = serial_engine().run_point(points[0])
        pool = ExperimentEngine(workers=2, use_disk_cache=False)
        out = pool.run_many(points)
        assert (pool.profile.sims, pool.profile.retries) == (2, 0)
        assert dump_json(out[points[0]]) == dump_json(serial)

    def test_overrides_equal_to_the_design_share_its_key(self):
        # Overrides reach the key only through the resolved config.
        assert point_key(SimPoint("rod-nw", overrides={"scheduler": "gto"})) == point_key(
            SimPoint("rod-nw", "baseline")
        )

    def test_builder_and_variant_keys_carry_profile_version(self, monkeypatch):
        points = [
            SimPoint("fma_microbenchmark", kernel={"layout": "baseline", "fmas": 8}),
            SimPoint("cg-lou", kernel={"num_ctas": 8}),
        ]
        before = [point_key(p) for p in points]
        monkeypatch.setattr(eng, "PROFILE_VERSION", "test-bump")
        assert all(a != point_key(p) for a, p in zip(before, points))

    def test_unknown_workload_names_both_registries(self):
        with pytest.raises(KeyError, match="unknown application or kernel builder"):
            point_key(SimPoint("no-such-app"))

    def test_aliased_designs_share_a_key(self, monkeypatch):
        # The key hashes the *resolved* config, not the design string: two
        # names mapping to identical configs must share cache entries.
        from repro.config import volta_v100
        from repro.experiments import designs

        monkeypatch.setitem(designs.DESIGNS, "baseline_alias", volta_v100)
        assert point_key(SimPoint("rod-nw", "baseline_alias")) == point_key(
            SimPoint("rod-nw", "baseline")
        )


class TestDiskCache:
    def test_roundtrip_and_hit_counters(self, tmp_path):
        e1 = serial_engine(tmp_path)
        first = e1.run_point(POINT)
        assert e1.profile.sims == 1
        again = e1.run_point(POINT)
        assert again is first  # memory hit
        assert e1.profile.mem_hits == 1

        e2 = serial_engine(tmp_path)  # fresh engine, same disk
        cached = e2.run_point(POINT)
        assert e2.profile.sims == 0
        assert e2.profile.disk_hits == 1
        assert cached == first
        assert dump_json(cached) == dump_json(first)

    def test_timeline_survives_roundtrip(self, tmp_path):
        point = SimPoint("rod-nw", "baseline", collect_timeline=True)
        fresh = serial_engine(tmp_path).run_point(point)
        cached = serial_engine(tmp_path).run_point(point)
        assert cached == fresh
        tl = cached.sms[0].rf_read_timeline
        assert tl and all(isinstance(entry, tuple) for entry in tl)

    def _quarantined_once(self, tmp_path, text):
        """A bad entry at POINT's path: moved aside intact, warned, rebuilt."""
        manifest = tmp_path / "m.jsonl"
        e = serial_engine(tmp_path / "cache", manifest_path=manifest)
        path = e.cache_path(point_key(POINT))
        path.parent.mkdir()
        path.write_text(text)
        assert e.run_point(POINT) == reference()
        prof = e.profile
        assert (prof.sims, prof.disk_errors, prof.quarantines) == (1, 1, 1)
        # Exactly the bad file was quarantined (preserved, not destroyed).
        assert (path.parent / "quarantine" / path.name).read_text() == text
        assert manifest_warnings(manifest) == ["cache_quarantine"]
        # The cache path holds a fresh, current-generation entry again.
        assert path.read_text() == parent_entry(eng.CACHE_SCHEMA)

    def test_corrupted_cache_file_recovers(self, tmp_path):
        self._quarantined_once(tmp_path, "{ this is not json")

    def test_wrong_schema_is_quarantined(self, tmp_path):
        # CACHE_SCHEMA is part of the point key, so an entry at this key's
        # path stamped with another generation is inconsistent — it must
        # be quarantined and recomputed, not served and not left behind.
        self._quarantined_once(tmp_path, parent_entry(schema=-1))

    @pytest.mark.parametrize(
        "text",
        ["[]", '"x"', '{"schema": 2}', '{"schema": 2, "stats": [1]}', '{"schema": 2, "st'],
    )
    def test_entry_of_the_wrong_shape_is_quarantined(self, tmp_path, text):
        # Valid JSON that is not a result document (the first two crashed
        # the run before *any* decode error meant a bad entry), and a torn one.
        self._quarantined_once(tmp_path, text)

    def test_entry_written_by_the_parent_commit_is_a_hit(self, tmp_path):
        (tmp_path / f"{point_key(POINT)}.json").write_text(parent_entry())
        e = serial_engine(tmp_path)
        assert e.run_point(POINT) == reference()
        assert (e.profile.disk_hits, e.profile.sims) == (1, 0)

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("a file where the cache dir should be")
        e = ExperimentEngine(workers=1, cache_dir=blocked / "sub")
        stats = e.run_point(POINT)
        assert stats.cycles > 0
        assert e.profile.disk_errors >= 1


class TestRunMany:
    def test_dedup(self, tmp_path):
        e = serial_engine(tmp_path)
        out = e.run_many([POINT, POINT, SimPoint("rod-nw", "rba"), POINT])
        assert set(out) == {POINT, SimPoint("rod-nw", "rba")}
        assert e.profile.sims == 2

    def test_result_order_is_hits_then_misses_in_request_order(self, tmp_path):
        # Not the pool's completion order: two chunks, the first-requested
        # app being the slower one to arrive is exactly the case.
        points = [
            SimPoint("tpcU-q3", "baseline"),
            SimPoint("rod-nw", "rba"),
            SimPoint("rod-nw", "baseline"),
            SimPoint("tpcU-q3", "rba"),
        ]
        e = ExperimentEngine(workers=2, cache_dir=tmp_path)
        e.run_point(points[2])  # one hit, requested third
        out = e.run_many(points + [points[0]])
        assert e.profile.sims == 4 and e.profile.retries == 0
        assert list(out) == [points[2], points[0], points[1], points[3]]

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        apps = app_names() if os.environ.get("REPRO_FULL") == "1" else SAMPLE_APPS
        designs = ["baseline", "rba", "shuffle"]
        points = [SimPoint(a, d) for a in apps for d in designs]

        serial = serial_engine()  # no disk, no pool
        parallel = ExperimentEngine(workers=2, cache_dir=tmp_path / "par")
        got_serial = {p: serial.run_point(p) for p in points}
        got_parallel = parallel.run_many(points)
        assert parallel.profile.sims == len(points)

        for p in points:
            assert got_parallel[p] == got_serial[p], p
            assert dump_json(got_parallel[p]) == dump_json(got_serial[p]), p

    def test_timeout_retries_in_parent(self, tmp_path):
        e = ExperimentEngine(workers=2, cache_dir=tmp_path, timeout=1e-6)
        points = [POINT, SimPoint("rod-nw", "rba")]
        out = e.run_many(points)
        assert e.profile.retries >= 1
        assert out[POINT] == reference()

    def test_pool_unavailable_falls_back_to_serial(self, tmp_path, monkeypatch):
        e = ExperimentEngine(workers=4, cache_dir=tmp_path)

        def broken_pool(n):
            raise OSError("no processes for you")

        monkeypatch.setattr(e, "_make_pool", broken_pool)
        out = e.run_many([POINT, SimPoint("rod-nw", "rba")])
        assert len(out) == 2
        assert e.profile.sims == 2


class TestSanitizedEngine:
    def test_sanitize_changes_cache_key(self):
        assert point_key(POINT, sanitize=True) != point_key(POINT)

    def test_sanitized_results_equal_plain(self, tmp_path):
        plain = serial_engine(tmp_path).run_point(POINT)
        sanitized = serial_engine(tmp_path, sanitize=True).run_point(POINT)
        assert sanitized == plain
        assert dump_json(sanitized) == dump_json(plain)

    def test_configure_threads_sanitize_flag(self, tmp_path):
        old = eng._engine
        try:
            e = eng.configure(cache_dir=tmp_path, workers=1, sanitize=True)
            assert e.sanitize
            # Unspecified on the next call: the flag must persist.
            e2 = eng.configure(workers=1)
            assert e2.sanitize
            e3 = eng.configure(sanitize=False)
            assert not e3.sanitize
        finally:
            eng._engine = old


class TestConfigure:
    """``configure`` rebuilds from the arguments the engine was built with."""

    @pytest.fixture(autouse=True)
    def _restore_engine(self):
        old = eng._engine
        yield
        eng._engine = old

    def test_defaulted_paths_follow_a_later_trace_dir(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        eng.configure(trace_dir=a)
        e = eng.configure(trace_dir=b)
        assert e.manifest.path == b / "manifest.jsonl"
        assert e.journal.path == b / "journal.jsonl"

    def test_explicit_manifest_path_survives_a_later_trace_dir(self, tmp_path):
        chosen = tmp_path / "chosen.jsonl"
        eng.configure(manifest_path=chosen)
        e = eng.configure(trace_dir=tmp_path / "traces")
        assert e.manifest.path == chosen
        assert e.journal.path == tmp_path / "traces" / "journal.jsonl"

    def test_unknown_option_is_the_constructors_type_error(self):
        with pytest.raises(TypeError, match="no_such_option"):
            eng.configure(no_such_option=1)


def _tmp_leftovers(cache_dir: Path) -> list:
    return [p for p in cache_dir.iterdir() if p.name.endswith(".tmp")]


class TestStoreDiskRobustness:
    def test_failed_replace_leaves_no_tmp_files(self, tmp_path, monkeypatch):
        e = serial_engine(tmp_path)

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(eng.os, "replace", failing_replace)
        stats = e.run_point(POINT)  # the run itself must not fail
        assert stats.cycles > 0
        assert e.profile.disk_errors == 1
        assert _tmp_leftovers(tmp_path) == []

    @staticmethod
    def _failing_dump(monkeypatch, exc):
        def failing_dump(*args, **kwargs):
            raise exc

        monkeypatch.setattr(eng.json, "dump", failing_dump)

    def test_failed_serialize_leaves_no_tmp_files(self, tmp_path, monkeypatch):
        e = serial_engine(tmp_path)
        self._failing_dump(monkeypatch, OSError("no space left on device"))
        assert e.run_point(POINT).cycles > 0  # a store error never fails a run
        assert e.profile.disk_errors == 1
        assert _tmp_leftovers(tmp_path) == []

    def test_interrupted_store_leaves_no_tmp_files(self, tmp_path, monkeypatch):
        # What SIGTERM becomes while a batch runs: it propagates, but the
        # staged file must not stay in the shared directory forever.
        e = serial_engine(tmp_path)
        self._failing_dump(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            e.run_point(POINT)
        assert _tmp_leftovers(tmp_path) == []


class TestCorruptEntryRace:
    def test_corrupt_cleanup_never_discards_a_parallel_store(
        self, tmp_path, monkeypatch
    ):
        """The load / store race on a shared cache directory.

        Engine A opens a corrupted entry; while A holds it open, engine B
        (another process) atomically replaces the path with a fresh valid
        result.  A's corrupted-entry cleanup must remove only the file it
        read — B's result has to survive.
        """
        e1 = serial_engine(tmp_path)
        fresh = e1.run_point(POINT)
        key = point_key(POINT)
        path = e1.cache_path(key)
        good = path.read_text()
        path.write_text("{ corrupted")

        real_load = json.load

        def racing_load(fh, *args, **kwargs):
            incoming = tmp_path / "incoming.json"
            incoming.write_text(good)
            os.replace(incoming, path)  # engine B's store lands mid-read
            return real_load(fh, *args, **kwargs)  # raises: fh is corrupt

        monkeypatch.setattr(eng.json, "load", racing_load)
        e2 = serial_engine(tmp_path)
        assert e2.run_point(POINT) == fresh  # the bad read re-simulates
        assert e2.profile.disk_errors == 1
        monkeypatch.setattr(eng.json, "load", real_load)

        # Nothing was moved aside, so the replacement was never discarded.
        assert e2.profile.quarantines == 0
        assert not (tmp_path / "quarantine").exists()
        e3 = serial_engine(tmp_path)
        assert e3.run_point(POINT) == fresh
        assert e3.profile.disk_hits == 1
        assert e3.profile.sims == 0


def _stress_worker(args):
    """One process of the shared-cache stress test (module-level: pickled)."""
    cache_dir, fields = args
    engine = ExperimentEngine(workers=1, cache_dir=cache_dir)
    points = [SimPoint(*f) for f in fields]
    out = engine.run_many(points)
    return (
        engine.profile.disk_errors,
        {p.label(): stats_digest(s.to_payload()) for p, s in out.items()},
    )


@pytest.mark.slow
class TestSharedCacheStress:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="stress harness needs the fork start method",
    )
    def test_concurrent_engines_no_false_errors_no_lost_results(self, tmp_path):
        """N engines race on one cache dir: same digests, zero disk errors.

        Every process starts cold and simulates the same points, so their
        stores all race on the same keys; atomic replace plus the exact-
        unlink guard must yield no disk_errors and a valid entry per key.
        """
        fields = [
            ("rod-nw", "baseline", 1, False),
            ("tpcU-q3", "baseline", 1, False),
            ("rod-nw", "rba", 1, False),
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            results = pool.map(_stress_worker, [(tmp_path, fields)] * 4)

        digests = [d for _, d in results]
        assert all(d == digests[0] for d in digests), "lost or diverged result"
        assert [errs for errs, _ in results] == [0, 0, 0, 0]
        assert _tmp_leftovers(tmp_path) == []
        for f in fields:
            entry = json.loads(
                (tmp_path / f"{point_key(SimPoint(*f))}.json").read_text()
            )
            assert entry["schema"] == eng.CACHE_SCHEMA


#: Parent pid for the crash-injection test: the patched worker entry only
#: raises in pool children (set by the test; module-level so fork inherits).
_CRASH_PARENT_PID = -1
_real_simulate_point = eng._simulate_point


def _crashing_simulate_point(point_fields, **kwargs):
    if os.getpid() != _CRASH_PARENT_PID and point_fields[0] == "rod-nw":
        raise RuntimeError("simulated worker crash")
    return _real_simulate_point(point_fields, **kwargs)


class TestWorkerCrashRetry:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="crash injection relies on fork inheriting the patch",
    )
    def test_crashing_point_is_retried_and_recorded(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            sys.modules[__name__], "_CRASH_PARENT_PID", os.getpid()
        )
        monkeypatch.setattr(eng, "_simulate_point", _crashing_simulate_point)
        manifest = tmp_path / "manifest.jsonl"
        e = ExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            progress=True,
            manifest_path=manifest,
        )
        other = SimPoint("tpcU-q3", "baseline")
        out = e.run_many([POINT, other])

        # The crashing point was retried once, serially, in the parent.
        assert e.profile.retries == 1
        assert out[POINT] == reference()
        assert dump_json(out[POINT]) == dump_json(reference())
        assert out[other].cycles > 0

        # The manifest records how each point was actually resolved.
        sources = {r["point"]: r["source"] for r in read_manifest(manifest)}
        assert sources[POINT.label()] == "retry"
        assert sources[other.label()] == "sim"

        # The progress line survived the crash and covered every point.
        err = capsys.readouterr().err
        assert "2/2 points" in err
        assert "retries" in err


class TestWarmCacheFigure:
    def test_figure_rerun_performs_zero_simulations(self, tmp_path):
        old = eng._engine
        try:
            eng.configure(cache_dir=tmp_path, workers=1)
            apps = ["rod-nw", "tpcU-q3"]
            first = FIG01.run(apps=apps)
            expected_points = len(apps) * (1 + len(FIG01.designs))
            assert eng.get_engine().profile.sims == expected_points

            eng.configure(cache_dir=tmp_path, workers=1)  # fresh memory
            second = FIG01.run(apps=apps)
            prof = eng.get_engine().profile
            assert prof.sims == 0
            assert prof.disk_hits == expected_points
            assert first == second
        finally:
            eng._engine = old


class TestEngineFlagsReachPortedFigures:
    def test_sanitized_fig08_matches_plain_and_simulates_every_point(self, tmp_path):
        from repro.experiments import fig08_imbalance_scaling as fig08

        def text() -> str:
            return fig08.format_result(fig08.run(imbalances=(1, 8), base_fmas=16))

        old = eng._engine
        try:
            eng.configure(cache_dir=tmp_path, workers=1)
            plain = text()
            checked = eng.configure(sanitize=True, workers=1)
            assert text() == plain
            # 2 imbalances x 3 designs, each a sanitized simulation.
            assert checked.profile.sims == 6
        finally:
            eng._engine = old


class TestAppAffinityChunks:
    """The pool fans out app-affinity chunks: every point of one app lands
    on one worker, so each trace is compiled once and reused across designs.
    """

    def test_all_points_of_one_app_share_a_chunk(self, tmp_path):
        e = ExperimentEngine(workers=3, cache_dir=tmp_path)
        points = [
            SimPoint("rod-nw", "baseline"),
            SimPoint("rod-nw", "rba"),
            SimPoint("rod-nw", "fully_connected"),
            SimPoint("tpcU-q3", "baseline"),
            SimPoint("tpcU-q3", "rba"),
            SimPoint("ply-atax", "baseline"),
        ]
        chunks = e._plan_chunks([(p, "key") for p in points])
        assert 1 <= len(chunks) <= 3
        owners = {}
        for i, chunk in enumerate(chunks):
            for p in chunk:
                owners.setdefault(p.app, set()).add(i)
        assert all(len(bins) == 1 for bins in owners.values())
        assert sorted(p for c in chunks for p in c) == sorted(points)

    def test_each_kernel_spec_of_one_builder_is_its_own_group(self, tmp_path):
        e = ExperimentEngine(workers=2, cache_dir=tmp_path)
        points = [
            SimPoint("fma_microbenchmark", d, kernel={"layout": lay, "fmas": 8})
            for lay in ("baseline", "unbalanced")
            for d in ("baseline", "srr")
        ]
        chunks = e._plan_chunks([(p, "key") for p in points])
        assert sorted(len(c) for c in chunks) == [2, 2]
        assert all(len({p.kernel for p in c}) == 1 for c in chunks)

    def test_chunk_planning_balances_by_manifest_seconds(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        e = ExperimentEngine(
            workers=2, cache_dir=tmp_path, manifest_path=manifest
        )
        heavy = SimPoint("rod-nw", "baseline")
        light1 = SimPoint("tpcU-q3", "baseline")
        light2 = SimPoint("ply-atax", "baseline")
        assert e.manifest is not None
        for p, secs in [(heavy, 10.0), (light1, 1.0), (light2, 1.0)]:
            e.manifest.record(p.label(), "key", "sim", "digest", seconds=secs)
        chunks = e._plan_chunks(
            [(p, "key") for p in (heavy, light1, light2)]
        )
        # LPT over past seconds: the heavy app gets a bin of its own, the
        # two light apps share the other.
        apps = sorted(sorted({p.app for p in c}) for c in chunks)
        assert apps == [["ply-atax", "tpcU-q3"], ["rod-nw"]]

    def test_one_trace_compile_per_app_across_designs(self, tmp_path):
        from repro.workloads import registry

        registry._COMPILED_MEMO.clear()  # forks must not inherit warm code
        manifest = tmp_path / "manifest.jsonl"
        e = ExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        points = [
            SimPoint("rod-nw", "baseline"),
            SimPoint("rod-nw", "rba"),
            SimPoint("tpcU-q3", "baseline"),
            SimPoint("tpcU-q3", "rba"),
        ]
        out = e.run_many(points)
        assert len(out) == 4
        compiles = [
            r for r in read_manifest(manifest) if r["source"] == "compile"
        ]
        counts = {}
        for r in compiles:
            counts[r["point"]] = counts.get(r["point"], 0) + 1
        # baseline and rba share the bank layout, so each app's trace is
        # compiled exactly once — by the one worker owning its chunk.
        assert counts == {"trace:rod-nw": 1, "trace:tpcU-q3": 1}

#: Parent pid for the chunk-crash test (same fork-inheritance trick).
_CHUNK_CRASH_PARENT_PID = -1


def _chunk_crashing_simulate_point(point_fields, **kwargs):
    if (
        os.getpid() != _CHUNK_CRASH_PARENT_PID
        and point_fields[0] == "rod-nw"
        and point_fields[1] == "rba"
    ):
        raise RuntimeError("simulated crash mid-chunk")
    return _real_simulate_point(point_fields, **kwargs)


class TestChunkFailureRetry:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="crash injection relies on fork inheriting the patch",
    )
    def test_failed_chunk_is_retried_point_by_point(
        self, tmp_path, monkeypatch
    ):
        """A crash on ONE point of a multi-point app-affinity chunk fails
        the whole chunk future; every point of that chunk — including the
        ones simulated before the crash — must be re-run serially in the
        parent, while other chunks are unaffected."""
        monkeypatch.setattr(
            sys.modules[__name__], "_CHUNK_CRASH_PARENT_PID", os.getpid()
        )
        monkeypatch.setattr(eng, "_simulate_point", _chunk_crashing_simulate_point)
        manifest = tmp_path / "manifest.jsonl"
        e = ExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        # All rod-nw points share one chunk (app affinity); the crash hits
        # the second of the three, after "baseline" already computed.
        chunk_points = [
            SimPoint("rod-nw", "baseline"),
            SimPoint("rod-nw", "rba"),
            SimPoint("rod-nw", "shuffle"),
        ]
        other = SimPoint("tpcU-q3", "baseline")
        out = e.run_many(chunk_points + [other])

        assert e.profile.retries == len(chunk_points)
        sources = {r["point"]: r["source"] for r in read_manifest(manifest)}
        for p in chunk_points:
            assert sources[p.label()] == "retry"
            reference = serial_engine().run_point(p)
            assert out[p] == reference
            assert dump_json(out[p]) == dump_json(reference)
        assert sources[other.label()] == "sim"
        assert out[other].cycles > 0


class TestProgressAndProfile:
    def test_progress_line_shape(self, capsys):
        e = serial_engine(progress=True)
        e.profile.mem_hits = 1
        e.profile.note_sim("p", 0.5, worker=1)
        e._progress_line(2, 4)
        e._progress_end()
        err = capsys.readouterr().err
        assert err == "\r[engine] 2/4 points (hits 1, sims 1, retries 0)\n"

    def test_progress_off_is_silent(self, capsys):
        e = serial_engine(progress=False)
        e._progress_line(1, 2)
        e._progress_end()
        assert capsys.readouterr().err == ""

    def test_profile_summary_content(self):
        prof = eng.EngineProfile(mem_hits=2, disk_hits=1, misses=2)
        prof.note_sim("slow × point", 4.0, worker=100)
        prof.note_sim("fast × point", 1.0, worker=200)
        prof.retries = 1
        text = prof.summary()
        assert "cache hit rate 60.0% (3/5 lookups)" in text
        assert "worker skew   1.60x max/mean over 2 workers" in text
        assert "sim wall time 5.00s" in text
        # Slowest-first ranking.
        assert text.index("slow × point") < text.index("fast × point")

    def test_profile_summary_all_cached(self):
        prof = eng.EngineProfile(mem_hits=3)
        assert "every point was served from cache" in prof.summary()
        assert "slowest points" not in prof.summary()

    def test_pool_simulate_phase_is_each_points_own_seconds(self):
        """Chunks simulate side by side: the ``simulate`` phase sums each
        settled point's own seconds, never the overlapping chunk spans."""
        e = ExperimentEngine(workers=2, use_disk_cache=False, progress=False)
        points = [
            SimPoint(app, design)
            for app in ("rod-nw", "tpcU-q3")
            for design in ("baseline", "rba")
        ]
        assert len(e._plan_chunks([(p, "key") for p in points])) == 2
        t0 = time.perf_counter()
        e.run_many(points)
        wall = time.perf_counter() - t0
        prof = e.profile
        assert prof.phase_counts["simulate"] == len(points)
        assert prof.phase_seconds["simulate"] == pytest.approx(
            sum(prof.worker_seconds.values())
        )
        assert prof.phase_seconds["simulate"] <= wall * e.workers


class TestEngineObservability:
    def test_metrics_off_is_byte_identical(self, tmp_path):
        from repro.obs import MetricsRegistry, stats_digest, validate_metrics_json

        plain = serial_engine(tmp_path / "plain").run_point(POINT)
        registry = MetricsRegistry()
        metered_engine = ExperimentEngine(
            workers=1,
            cache_dir=tmp_path / "metered",
            metrics=registry,
            status_path=tmp_path / "status.json",
        )
        metered = metered_engine.run_many([POINT])[POINT]
        assert metered == plain
        assert dump_json(metered) == dump_json(plain)
        assert stats_digest(metered.to_payload()) == stats_digest(
            plain.to_payload()
        )
        # The metered run published its profile at the end of the batch.
        doc = registry.to_json()
        assert validate_metrics_json(doc) == []
        assert doc["metrics"]["points"] == {"memory": 0, "disk": 0, "sim": 1, "retry": 0}
        assert doc["metrics"]["phase_counts"] == {"cache-load": 1, "simulate": 1}
        assert doc == registry.to_json()

    def test_heartbeat_written_during_pooled_run(self, tmp_path):
        from repro.obs import read_status

        status = tmp_path / "status.json"
        e = ExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache", status_path=status
        )
        points = [POINT, SimPoint("tpcU-q3", "baseline")]
        e.run_many(points)
        doc = read_status(status)
        assert doc["state"] == "done"
        assert doc["done"] == len(points)
        assert doc["failed"] == 0 and doc["in_flight"] == 0

    def test_chunk_timeout_leaves_manifest_warning(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        e = ExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            timeout=1e-6,
            manifest_path=manifest,
        )
        points = [POINT, SimPoint("rod-nw", "rba")]
        out = e.run_many(points)
        warnings = [
            r for r in read_manifest(manifest) if r["source"] == "warning"
        ]
        assert warnings and warnings[0]["kind"] == "chunk_timeout"
        assert "budget" in warnings[0]["detail"]
        # Despite the timeout, the retry path still produced real results.
        assert out[POINT] == reference()


class TestChaosIntegration:
    """Injected faults must degrade gracefully and never change results."""

    @pytest.fixture(autouse=True)
    def _no_plan(self):
        from repro.chaos import clear_plan

        clear_plan()
        yield
        clear_plan()

    def test_store_io_errors_degrade_to_memory_once(self, tmp_path, monkeypatch):
        from repro.chaos import install_plan, single_fault_plan

        manifest = tmp_path / "m.jsonl"
        e = serial_engine(tmp_path / "cache", manifest_path=manifest)
        monkeypatch.setattr(_store, "STORE_ERROR_THRESHOLD", 1)
        install_plan(single_fault_plan("io_error", "result_store", times=0))
        first = e.run_point(POINT)
        e.run_point(SimPoint("rod-nw", "rba"))
        # Only the first store hit the disk; the second short-circuited,
        # so exactly one error and one structured warning.
        assert e.profile.disk_errors == 1
        assert manifest_warnings(manifest) == ["cache_degraded"]
        assert not list((tmp_path / "cache").glob("*.json"))
        # Results are unaffected: memory-only, but correct.
        assert first == reference()

    def test_chaos_corrupted_read_quarantines_and_recovers(self, tmp_path):
        from repro.chaos import install_plan, single_fault_plan

        fresh = serial_engine(tmp_path).run_point(POINT)
        install_plan(single_fault_plan("corrupt", "result_read", times=1))
        manifest = tmp_path / "m.jsonl"
        e2 = serial_engine(tmp_path, manifest_path=manifest)
        again = e2.run_point(POINT)
        assert e2.profile.sims == 1
        assert e2.profile.quarantines == 1
        assert e2.profile.degradations == {"cache_quarantine": 1}
        assert stats_digest(again.to_payload()) == stats_digest(
            fresh.to_payload()
        )
        assert list((tmp_path / "quarantine").iterdir())
        assert manifest_warnings(manifest) == ["cache_quarantine"]

    def test_circuit_breaker_opens_and_run_still_completes(
        self, tmp_path, monkeypatch
    ):
        from repro.chaos import install_plan, single_fault_plan

        manifest = tmp_path / "m.jsonl"
        e = ExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache", manifest_path=manifest
        )
        monkeypatch.setattr(eng, "CIRCUIT_THRESHOLD", 1)
        # Every worker-side simulation crashes; the in-parent retries
        # (outside the rule's scope) heal each point.
        install_plan(
            single_fault_plan("crash", "sim", scope="worker", times=0)
        )
        points = [POINT, SimPoint("rod-nw", "rba")]
        out = e.run_many(points)
        assert len(out) == 2
        assert e._circuit_open
        assert e.profile.retries == 2
        assert e.profile.phase_counts["retry"] == 2
        assert e.profile.degradations == {"circuit_open": 1}
        assert manifest_warnings(manifest).count("circuit_open") == 1
        assert "chunk_crash" in manifest_warnings(manifest)
        assert out[POINT] == reference()


class TestJournalResume:
    def test_settled_points_are_journaled(self, tmp_path):
        from repro.obs import load_journal

        journal = tmp_path / "journal.jsonl"
        e = serial_engine(tmp_path / "cache", journal_path=journal)
        stats = e.run_point(POINT)
        assert load_journal(journal) == {
            e._point_key(POINT): stats_digest(stats.to_payload())
        }

    def test_resume_serves_journaled_points_from_disk(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"
        serial_engine(cache, journal_path=journal).run_point(POINT)
        e2 = serial_engine(cache, journal_path=journal, resume=True)
        e2.run_point(POINT)
        assert e2.profile.sims == 0
        assert e2.profile.disk_hits == 1
        assert e2.profile.resumed == 1
        assert "resumed" in e2.profile.summary()

    def test_run_many_resimulates_only_missing_points(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"
        points = [POINT, SimPoint("rod-nw", "rba")]
        serial_engine(cache, journal_path=journal).run_point(points[0])
        e2 = serial_engine(cache, journal_path=journal, resume=True)
        out = e2.run_many(points)
        assert len(out) == 2
        assert e2.profile.sims == 1
        assert e2.profile.resumed == 1

    def test_journal_mismatch_resimulates_and_warns(self, tmp_path):
        from repro.obs import load_journal

        journal = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"
        manifest = tmp_path / "m.jsonl"
        e1 = serial_engine(cache, journal_path=journal)
        e1.run_point(POINT)
        key = e1._point_key(POINT)
        # The cache changed underneath the journal: forge the checkpoint.
        journal.write_text(
            json.dumps(
                {"v": 1, "key": key, "digest": "forged", "point": POINT.label()}
            )
            + "\n",
            encoding="utf-8",
        )
        e2 = serial_engine(
            cache, journal_path=journal, resume=True, manifest_path=manifest
        )
        e2.run_point(POINT)
        assert e2.profile.sims == 1
        assert e2.profile.resumed == 0
        assert e2.profile.degradations == {"journal_mismatch": 1}
        assert manifest_warnings(manifest) == ["journal_mismatch"]
        # The re-simulated point re-journaled its true digest (last wins).
        assert load_journal(journal)[key] != "forged"


class TestInterruptShutdown:
    def test_keyboard_interrupt_flushes_telemetry(self, tmp_path, monkeypatch):
        manifest = tmp_path / "m.jsonl"
        status = tmp_path / "status.json"
        e = ExperimentEngine(
            workers=1,
            cache_dir=tmp_path / "cache",
            manifest_path=manifest,
            status_path=status,
        )

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(eng, "_simulate_point", boom)
        with pytest.raises(KeyboardInterrupt):
            e.run_many([POINT])
        doc = json.loads(status.read_text(encoding="utf-8"))
        assert doc["state"] == "interrupted"
        assert e.profile.degradations == {"interrupted": 1}
        warnings = [
            r for r in read_manifest(manifest) if r["source"] == "warning"
        ]
        assert any(r["kind"] == "interrupted" for r in warnings)
        assert any("--resume" in r["detail"] for r in warnings)

    def test_sigterm_converts_to_keyboard_interrupt_and_restores(self):
        import signal

        e = serial_engine()
        token = e._install_sigterm()
        assert token is not None
        try:
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
        finally:
            e._restore_sigterm(token)
        assert signal.getsignal(signal.SIGTERM) == token[0]
