"""Integration tests for tracing, stall attribution and run telemetry.

Three contracts from the observability layer's design:

* **conservation** — with attribution on, every sub-core's stall buckets
  sum to exactly ``cycles × issue_width`` (every scheduler slot of every
  cycle lands in exactly one bucket), and ``Σ issued + steals`` equals
  the SM's instruction count;
* **zero overhead when off** — an untraced run's serialized stats carry
  no observability fields and are byte-identical run to run;
* **determinism** — the exported Chrome trace is byte-identical across
  fresh interpreters with different ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.engine import (
    ExperimentEngine,
    SimPoint,
    point_key,
    trace_stem,
)
from repro.gpu import simulate
from repro.obs import Tracer, read_manifest
from repro.obs.events import validate_chrome_trace, validate_event
from repro.obs.stall import ISSUED, STALL_BUCKETS
from repro.trace import TraceBuilder, make_kernel

from .conftest import simple_kernel

SRC = str(Path(__file__).resolve().parent.parent / "src")

POINT = SimPoint("rod-nw", "baseline")


def barrier_memory_kernel(warps: int = 8):
    """Warps that load, synchronize, then compute — exercises memory
    stalls, barrier stalls and the event loop's fast-forward path."""
    traces = [
        TraceBuilder()
        .global_load(dst=8, addr_reg=0, base_address=4096 * w, num_lines=4)
        .barrier()
        .fma_chain(16)
        .build()
        for w in range(warps)
    ]
    return make_kernel("obs-barrier-mem", traces)


def assert_conserved(stats, config) -> None:
    expected = stats.cycles * config.issue_width
    for sm in stats.sms:
        assert sm.stall_cycles is not None
        issued = 0
        for buckets in sm.stall_cycles:
            assert set(buckets) == set(STALL_BUCKETS)
            assert all(v >= 0 for v in buckets.values())
            assert sum(buckets.values()) == expected
            issued += buckets[ISSUED]
        assert issued + sm.steals == sm.instructions
    assert stats.conservation_errors() == []


class TestStallConservation:
    def test_alu_kernel(self, tiny_volta):
        config = tiny_volta.replace(stall_attribution=True, sanitize=True)
        stats = simulate(simple_kernel(warps=12), config)
        assert stats.cycles > 0
        assert_conserved(stats, config)

    def test_memory_and_barrier_kernel(self, tiny_volta):
        config = tiny_volta.replace(stall_attribution=True, sanitize=True)
        stats = simulate(barrier_memory_kernel(), config)
        assert_conserved(stats, config)

    def test_multi_sm_with_tracer(self, volta):
        config = volta.replace(
            num_sms=2, stall_attribution=True, sanitize=True
        )
        tracer = Tracer(max_cycles=500)
        stats = simulate(simple_kernel(warps=16), config, tracer=tracer)
        assert_conserved(stats, config)
        assert len(tracer) > 0
        for event in tracer.events:
            assert validate_event(event) == []
            assert event["t"] < 500

    def test_conservation_survives_serialization(self, tiny_volta):
        from repro.metrics.stats import SimStats

        config = tiny_volta.replace(stall_attribution=True)
        stats = simulate(barrier_memory_kernel(), config)
        back = SimStats.from_payload(stats.to_payload())
        assert back.conservation_errors() == []
        assert back.sms[0].stall_cycles == stats.sms[0].stall_cycles


class TestTracingOffIsInert:
    def test_untraced_payload_has_no_obs_fields(self, tiny_volta):
        stats = simulate(simple_kernel(), tiny_volta)
        payload = stats.to_payload()
        for sm in payload["sms"]:
            assert "stall_cycles" not in sm
        assert all(sm.stall_cycles is None for sm in stats.sms)

    def test_untraced_runs_are_byte_identical(self, tiny_volta):
        a = simulate(simple_kernel(), tiny_volta)
        b = simulate(simple_kernel(), tiny_volta)
        dump = lambda s: json.dumps(s.to_payload(), sort_keys=True)  # noqa: E731
        assert dump(a) == dump(b)

    def test_traced_and_untraced_agree_on_timing(self, tiny_volta):
        plain = simulate(simple_kernel(), tiny_volta)
        traced = simulate(
            simple_kernel(),
            tiny_volta.replace(stall_attribution=True),
            tracer=Tracer(),
        )
        assert traced.cycles == plain.cycles
        assert traced.instructions == plain.instructions


class TestCacheKeySeparation:
    def test_trace_flag_keys_the_cache_apart(self):
        assert point_key(POINT) != point_key(POINT, trace=True)
        assert point_key(POINT, sanitize=True) != point_key(POINT, trace=True)
        assert point_key(POINT, trace=True) == point_key(POINT, trace=True)

    def test_trace_stem_is_filesystem_safe(self):
        stem = trace_stem(SimPoint("cg-lou", "rba", num_sms=4))
        assert stem == "cg-lou--rba--sms4"
        assert "/" not in stem and " " not in stem


class TestEngineTelemetry:
    def test_traced_run_writes_files_and_manifest(self, tmp_path):
        engine = ExperimentEngine(
            workers=1, use_disk_cache=False, trace_dir=tmp_path / "traces"
        )
        stats = engine.run_point(POINT)
        assert stats.sms[0].stall_cycles is not None

        stem = trace_stem(POINT)
        chrome = tmp_path / "traces" / f"{stem}.trace.json"
        events = tmp_path / "traces" / f"{stem}.events.jsonl"
        assert chrome.is_file() and events.is_file()
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []

        records = read_manifest(tmp_path / "traces" / "manifest.jsonl")
        assert len(records) == 1
        assert records[0]["source"] == "sim"
        assert records[0]["trace"] == str(chrome)
        assert "dropped" not in records[0]  # written only when a cap cut events
        assert records[0]["key"] == point_key(POINT, trace=True)

    def test_cache_hits_are_recorded_with_matching_digests(self, tmp_path):
        engine = ExperimentEngine(
            workers=1, use_disk_cache=False, trace_dir=tmp_path / "traces"
        )
        engine.run_point(POINT)
        engine.run_point(POINT)
        records = read_manifest(tmp_path / "traces" / "manifest.jsonl")
        assert [r["source"] for r in records] == ["sim", "memory"]
        assert records[0]["digest"] == records[1]["digest"]
        assert engine.profile.hit_rate() == 0.5

    def test_untraced_engine_writes_nothing(self, tmp_path):
        engine = ExperimentEngine(workers=1, use_disk_cache=False)
        stats = engine.run_point(POINT)
        assert engine.manifest is None
        assert stats.sms[0].stall_cycles is None

    def test_manifest_without_tracing(self, tmp_path):
        engine = ExperimentEngine(
            workers=1,
            use_disk_cache=False,
            manifest_path=tmp_path / "audit.jsonl",
        )
        engine.run_point(POINT)
        records = read_manifest(tmp_path / "audit.jsonl")
        assert len(records) == 1
        assert records[0]["source"] == "sim"
        assert "trace" not in records[0]

    def test_all_cache_profile_summary(self, tmp_path):
        engine = ExperimentEngine(workers=1, use_disk_cache=False)
        engine.run_point(POINT)
        engine.profile = type(engine.profile)()  # reset counters
        engine.run_point(POINT)
        summary = engine.profile.summary()
        assert "hit rate 100.0%" in summary
        assert "no simulations ran" in summary

    def test_worker_skew_of_even_and_skewed_loads(self):
        from repro.experiments.engine import EngineProfile

        profile = EngineProfile()
        assert profile.worker_skew() == 1.0
        profile.note_sim("a", 1.0, worker=1)
        profile.note_sim("b", 1.0, worker=2)
        assert profile.worker_skew() == 1.0
        profile.note_sim("c", 2.0, worker=2)
        assert profile.worker_skew() == pytest.approx(1.5)
        assert "worker skew" in profile.summary()


_TRACE_SCRIPT = """\
import sys
from repro.experiments.engine import ExperimentEngine, SimPoint

engine = ExperimentEngine(workers=1, use_disk_cache=False, trace_dir=sys.argv[1])
engine.run_point(SimPoint("rod-nw", "baseline"))
"""


def _trace_in_fresh_process(hash_seed: str, out_dir: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT, str(out_dir)],
        capture_output=True,
        env=env,
        check=True,
    )
    stem = trace_stem(SimPoint("rod-nw", "baseline"))
    return (out_dir / f"{stem}.trace.json").read_bytes()


@pytest.mark.slow
def test_chrome_trace_identical_across_hash_seeds(tmp_path):
    """Golden byte-stability: the exported trace document is a pure
    function of the simulation inputs, like the stats themselves."""
    out_a = _trace_in_fresh_process("0", tmp_path / "a")
    out_b = _trace_in_fresh_process("424242", tmp_path / "b")
    assert out_a, "subprocess produced no trace"
    assert out_a == out_b
