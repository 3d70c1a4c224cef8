"""Unit tests for the observability layer (repro.obs) and its renderers."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    RunManifest,
    Tracer,
    chrome_trace,
    dumps_chrome_trace,
    read_manifest,
    stats_digest,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.chrome_trace import cu_tid, iter_jsonl, subcore_tid, warp_tid
from repro.obs.events import (
    EVENT_FIELDS,
    EVENT_KINDS,
    validate_chrome_trace,
    validate_event,
)
from repro.obs.stall import (
    BANK_CONFLICT,
    ISSUED,
    SCOREBOARD,
    STALL_BUCKETS,
    empty_buckets,
    merge_buckets,
)


def _emit_one_of_each(tracer: Tracer) -> None:
    tracer.warp_issue(0, 0, 1, 5, "FFMA", 3, "gto", True)
    tracer.warp_stall(1, 0, 1, SCOREBOARD, slots=2, dur=4)
    tracer.warp_barrier(2, 0, 1, 5)
    tracer.warp_exit(3, 0, 1, 5)
    tracer.warp_migrate(4, 0, 2, 5, 1)
    tracer.cta_launch(5, 0, 7, 8)
    tracer.cta_retire(6, 0, 7, 100)
    tracer.cu_span(7, 0, 1, 0, 5, "LDG", 3)
    tracer.bank_conflict(8, 0, 1, 2)
    tracer.mem_access(9, 0, "global", 200, l1_hits=3, l1_misses=1)


class TestTracer:
    def test_every_helper_emits_a_schema_valid_event(self):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        assert len(tracer) == 10
        for event in tracer.events:
            assert validate_event(event) == []
        assert {e["e"] for e in tracer.events} == set(EVENT_KINDS)

    def test_max_cycles_caps_the_event_stream(self):
        tracer = Tracer(max_cycles=5)
        _emit_one_of_each(tracer)
        assert all(e["t"] < 5 for e in tracer.events)
        assert len(tracer) == 5
        assert tracer.dropped == 5

    def test_max_cycles_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_cycles=0)

    def test_events_view_decodes_the_records(self):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        tracer.mem_access(10, 0, "shared", 5)
        events = tracer.events
        assert events[0] == {"t": 0, "e": "issue", "sm": 0, "sc": 1, "w": 5, "op": "FFMA",
                             "pc": 3, "pol": "gto", "greedy": 1}
        assert events[9] == {"t": 9, "e": "mem", "sm": 0, "kind": "global", "dur": 200,
                             "h": 3, "m": 1}
        assert events[10] == {"t": 10, "e": "mem", "sm": 0, "kind": "shared", "dur": 5}
        # The view is a decoded copy: editing it leaves the stream alone.
        events.clear()
        assert len(tracer.events) == len(tracer) == 11

    def test_durations_are_clamped_positive(self):
        tracer = Tracer()
        tracer.cta_retire(0, 0, 0, 0)
        tracer.mem_access(0, 0, "shared", 0)
        assert all(e["dur"] >= 1 for e in tracer.events)


class TestEventSchema:
    def test_unknown_kind_rejected(self):
        assert validate_event({"e": "nope", "t": 0})

    def test_missing_field_reported(self):
        errors = validate_event({"e": "issue", "t": 0, "sm": 0})
        missing = {f for f in EVENT_FIELDS["issue"] if f not in ("sm",)}
        assert len(errors) == len(missing)

    def test_negative_cycle_rejected(self):
        event = {"e": "barrier", "t": -1, "sm": 0, "sc": 0, "w": 0}
        assert validate_event(event)


class TestChromeTrace:
    def test_export_passes_its_own_validator(self):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_track_id_scheme(self):
        assert subcore_tid(0) == 10
        assert cu_tid(0, 0) == 11
        assert warp_tid(3) == 1003
        # Collector-unit tids never collide with the next sub-core's track.
        assert cu_tid(0, 8) < subcore_tid(1)

    def test_events_land_on_their_tracks(self):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        doc = chrome_trace(tracer)
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
        assert by_name["FFMA"]["tid"] == warp_tid(5)
        assert by_name[f"stall:{SCOREBOARD}"]["tid"] == subcore_tid(1)
        assert by_name["LDG"]["tid"] == cu_tid(1, 0)
        assert by_name["mem:global"]["tid"] == 1
        assert by_name["CTA 7 launch"]["tid"] == 1

    def test_every_track_gets_metadata(self):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        doc = chrome_trace(tracer)
        named = {
            (e["pid"], e["tid"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {(e["pid"], e["tid"]) for e in doc["traceEvents"] if e["ph"] != "M"}
        assert used <= named

    def test_serialization_is_byte_stable(self):
        a, b = Tracer(), Tracer()
        _emit_one_of_each(a)
        _emit_one_of_each(b)
        assert dumps_chrome_trace(a) == dumps_chrome_trace(b)

    @pytest.mark.parametrize("repeats", [0, 1, 150])
    def test_streamed_pieces_equal_one_document_dump(self, repeats):
        # 150 x 10 events span several export batches.
        tracer = Tracer()
        for _ in range(repeats):
            _emit_one_of_each(tracer)
        whole = json.dumps(chrome_trace(tracer), sort_keys=True, separators=(",", ":"))
        assert dumps_chrome_trace(tracer) == whole

    def test_file_round_trip(self, tmp_path):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        path = tmp_path / "t.trace.json"
        write_chrome_trace(tracer, path)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_jsonl_round_trips_raw_events(self, tmp_path):
        tracer = Tracer()
        _emit_one_of_each(tracer)
        path = tmp_path / "t.events.jsonl"
        write_events_jsonl(tracer, path)
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert back == tracer.events
        assert list(iter_jsonl(tracer)) == [
            json.dumps(e, sort_keys=True, separators=(",", ":"))
            for e in tracer.events
        ]


class TestStallBuckets:
    def test_empty_buckets_cover_the_taxonomy_in_order(self):
        assert tuple(empty_buckets()) == STALL_BUCKETS
        assert all(v == 0 for v in empty_buckets().values())

    def test_merge_sums_per_subcore_dicts(self):
        a = empty_buckets()
        a[ISSUED] = 3
        b = empty_buckets()
        b[ISSUED] = 1
        b[BANK_CONFLICT] = 2
        merged = merge_buckets([a, b])
        assert merged[ISSUED] == 4
        assert merged[BANK_CONFLICT] == 2
        assert sum(merged.values()) == 6


class TestManifest:
    def test_record_and_read_round_trip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = RunManifest(path)
        manifest.record("a × b", "k" * 64, "sim", "d" * 16, seconds=1.5,
                        worker=123, trace="a.trace.json")
        manifest.record("a × b", "k" * 64, "memory", "d" * 16)
        assert manifest.records_written == 2
        records = read_manifest(path)
        assert [r["source"] for r in records] == ["sim", "memory"]
        assert records[0]["seconds"] == 1.5
        assert records[0]["trace"] == "a.trace.json"
        assert "seconds" not in records[1]

    def test_unknown_source_rejected(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        with pytest.raises(ValueError):
            manifest.record("p", "k", "telepathy", "d")

    def test_stats_digest_is_stable_and_content_addressed(self):
        a = {"cycles": 10, "sms": [1, 2]}
        assert stats_digest(a) == stats_digest({"sms": [1, 2], "cycles": 10})
        assert stats_digest(a) != stats_digest({"cycles": 11, "sms": [1, 2]})
        assert len(stats_digest(a)) == 16


class TestStackedCharts:
    def test_segments_always_fill_the_exact_width(self):
        from repro.viz import stacked_bar_chart

        rows = {
            "sc0": {"a": 1, "b": 1, "c": 1},
            "sc1": {"a": 997, "b": 2, "c": 1},
            "sc2": {"a": 1, "b": 0, "c": 0},
        }
        out = stacked_bar_chart("t", rows, width=50)
        bars = [line for line in out.splitlines() if "|" in line]
        assert len(bars) == 3
        for line in bars:
            assert len(line.split("|")[1]) == 50

    def test_zero_total_row_renders_empty(self):
        from repro.viz import stacked_bar_chart

        out = stacked_bar_chart("t", {"sc0": {"a": 0}}, width=10)
        assert "(empty)" in out

    def test_stall_chart_names_nonzero_buckets(self):
        from repro.viz import stall_chart

        buckets = empty_buckets()
        buckets[ISSUED] = 30
        buckets[SCOREBOARD] = 70
        out = stall_chart([buckets, dict(buckets)])
        assert "issued" in out and "scoreboard" in out
        assert "sc0" in out and "sc1" in out


class TestObsCLI:
    def test_validate_accepts_good_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tracer = Tracer()
        _emit_one_of_each(tracer)
        path = tmp_path / "good.trace.json"
        write_chrome_trace(tracer, path)
        assert main(["--validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        assert main(["--validate", str(path)]) == 1

    def test_summarize_counts_event_kinds(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tracer = Tracer()
        _emit_one_of_each(tracer)
        path = tmp_path / "e.events.jsonl"
        write_events_jsonl(tracer, path)
        assert main(["--summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "10 events" in out

    def test_usage_error_without_mode(self, capsys):
        from repro.obs.__main__ import main

        assert main(["something.json"]) == 2
