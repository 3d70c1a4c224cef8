"""Run-level metrics, heartbeat and manifest-schema tests (repro.obs).

Covers the metrics document (a snapshot of the engine profile) and its
validator, the heartbeat's throttled atomic writes and staleness
detection under a fake clock, and the versioned run-manifest records
(current / legacy / unknown-version classification).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.engine import EngineProfile
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    METRICS_SCHEMA_VERSION,
    Heartbeat,
    MetricsRegistry,
    RunManifest,
    read_status,
    validate_manifest,
    validate_manifest_record,
    validate_metrics_json,
    validate_status,
)
from repro.obs.heartbeat import STATUS_SCHEMA_VERSION
from repro.obs.metrics import QUANTITIES


def make_registry() -> MetricsRegistry:
    """A document published from a profile with every quantity set."""
    prof = EngineProfile(
        mem_hits=2, disk_hits=1, misses=3, retries=1, code_compiles=2, code_loads=1
    )
    prof.note_sim("a × baseline", 1.5, worker=7)
    prof.note_sim("b × baseline", 0.5, worker=8)
    prof.note_sim("b × rba", 0.25, worker=8)  # the retried point
    for phase, secs in (("cache-load", 0.01), ("simulate", 1.5), ("simulate", 0.5), ("retry", 0.25)):
        prof.note_phase(phase, secs)
    prof.degradations["circuit_open"] = 1
    r = MetricsRegistry()
    r.publish(prof, points=6, seconds=3.0)
    return r


class TestExports:
    def test_publish_snapshots_the_profile(self):
        doc = make_registry().to_json()
        assert validate_metrics_json(doc) == []
        assert doc["schema"] == METRICS_SCHEMA_VERSION == 2
        got = doc["metrics"]
        assert set(got) == set(QUANTITIES)
        assert got["points"] == {"memory": 2, "disk": 1, "sim": 2, "retry": 1}
        assert got["code"] == {"compile": 2, "disk": 1}
        assert got["degradations"] == {"circuit_open": 1}
        assert got["phase_counts"] == {"cache-load": 1, "retry": 1, "simulate": 2}
        assert got["phase_seconds"]["simulate"] == 2.0
        assert got["cache_hit_ratio"] == 0.5
        assert got["worker_skew"] == pytest.approx(1.5 / 1.125)
        assert got["points_per_sec"] == 2.0
        assert got["worker_seconds"] == {"7": 1.5, "8": 0.75}

    def test_publish_is_a_snapshot(self):
        prof = EngineProfile(mem_hits=1)
        r = MetricsRegistry()
        r.publish(prof, points=1, seconds=0.0)
        prof.mem_hits += 1
        prof.degradations["interrupted"] = 1
        assert r.to_json()["metrics"]["points"]["memory"] == 1
        assert r.to_json()["metrics"]["degradations"] == {}
        assert r.to_json()["metrics"]["points_per_sec"] == 0.0

    def test_unpublished_registry_is_an_empty_valid_document(self):
        doc = MetricsRegistry().to_json()
        assert doc == {"schema": METRICS_SCHEMA_VERSION, "metrics": {}}
        assert validate_metrics_json(doc) == []

    def test_json_survives_serialization(self):
        doc = make_registry().to_json()
        assert json.loads(json.dumps(doc)) == doc

    def test_json_validator_rejects_unknown_schema(self):
        doc = make_registry().to_json()
        doc["schema"] = 1
        assert any("schema" in p for p in validate_metrics_json(doc))

    def test_json_validator_rejects_malformed_quantities(self):
        for name, value, problem in [
            ("repro_engine_points_total", 3, "unknown quantity"),
            ("worker_skew", "1.0", "must be a number"),
            ("cache_hit_ratio", True, "must be a number"),
            ("points", {"sim": "3"}, "must map names to numbers"),
            ("worker_seconds", [1.0], "must map names to numbers"),
        ]:
            doc = make_registry().to_json()
            doc["metrics"][name] = value
            assert any(problem in p for p in validate_metrics_json(doc)), name
        assert validate_metrics_json([]) == ["metrics document must be a JSON object"]

    def test_export_is_deterministic(self):
        assert make_registry().to_json() == make_registry().to_json()


class _Clock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestHeartbeat:
    def test_lifecycle_and_eta(self, tmp_path):
        clock = _Clock()
        hb = Heartbeat(tmp_path / "status.json", interval=5.0, clock=clock)
        hb.begin(10, in_flight=10)
        clock.now += 10.0
        hb.advance(done=5)
        doc = read_status(tmp_path / "status.json")
        assert doc["done"] == 5 and doc["in_flight"] == 5
        assert doc["points_per_sec"] == pytest.approx(0.5)
        assert doc["eta_seconds"] == pytest.approx(10.0)
        hb.finish()
        doc = read_status(tmp_path / "status.json")
        assert doc["state"] == "done" and doc["in_flight"] == 0

    def test_writes_are_throttled_but_forced_on_transitions(self, tmp_path):
        clock = _Clock()
        hb = Heartbeat(tmp_path / "s.json", interval=100.0, clock=clock)
        hb.begin(4, in_flight=4)
        writes = hb.writes
        hb.advance(done=1)  # within interval: skipped
        hb.advance(done=1)
        assert hb.writes == writes
        clock.now += 101.0
        hb.advance(done=1)
        assert hb.writes == writes + 1
        hb.finish()  # forced
        assert hb.writes == writes + 2

    def test_stale_worker_detection(self, tmp_path):
        clock = _Clock()
        hb = Heartbeat(tmp_path / "s.json", clock=clock)
        hb.worker_started("chunk-0", deadline=clock.now + 5.0)
        hb.worker_started("chunk-1", deadline=None)
        assert hb.stale_workers() == []
        clock.now += 6.0
        assert hb.stale_workers() == ["chunk-0"]
        assert hb.workers["chunk-0"]["stale"] is True
        hb.worker_progress("chunk-0")
        assert hb.workers["chunk-0"]["stale"] is False

    def test_validate_status_rejects_bad_documents(self, tmp_path):
        clock = _Clock()
        hb = Heartbeat(tmp_path / "s.json", clock=clock)
        hb.begin(1, in_flight=1)
        doc = json.loads((tmp_path / "s.json").read_text())
        assert validate_status(doc) == []
        assert doc["schema"] == STATUS_SCHEMA_VERSION
        bad = dict(doc, schema=99)
        assert validate_status(bad)
        bad = dict(doc, done=-1)
        assert validate_status(bad)
        bad = dict(doc, state="wedged")
        assert validate_status(bad)


class TestManifestSchema:
    def test_new_records_are_stamped_and_validate_ok(self, tmp_path):
        m = RunManifest(tmp_path / "m.jsonl")
        m.record("p", "key", "sim", "digest", seconds=1.5, worker=7)
        record = json.loads((tmp_path / "m.jsonl").read_text())
        assert record["v"] == MANIFEST_SCHEMA_VERSION
        status, problems = validate_manifest_record(record)
        assert (status, problems) == ("ok", [])

    def test_legacy_records_flagged_not_rejected(self):
        status, problems = validate_manifest_record(
            {"point": "p", "key": "k", "source": "sim", "digest": "d"}
        )
        assert (status, problems) == ("legacy", [])

    def test_unknown_version_rejected(self):
        status, problems = validate_manifest_record(
            {"v": 99, "point": "p", "key": "k", "source": "sim", "digest": "d"}
        )
        assert status == "error"
        assert "unknown manifest schema version" in problems[0]

    def test_warning_records(self, tmp_path):
        m = RunManifest(tmp_path / "m.jsonl")
        m.warn("chunk_timeout", "chunk 0 exceeded budget", point="chunk:app")
        record = json.loads((tmp_path / "m.jsonl").read_text())
        assert record["source"] == "warning"
        status, problems = validate_manifest_record(record)
        assert (status, problems) == ("ok", [])
        with pytest.raises(ValueError):
            m.warn("nonsense", "detail")

    def test_validate_manifest_counts_and_problems(self, tmp_path):
        path = tmp_path / "m.jsonl"
        m = RunManifest(path)
        m.record("p", "k", "sim", "d")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"point": "q", "key": "k", "source": "sim", "digest": "d"}\n')
            fh.write('{"v": 99, "source": "sim"}\n')
            fh.write("not json\n")
        counts, problems = validate_manifest(path)
        assert counts == {"ok": 1, "legacy": 1, "error": 2}
        assert len(problems) == 2
