"""Dashboard, bench-history and obs-CLI dispatch tests.

The dashboard's contract: inputs classify by shape, validators gate what
renders, and rendering is a pure function of the inputs (byte-identical
on re-render).  The bench history table is the dashboard's trajectory
source, so its ratio math is pinned here too.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.__main__ import main as bench_main
from repro.bench.history import (
    _order_key,
    default_history_paths,
    history_table,
    load_history,
)
from repro.experiments.engine import EngineProfile
from repro.obs.__main__ import main as obs_main
from repro.obs.dashboard import (
    build_dashboard,
    classify_input,
    collect_inputs,
    manifest_summary,
    render_dashboard,
)
from repro.obs.heartbeat import Heartbeat
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry


def _bench_report(suite="quick", norm=2.0, stall_shares=None):
    point = {
        "name": "p0",
        "app": "rod-nw",
        "design": "baseline",
        "num_sms": 1,
        "cycles": 100,
        "instructions": 200,
        "wall_seconds": 0.5,
        "cycles_per_sec": 200.0,
        "insts_per_sec": 400.0,
        "normalized_cycles_per_sec": norm,
        "stall_shares": stall_shares,
    }
    return {
        "schema": 1,
        "suite": suite,
        "suite_version": 1,
        "sim_version": "1.0.0",
        "python": "3.11.0",
        "platform": "test",
        "repeats": 1,
        "calibration_ops_per_sec": 100.0,
        "points": [point],
        "totals": {
            "wall_seconds": 0.5,
            "cycles": 100,
            "instructions": 200,
            "cycles_per_sec": 200.0,
            "insts_per_sec": 400.0,
            "normalized_cycles_per_sec": norm,
        },
    }


def _write_artifacts(tmp_path: Path) -> dict:
    """One of each artifact kind, returned as {kind: path}."""
    manifest = RunManifest(tmp_path / "manifest.jsonl")
    manifest.record("p × a", "key1", "sim", "digest1", seconds=1.0, worker=42)
    manifest.record("p × a", "key1", "memory", "digest1")
    manifest.warn("chunk_timeout", "chunk 0 stuck", point="chunk:app")

    profile = EngineProfile(mem_hits=1, misses=1)
    profile.note_sim("p × a", 1.0, worker=42)
    profile.note_phase("simulate", 1.0)
    registry = MetricsRegistry()
    registry.publish(profile, points=2, seconds=1.0)
    (tmp_path / "metrics.json").write_text(
        json.dumps(registry.to_json()), encoding="utf-8"
    )

    hb = Heartbeat(tmp_path / "status.json", clock=lambda: 50.0)
    hb.begin(4, in_flight=1)

    shares = {
        "issued": 0.25, "no_ready_warp": 0.25, "scoreboard": 0.0,
        "no_free_cu": 0.25, "bank_conflict": 0.0, "barrier": 0.0,
        "drain": 0.0, "idle": 0.25,
    }
    (tmp_path / "BENCH_baseline_quick.json").write_text(
        json.dumps(_bench_report(norm=2.0, stall_shares=shares)),
        encoding="utf-8",
    )
    (tmp_path / "BENCH_pr7.json").write_text(
        json.dumps(_bench_report(norm=3.0)), encoding="utf-8"
    )
    return {
        "manifest": tmp_path / "manifest.jsonl",
        "metrics": tmp_path / "metrics.json",
        "status": tmp_path / "status.json",
        "bench": tmp_path / "BENCH_baseline_quick.json",
        "bench2": tmp_path / "BENCH_pr7.json",
    }


class TestClassify:
    def test_each_shape_classifies(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        assert classify_input(paths["manifest"])[0] == "manifest"
        assert classify_input(paths["metrics"])[0] == "metrics"
        assert classify_input(paths["status"])[0] == "status"
        assert classify_input(paths["bench"])[0] == "bench"

    def test_events_jsonl_detected(self, tmp_path):
        path = tmp_path / "x.events.jsonl"
        path.write_text('{"e": "warp_issue", "t": 3, "sm": 0}\n')
        assert classify_input(path)[0] == "events"

    def test_chrome_trace_detected(self, tmp_path):
        path = tmp_path / "x.trace.json"
        path.write_text('{"traceEvents": []}')
        assert classify_input(path)[0] == "trace"

    def test_garbage_is_an_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        kind, payload = classify_input(path)
        assert kind == "error" and "bad.json" in payload
        assert classify_input(tmp_path / "absent.json")[0] == "error"


class TestManifestSummary:
    def test_counts_and_digest_mismatch(self):
        records = [
            {"point": "p", "key": "k", "source": "sim", "digest": "a",
             "seconds": 2.0},
            {"point": "p", "key": "k", "source": "disk", "digest": "b"},
            {"source": "warning", "kind": "chunk_timeout", "detail": "x"},
        ]
        info = manifest_summary(records)
        assert info["by_source"] == {"sim": 1, "disk": 1, "warning": 1}
        assert info["sim_seconds"] == 2.0
        assert info["digest_mismatches"] == ["k"]
        assert len(info["warnings"]) == 1


class TestDashboard:
    def test_build_renders_every_section(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        out = tmp_path / "report.html"
        model = build_dashboard(list(paths.values()), out)
        assert model["problems"] == []
        html_text = out.read_text(encoding="utf-8")
        assert html_text.startswith("<!DOCTYPE html>")
        assert "run manifest" in html_text
        assert "performance trajectory" in html_text
        assert "issue slots went" in html_text
        assert "run health" in html_text
        assert "metrics — metrics.json" in html_text
        assert "<td>points</td><td>memory</td>" in html_text
        # Structured warning and digest mismatch surface as problems.
        assert "chunk 0 stuck" in html_text
        assert "nondeterminism suspect" not in html_text  # digests agree here

    def test_rendering_is_byte_stable(self, tmp_path):
        paths = list(_write_artifacts(tmp_path).values())
        a = render_dashboard(collect_inputs(paths))
        b = render_dashboard(collect_inputs(paths))
        assert a == b

    def test_digest_mismatch_is_called_out(self, tmp_path):
        manifest = RunManifest(tmp_path / "m.jsonl")
        manifest.record("p", "key1", "sim", "digest-a")
        manifest.record("p", "key1", "disk", "digest-b")
        html_text = render_dashboard(collect_inputs([tmp_path / "m.jsonl"]))
        assert "digest mismatch" in html_text
        assert "nondeterminism" in html_text

    def test_invalid_inputs_become_problems_not_crashes(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"suite": "x", "points": []}')
        model = collect_inputs([bad])
        assert model["bench"] == []
        assert model["problems"]
        assert "input problems" in render_dashboard(model)

    def test_stall_bar_widths_are_shares(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        html_text = render_dashboard(collect_inputs([paths["bench"]]))
        assert 'width:25.00%' in html_text
        # Zero-share buckets draw no segment; legend still lists all 8.
        assert html_text.count('class="swatch"') == 8


class TestHistory:
    def test_order_key_baseline_then_pr_numeric(self):
        names = [
            "BENCH_pr10.json", "BENCH_baseline.json", "BENCH_pr9.json",
            "BENCH_pr6.json", "BENCH_zzz.json",
        ]
        ordered = sorted(names, key=_order_key)
        assert ordered == [
            "BENCH_baseline.json", "BENCH_pr6.json", "BENCH_pr9.json",
            "BENCH_pr10.json", "BENCH_zzz.json",
        ]

    def test_ratio_vs_previous_per_suite(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        rows, problems = load_history([paths["bench"], paths["bench2"]])
        assert problems == []
        assert rows[0]["ratio"] is None
        assert rows[1]["ratio"] == 1.5  # 3.0 / 2.0, same suite

    def test_invalid_report_is_a_problem(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{}")
        rows, problems = load_history([bad])
        assert rows == [] and problems

    def test_table_renders_per_suite(self, tmp_path):
        paths = _write_artifacts(tmp_path)
        rows, _ = load_history([paths["bench"], paths["bench2"]])
        table = history_table(rows)
        assert "suite: quick" in table
        assert "1.50x" in table
        assert history_table([]) == "no benchmark reports found"

    def test_default_paths_glob(self, tmp_path):
        _write_artifacts(tmp_path)
        found = [p.name for p in default_history_paths(tmp_path)]
        assert found == ["BENCH_baseline_quick.json", "BENCH_pr7.json"]


class TestCLI:
    def test_bench_history_cli(self, tmp_path, capsys, monkeypatch):
        _write_artifacts(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert bench_main(["--history"]) == 0
        out = capsys.readouterr().out
        assert "suite: quick" in out and "1.50x" in out

    def test_obs_validate_dispatches_on_shape(self, tmp_path, capsys):
        paths = _write_artifacts(tmp_path)
        rc = obs_main(
            ["--validate"] + [str(p) for p in paths.values()]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "records" in out and "9 quantities" in out
        assert "state" in out and "bench points" in out

    def test_obs_validate_rejects_unknown_manifest_version(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        path.write_text('{"v": 99, "source": "sim"}\n')
        assert obs_main(["--validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown manifest schema version" in err

    def test_obs_dashboard_cli(self, tmp_path, capsys):
        paths = _write_artifacts(tmp_path)
        out = tmp_path / "dash.html"
        rc = obs_main(
            ["--dashboard", "--out", str(out)]
            + [str(p) for p in paths.values()]
        )
        assert rc == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert "dashboard written" in capsys.readouterr().out

    def test_obs_dashboard_defaults_to_cwd_bench_files(
        self, tmp_path, capsys, monkeypatch
    ):
        _write_artifacts(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert obs_main(["--dashboard"]) == 0
        html_text = Path("repro-dashboard.html").read_text(encoding="utf-8")
        assert "performance trajectory" in html_text
