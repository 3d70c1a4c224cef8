"""Tests for the ``python -m repro`` experiment CLI."""

import pytest

from repro.__main__ import EXPERIMENTS, _parse_args, experiment_module, main


@pytest.fixture
def restore_engine():
    """Put the process-wide engine back after a CLI run reconfigures it.

    ``main()`` calls ``configure()``, and trace settings would otherwise
    leak into every later test of the session (different cache keys,
    stray trace files).
    """
    from repro.experiments import engine as engine_module

    saved = engine_module._engine
    yield
    engine_module._engine = saved


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "headline" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_fast_experiment(self, capsys):
        assert main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 13" in out

    def test_every_registered_name_is_callable(self):
        for name in EXPERIMENTS:
            figure = experiment_module(name)
            assert callable(figure.run) and callable(figure.format_result), name

    def test_list_beside_other_names_prints_help(self, capsys):
        assert main(["list", "rba-banks"]) == 0
        assert main(["rba-banks", "--workers", "1", "list"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("experiments:") == 2
        assert "unknown" not in captured.err


class TestObservabilityFlags:
    def test_trace_dir_implies_trace(self):
        opts, names = _parse_args(["--trace-dir", "out"])
        assert opts["trace"] and opts["trace_dir"] == "out"
        assert names == []

    def test_bare_trace_gets_default_dir(self):
        opts, _ = _parse_args(["--trace"])
        assert opts["trace_dir"] == "repro-traces"

    def test_trace_cycles_must_be_positive_int(self, capsys):
        assert main(["--trace-cycles", "0"]) == 2
        assert main(["--trace-cycles", "many"]) == 2

    def test_profile_report_runs_one_point(
        self, tmp_path, capsys, restore_engine
    ):
        import json

        args = ["--profile-report", "rod-nw:baseline", "--workers", "1"]
        assert main(args + ["--metrics-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "profile: rod-nw" in out
        assert "issue stalls" in out
        doc = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
        assert sum(doc["metrics"]["points"].values()) == 1

    def test_profile_report_unknown_app(self, capsys, restore_engine):
        assert main(["--profile-report", "no-such-app", "--workers", "1"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_trace_writes_files_and_stall_chart(
        self, tmp_path, capsys, restore_engine
    ):
        trace_dir = tmp_path / "traces"
        assert (
            main(
                [
                    "--trace",
                    "--trace-dir",
                    str(trace_dir),
                    "--trace-cycles",
                    "300",
                    "--profile-report",
                    "rod-nw:baseline",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "issue-slot attribution" in out
        assert "manifest.jsonl: 1 records" in out
        assert (trace_dir / "rod-nw--baseline--sms1.trace.json").is_file()
        assert (trace_dir / "rod-nw--baseline--sms1.events.jsonl").is_file()
        assert (trace_dir / "manifest.jsonl").is_file()

    def test_capped_trace_reports_its_dropped_events(
        self, tmp_path, capsys, restore_engine
    ):
        from repro.obs import read_manifest

        trace_dir = tmp_path / "traces"
        args = [
            "--trace-dir", str(trace_dir), "--trace-cycles", "2000", "--no-cache",
            "--profile-report", "cg-lou:bank_stealing", "--workers", "1",
        ]
        assert main(args) == 0
        # Traced engine points run with stall attribution, whose stall events
        # the cap also cuts: 88840, where tests/test_golden.py's unattributed
        # capped stream drops 66020.
        assert "--trace-cycles 2000 cut 88840 events" in capsys.readouterr().out
        (record,) = read_manifest(trace_dir / "manifest.jsonl")
        assert record["dropped"] == 88840

    def test_metrics_dir_writes_a_snapshot_of_the_profile(
        self, tmp_path, capsys, monkeypatch, restore_engine
    ):
        import json

        from repro.experiments import rba_banks
        from repro.experiments.engine import get_engine
        from repro.obs import validate_metrics_json

        monkeypatch.setattr(rba_banks, "RF_SENSITIVE_APPS", ["ply-syrk"])
        out = tmp_path / "metrics"
        args = [
            "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
            "--metrics-dir", str(out), "--profile", "rba-banks",
        ]
        assert main(args) == 0
        assert "simulations   4" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["metrics.json"]
        doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert validate_metrics_json(doc) == []
        prof, got = get_engine().profile, doc["metrics"]
        assert got["points"] == {
            "memory": prof.mem_hits, "disk": prof.disk_hits, "sim": 4, "retry": 0
        }
        assert prof.sims == 4
        assert got["code"] == {"compile": prof.code_compiles, "disk": prof.code_loads}
        assert got["degradations"] == prof.degradations == {}
        assert got["phase_counts"] == prof.phase_counts == {"cache-load": 1, "simulate": 4}
        assert got["phase_seconds"] == prof.phase_seconds
        assert got["worker_seconds"] == {str(w): s for w, s in prof.worker_seconds.items()}
        assert got["cache_hit_ratio"] == prof.hit_rate()
        assert got["worker_skew"] == prof.worker_skew()
        assert got["points_per_sec"] > 0


class TestRobustnessFlags:
    def test_resume_defaults_a_journal_path(self):
        opts, _ = _parse_args(["--resume"])
        assert opts["resume"] is True
        assert opts["journal"] == "repro-journal.jsonl"

    def test_explicit_journal_path_is_kept(self):
        opts, _ = _parse_args(["--resume", "--journal", "mine.jsonl"])
        assert opts["journal"] == "mine.jsonl"

    def test_trace_runs_default_the_journal_beside_traces(self):
        # Under --trace the engine itself places the journal in the
        # trace dir; the CLI must not override that with its fallback.
        opts, _ = _parse_args(["--trace", "--resume"])
        assert opts["resume"] is True
        assert opts["journal"] is None

    def test_journal_written_and_resume_serves_from_cache(
        self, tmp_path, capsys, restore_engine
    ):
        from repro.experiments.engine import get_engine
        from repro.obs import load_journal

        journal = tmp_path / "journal.jsonl"
        args = [
            "--profile-report",
            "rod-nw:baseline",
            "--workers",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--journal",
            str(journal),
        ]
        assert main(args) == 0
        assert len(load_journal(journal)) == 1
        assert main(args + ["--resume"]) == 0
        assert get_engine().profile.resumed == 1
        assert get_engine().profile.sims == 0
