"""Tests for the ``repro.bench`` performance harness.

Covers the pinned suite definitions, the timing/calibration harness, the
report schema validator, the baseline regression comparison, and the CLI
(including both gate outcomes and ``--validate`` mode).  Bench points are
run with ``repeats=1`` and the CLI with the quick suite so the test cost
stays a few seconds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.bench import (
    FULL_SUITE,
    QUICK_SUITE,
    REPORT_SCHEMA,
    SUITE_VERSION,
    BenchPoint,
    calibrate,
    compare_reports,
    get_suite,
    run_point,
    validate_report,
)
from repro.bench.__main__ import main


def synthetic_report(norm: float = 1.0, name: str = "pt-a") -> dict:
    """A minimal, schema-valid report for compare/validate tests."""
    return {
        "schema": REPORT_SCHEMA,
        "suite": "quick",
        "suite_version": SUITE_VERSION,
        "sim_version": "0.0-test",
        "python": "3.12.0",
        "platform": "test",
        "repeats": 1,
        "calibration_ops_per_sec": 1e6,
        "points": [
            {
                "name": name,
                "app": "cg-lou",
                "design": "baseline",
                "cycles": 1000,
                "instructions": 500,
                "wall_seconds": 0.5,
                "cycles_per_sec": 2000.0,
                "insts_per_sec": 1000.0,
                "normalized_cycles_per_sec": norm,
                "stall_shares": None,
            }
        ],
        "totals": {
            "wall_seconds": 0.5,
            "cycles": 1000,
            "instructions": 500,
            "cycles_per_sec": 2000.0,
            "insts_per_sec": 1000.0,
            "normalized_cycles_per_sec": norm,
        },
    }


class TestSuite:
    def test_quick_is_a_prefix_of_full(self):
        assert QUICK_SUITE == FULL_SUITE[: len(QUICK_SUITE)]

    def test_point_names_unique(self):
        names = [p.name for p in FULL_SUITE]
        assert len(names) == len(set(names))

    def test_get_suite(self):
        assert get_suite("quick") == QUICK_SUITE
        assert get_suite("full") == FULL_SUITE
        with pytest.raises(KeyError, match="unknown suite"):
            get_suite("nope")

    def test_micro_point_builds_fma_kernel(self):
        point = BenchPoint("m", "fma:unbalanced:64")
        kernel = point.build_kernel()
        assert kernel.num_ctas >= 1

    def test_registry_point_builds_kernel_and_config(self):
        point = BenchPoint("c", "cg-lou", design="rba")
        assert point.build_kernel().num_ctas >= 1
        assert str(point.resolve_config().scheduler) == "rba"
        assert "rba" in point.label()


class TestHarness:
    def test_calibrate_positive_and_scales(self):
        score = calibrate(iters=200_000)
        assert score > 0

    def test_run_point_entry_shape(self):
        point = BenchPoint("micro", "fma:balanced:64")
        entry = run_point(point, repeats=1, stages=False, calibration=1e6)
        assert entry["name"] == "micro"
        assert entry["cycles"] > 0
        assert entry["instructions"] > 0
        assert entry["wall_seconds"] > 0
        assert entry["cycles_per_sec"] == pytest.approx(
            entry["cycles"] / entry["wall_seconds"]
        )
        assert entry["normalized_cycles_per_sec"] == pytest.approx(
            entry["cycles_per_sec"] / 1e6
        )
        assert entry["stall_shares"] is None

    def test_run_point_stall_shares_sum_to_one(self):
        point = BenchPoint("micro", "fma:unbalanced:64")
        entry = run_point(point, repeats=1, stages=True, calibration=None)
        shares = entry["stall_shares"]
        assert shares
        assert math.isclose(sum(shares.values()), 1.0, rel_tol=1e-9)
        assert all(v >= 0 for v in shares.values())

    def test_repeats_take_the_minimum(self, monkeypatch):
        # Inject decreasing fake clocks: the reported wall time must be
        # the fastest repeat, not the mean of noisy ones.
        import repro.bench.harness as harness

        times = iter([0.0, 10.0, 10.0, 10.5])  # repeat walls: 10.0, 0.5
        monkeypatch.setattr(harness.time, "perf_counter", lambda: next(times))
        entry = run_point(
            BenchPoint("micro", "fma:balanced:8"), repeats=2, stages=False
        )
        assert entry["wall_seconds"] == pytest.approx(0.5)


class TestSchema:
    def test_valid_report_passes(self):
        assert validate_report(synthetic_report()) == []

    def test_non_object_rejected(self):
        assert validate_report([1, 2]) == ["report must be a JSON object"]

    def test_missing_field_reported(self):
        doc = synthetic_report()
        del doc["calibration_ops_per_sec"]
        assert any("calibration_ops_per_sec" in p for p in validate_report(doc))

    def test_schema_mismatch_reported(self):
        doc = synthetic_report()
        doc["schema"] = REPORT_SCHEMA + 1
        assert any("schema" in p for p in validate_report(doc))

    def test_empty_points_rejected(self):
        doc = synthetic_report()
        doc["points"] = []
        assert any("non-empty" in p for p in validate_report(doc))

    def test_nonpositive_cycles_rejected(self):
        doc = synthetic_report()
        doc["points"][0]["cycles"] = 0
        assert any("cycles must be positive" in p for p in validate_report(doc))

    def test_bad_stall_shares_rejected(self):
        doc = synthetic_report()
        doc["points"][0]["stall_shares"] = {"scoreboard": 0.5, "idle": 0.2}
        assert any("stall_shares" in p for p in validate_report(doc))

    def test_comparison_block_validated(self):
        doc = synthetic_report()
        doc["baseline_comparison"] = {"ratio": 1.0}  # missing fields
        assert any("baseline_comparison" in p for p in validate_report(doc))


class TestCompare:
    def test_ratio_and_ok(self):
        cmp = compare_reports(
            synthetic_report(1.0), synthetic_report(1.5), max_regression=0.2
        )
        assert cmp.ratio == pytest.approx(1.5)
        assert not cmp.regressed
        assert "OK" in cmp.summary()

    def test_regression_detected(self):
        cmp = compare_reports(
            synthetic_report(1.0), synthetic_report(0.7), max_regression=0.2
        )
        assert cmp.regressed
        assert "REGRESSED" in cmp.summary()

    def test_within_tolerance_not_regressed(self):
        cmp = compare_reports(
            synthetic_report(1.0), synthetic_report(0.85), max_regression=0.2
        )
        assert not cmp.regressed

    def test_suite_mismatch_is_a_problem(self):
        base = synthetic_report()
        cand = synthetic_report()
        cand["suite_version"] = SUITE_VERSION + 1
        cmp = compare_reports(base, cand)
        assert cmp.problems
        assert cmp.regressed  # incomparable counts as failed, never silent

    def test_missing_point_is_a_problem(self):
        base = synthetic_report(name="pt-a")
        cand = synthetic_report(name="pt-b")
        cmp = compare_reports(base, cand)
        assert any("missing point" in p for p in cmp.problems)

    def test_per_point_ratios(self):
        cmp = compare_reports(synthetic_report(1.0), synthetic_report(2.0))
        assert cmp.per_point[0]["ratio"] == pytest.approx(2.0)


class TestCLI:
    def test_unknown_option_exits_2(self, capsys):
        assert main(["--bogus"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_bad_max_regression_exits_2(self):
        assert main(["--max-regression", "nope"]) == 2
        assert main(["--max-regression", "1.5"]) == 2

    def test_validate_mode(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(synthetic_report()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": REPORT_SCHEMA}))
        assert main(["--validate", str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["--validate", str(good), str(bad)]) == 1

    def test_validate_unreadable_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["--validate", str(missing)]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_quick_run_writes_valid_report_and_gates(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert (
            main(
                [
                    "--quick",
                    "--repeats",
                    "1",
                    "--no-stages",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert validate_report(report) == []
        assert {e["name"] for e in report["points"]} == {
            p.name for p in QUICK_SUITE
        }
        capsys.readouterr()

        # Gate against itself: ratio ≈ 1 (modulo run noise), exit 0, and
        # the written report embeds the comparison record.
        gated = tmp_path / "gated.json"
        assert (
            main(
                [
                    "--quick",
                    "--repeats",
                    "1",
                    "--no-stages",
                    "--output",
                    str(gated),
                    "--baseline",
                    str(out),
                    "--max-regression",
                    "0.9",
                ]
            )
            == 0
        )
        doc = json.loads(gated.read_text())
        comparison = doc["baseline_comparison"]
        assert comparison["baseline_path"] == str(out)
        assert not comparison["regressed"]
        assert validate_report(doc) == []

        # An impossible baseline must trip the gate: exit 1.
        inflated = json.loads(out.read_text())
        inflated["totals"]["normalized_cycles_per_sec"] *= 1e6
        for entry in inflated["points"]:
            entry["normalized_cycles_per_sec"] *= 1e6
        fast = tmp_path / "impossible.json"
        fast.write_text(json.dumps(inflated))
        capsys.readouterr()
        assert (
            main(
                [
                    "--quick",
                    "--repeats",
                    "1",
                    "--no-stages",
                    "--output",
                    str(tmp_path / "regressed.json"),
                    "--baseline",
                    str(fast),
                ]
            )
            == 1
        )
        assert "REGRESSED" in capsys.readouterr().out

    def test_invalid_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad-baseline.json"
        bad.write_text(json.dumps({"schema": REPORT_SCHEMA}))
        # Parsed before any suite runs, so this path is fast.
        assert main(["--quick", "--baseline", str(bad)]) == 2

    def test_update_baseline_regenerates_validated_stamped_files(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro
        import repro.bench.__main__ as bench_main

        # Regenerate only the quick baseline here; the full suite takes
        # minutes and exercises the identical code path.
        monkeypatch.setattr(
            bench_main,
            "BASELINE_FILES",
            {"quick": "BENCH_baseline_quick.json"},
        )
        monkeypatch.chdir(tmp_path)
        assert main(["--update-baseline", "--repeats", "1", "--no-stages"]) == 0
        report = json.loads((tmp_path / "BENCH_baseline_quick.json").read_text())
        assert validate_report(report) == []
        assert report["suite"] == "quick"
        assert report["sim_version"] == repro.__version__
        assert "baseline written to" in capsys.readouterr().out

    def test_update_baseline_rejects_output_and_baseline_flags(self, tmp_path):
        assert main(["--update-baseline", "--output", "x.json"]) == 2
        assert main(["--update-baseline", "--baseline", "x.json"]) == 2

    def test_regenerated_baseline_gates_cleanly_against_itself(
        self, tmp_path, monkeypatch, capsys
    ):
        """The --update-baseline artifact must be directly usable as the
        --baseline gate: schema, point set, normalization and exit path.

        Both runs read a clock that advances one second per reading, so
        they measure identical durations: two real 1-repeat wall-clock
        samples differ by more than the 20 % gate on a loaded machine,
        which is the host's business, not this test's.
        """
        import itertools

        import repro.bench.__main__ as bench_main
        import repro.bench.harness as harness

        ticks = itertools.count()
        monkeypatch.setattr(harness.time, "perf_counter", lambda: float(next(ticks)))
        monkeypatch.setattr(
            bench_main, "BASELINE_FILES", {"quick": "BENCH_baseline_quick.json"}
        )
        monkeypatch.chdir(tmp_path)
        assert main(["--update-baseline", "--repeats", "1", "--no-stages"]) == 0
        assert (
            main(
                [
                    "--quick",
                    "--repeats",
                    "1",
                    "--no-stages",
                    "--output",
                    str(tmp_path / "rerun.json"),
                    "--baseline",
                    "BENCH_baseline_quick.json",
                ]
            )
            == 0
        )
        assert "REGRESSED" not in capsys.readouterr().out
        walls = [
            [point["wall_seconds"] for point in json.loads(path.read_text())["points"]]
            for path in (tmp_path / "BENCH_baseline_quick.json", tmp_path / "rerun.json")
        ]
        assert walls[0] == walls[1]
