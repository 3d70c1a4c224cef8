"""Tests for the experiment harness: designs, engine caching, report
formatting, and the fast figure harnesses."""

import pytest

import repro.experiments as ex
from repro.experiments import SimPoint, design_names, get_design, get_engine
from repro.experiments.report import (
    average_speedups,
    fmt_speedup,
    series_table,
    speedup_table,
    speedups_over_baseline,
)


class TestDesigns:
    def test_all_designs_instantiate(self):
        for name in design_names():
            cfg = get_design(name)
            assert cfg.num_sms >= 1

    def test_unknown_design(self):
        with pytest.raises(KeyError, match="options"):
            get_design("warp-drive")

    def test_key_designs_have_expected_knobs(self):
        assert get_design("cu4").collector_units_per_subcore == 4
        assert get_design("fully_connected").is_fully_connected
        assert get_design("fc_rba").scheduler == "rba"
        assert get_design("rba_lat20").rba_score_latency == 20
        assert get_design("rba_4banks").rf_banks_per_subcore == 4
        assert get_design("shuffle_16entry").hash_table_entries == 16


class TestRunner:
    def test_caching(self):
        engine = get_engine()
        engine.clear_memory()
        a = engine.run_point(SimPoint("rod-nw", "baseline"))
        n = engine.memory_cache_size()
        b = engine.run_point(SimPoint("rod-nw", "baseline"))
        assert a is b
        assert engine.memory_cache_size() == n

    def test_speedups_over_baseline_shape(self):
        rows = speedups_over_baseline(["rod-nw"], ["baseline"])
        assert rows[0][0] == "rod-nw"
        assert rows[0][1]["baseline"] == pytest.approx(1.0)


class TestReport:
    ROWS = [("app-a", {"x": 1.10, "y": 0.95}), ("app-b", {"x": 1.30, "y": 1.05})]

    def test_fmt_speedup(self):
        assert fmt_speedup(1.112) == "+11.2%"
        assert fmt_speedup(0.9) == "-10.0%"

    def test_speedup_table_contains_rows_and_average(self):
        text = speedup_table("T", self.ROWS)
        assert "app-a" in text and "+10.0%" in text
        assert "average" in text and "+20.0%" in text

    def test_speedup_table_geomean(self):
        text = speedup_table("T", self.ROWS, summary="geomean")
        assert "geomean" in text and "average" not in text

    def test_empty_rows(self):
        assert "no rows" in speedup_table("T", [])

    def test_series_table(self):
        text = series_table("S", "x", [1, 2], {"a": [0.5, 1.5]}, fmt="{:.1f}")
        assert "0.5" in text and "1.5" in text

    def test_average_speedups(self):
        avg = average_speedups(self.ROWS, ["x"])
        assert avg["x"] == pytest.approx(1.20)


class TestFastFigures:
    def test_fig03_shape(self):
        res = ex.fig03_fma_imbalance.run(fmas=64)
        assert res.unbalanced_slowdown("volta") > 2.5
        assert res.unbalanced_slowdown("ampere") > 2.5
        assert res.unbalanced_slowdown("kepler") < 1.2
        norm = res.normalized()
        assert norm["volta"]["balanced"] < 1.2

    def test_fig08_srr_dominates_at_high_imbalance(self):
        res = ex.fig08_imbalance_scaling.run(imbalances=(1, 8), base_fmas=16)
        sp = res.speedup_over_rr()
        assert sp["srr"][1] > sp["shuffle"][1] > 1.05
        assert abs(sp["srr"][0] - 1.0) < 0.25  # near parity with no imbalance
        text = ex.fig08_imbalance_scaling.format_result(res)
        assert "imbalance" in text

    def test_fig13_format(self):
        res = ex.fig13_area_power.run()
        assert res.overhead("4cu", "area") > 15
        text = ex.fig13_area_power.format_result(res)
        assert "paper" in text

    def test_cu_validation_picks_two(self):
        res = ex.cu_validation.run(insts=96, warps=16)
        assert res.best_cu_count() == 2
        maes = res.mae()
        assert maes[1] > maes[2]
        text = ex.cu_validation.format_result(res)
        assert "best: 2" in text

    def test_fig01_on_subset(self):
        rows = ex.speedups.FIG01.run(apps=["rod-nw", "tpcU-q3"])
        assert len(rows) == 2
        assert rows[1][1]["fully_connected"] > 1.0  # TPC-H gains from FC
        assert "average" in ex.speedups.FIG01.format_result(rows)

    def test_fig17_cov_collapse(self):
        res = ex.fig17_issue_cov.run(queries=["tpcU-q8"])
        covs = res.rows[0][1]
        assert covs["baseline"] > 0.6
        assert covs["srr"] < 0.2
        assert covs["shuffle"] < covs["baseline"]

    def test_fig18_interpolation_logic(self):
        from repro.experiments.fig18_sm_scaling import Fig18Result

        res = Fig18Result(
            fc_sms=4,
            sweep=[4, 5, 6],
            fc_cycles={"a": 1000},
            partitioned_cycles={
                "baseline": {"a": [1250, 1000, 900]},
                "ours": {"a": [1000, 900, 800]},
            },
        )
        assert res.equivalence_point("baseline") == pytest.approx(5.0)
        assert res.equivalence_point("ours") == pytest.approx(4.0)
        assert res.overhead_ratio("baseline") == pytest.approx(1.25)

    def test_fig18_clamps_to_sweep(self):
        from repro.experiments.fig18_sm_scaling import Fig18Result

        res = Fig18Result(
            fc_sms=4, sweep=[4, 5],
            fc_cycles={"a": 1000},
            partitioned_cycles={"slow": {"a": [2000, 1900]}},
        )
        assert res.equivalence_point("slow") == 5.0

    def test_headline_without_sensitive_apps_simulates_only_its_apps(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import engine as eng

        monkeypatch.setattr(eng, "_engine", eng._engine)  # restored at teardown
        eng.configure(cache_dir=tmp_path, workers=1)
        apps = ["ply-syrk", "rod-kmeans"]  # neither is in SENSITIVE_APPS
        res = ex.headline.run(apps)
        assert get_engine().profile.sims == len(apps) * (1 + len(ex.headline.DESIGNS))
        assert res.sensitive_rows == []
        assert "sensitive-app average speedup: n/a" in ex.headline.format_result(res)
