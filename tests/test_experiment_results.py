"""Pure-logic tests for experiment results and the reducers over them (no
simulation).  The speedup figures' results are plain rows; their classes
below test :mod:`repro.experiments.speedups`' functions of those rows."""

import numpy as np
import pytest

from repro.experiments import speedups as sp
from repro.experiments.fig03_fma_imbalance import Fig03Result
from repro.experiments.fig08_imbalance_scaling import Fig08Result
from repro.experiments.fig17_issue_cov import Fig17Result
from repro.experiments.headline import HeadlineResult
from repro.experiments.cu_validation import (
    CUValidationResult,
    silicon_reference_cycles,
)
from repro.experiments.rba_latency import RBALatencyResult
from repro.experiments.report import average_speedups


class TestFig01Result:
    def test_statistics(self):
        rows = [
            ("a", {"fully_connected": 1.00}),
            ("b", {"fully_connected": 1.20}),
            ("c", {"fully_connected": 1.40}),
        ]
        assert average_speedups(rows)["fully_connected"] == pytest.approx(1.20)
        assert sp.max_speedup(rows) == pytest.approx(1.40)
        assert sp.sensitive_fraction(rows, threshold=1.05) == pytest.approx(2 / 3)


class TestFig03Result:
    def test_normalization(self):
        res = Fig03Result(
            cycles={"volta": {"baseline": 100, "balanced": 110, "unbalanced": 390}}
        )
        norm = res.normalized()
        assert norm["volta"]["unbalanced"] == pytest.approx(3.9)
        assert res.unbalanced_slowdown("volta") == pytest.approx(3.9)


class TestFig08Result:
    def test_speedup_over_rr(self):
        res = Fig08Result(
            imbalances=[1, 4],
            cycles={"baseline": [100, 400], "srr": [100, 160]},
        )
        sp = res.speedup_over_rr()
        assert sp["srr"] == [1.0, 2.5]
        assert sp["baseline"] == [1.0, 1.0]


class TestFig09Result:
    ROWS = [
        ("a", {"shuffle_rba": 1.10, "fully_connected": 1.15}),
        ("b", {"shuffle_rba": 1.20, "fully_connected": 1.05}),
    ]

    def test_gap_and_winners(self):
        assert average_speedups(self.ROWS)["shuffle_rba"] == pytest.approx(1.15)
        assert sp.combined_vs_fc_gap(self.ROWS) == pytest.approx(-5.0)
        assert sp.apps_where_design_beats_fc(self.ROWS) == ["b"]


class TestFig11Result:
    def test_population_filter(self):
        rows = [
            ("rba-wins", {"rba": 1.3, "fully_connected": 1.1, "fc_rba": 1.25}),
            ("fc-wins", {"rba": 1.0, "fully_connected": 1.2, "fc_rba": 1.3}),
        ]
        assert [r[0] for r in sp.population(rows)] == ["rba-wins"]
        g = sp.population_geomeans(rows)
        assert g["fully_connected"] == pytest.approx(1.1)

    def test_empty_population_falls_back(self):
        rows = [("a", {"rba": 1.0, "fully_connected": 1.2, "fc_rba": 1.2})]
        assert sp.population_geomeans(rows)["fc_rba"] == pytest.approx(1.2)


class TestFig12Result:
    def test_diminishing_returns(self):
        rows = [
            (
                "cg-lou",
                {"cu4": 1.04, "cu8": 1.07, "cu16": 1.09,
                 "fully_connected": 1.05, "rba": 1.20},
            )
        ]
        assert sp.diminishing_returns(rows) == pytest.approx(2.0)
        gaps = sp.cugraph_rba_vs_fc(rows)
        assert gaps == [("cg-lou", pytest.approx(15.0))]


class TestTpchResult:
    def test_srr_wins(self):
        rows = [
            ("q1", {"srr": 1.3, "shuffle": 1.2, "rba": 1.0,
                    "shuffle_rba": 1.25, "fully_connected": 1.2}),
            ("q2", {"srr": 1.1, "shuffle": 1.15, "rba": 1.0,
                    "shuffle_rba": 1.12, "fully_connected": 1.1}),
        ]
        assert sp.srr_wins(rows) == 1
        assert average_speedups(rows)["srr"] == pytest.approx(1.2)


class TestFig17Result:
    def test_worst_baseline(self):
        rows = [
            ("q1", {"baseline": 0.6, "srr": 0.0, "shuffle": 0.3}),
            ("q8", {"baseline": 1.0, "srr": 0.1, "shuffle": 0.4}),
        ]
        res = Fig17Result(rows=rows)
        assert res.worst_baseline() == ("q8", 1.0)
        assert res.averages()["baseline"] == pytest.approx(0.8)


class TestHeadlineResult:
    def test_captured_fraction(self):
        rows = [("a", {"shuffle_rba": 1.10, "srr_rba": 1.08, "fully_connected": 1.20})]
        sens = [("a", {"shuffle_rba": 1.2, "srr_rba": 1.25, "fully_connected": 1.3})]
        res = HeadlineResult(rows, sens)
        assert res.combined_average == pytest.approx(1.10)
        assert res.captured_fraction == pytest.approx(0.5)
        assert res.sensitive_average == pytest.approx(1.25)

    def test_nan_when_fc_gains_nothing(self):
        rows = [("a", {"shuffle_rba": 1.1, "srr_rba": 1.0, "fully_connected": 1.0})]
        res = HeadlineResult(rows, rows)
        assert np.isnan(res.captured_fraction)


class TestCUValidation:
    def test_reference_model_monotone_in_reads(self):
        light = silicon_reference_cycles("ub-1op")
        heavy = silicon_reference_cycles("ub-3op-conflict")
        assert heavy > light

    def test_mae_selects_best(self):
        res = CUValidationResult(
            names=["u1"],
            reference=[100.0],
            simulated={1: [150], 2: [105], 3: [90]},
        )
        assert res.best_cu_count() == 2
        assert res.mae()[1] == pytest.approx(50.0)


class TestRBALatencyResult:
    def test_degradation_and_worst(self):
        res = RBALatencyResult(
            apps=["a", "b"],
            speedups={
                0: {"a": 1.20, "b": 1.10},
                20: {"a": 1.15, "b": 1.10},
            },
        )
        assert res.average_speedup(0) == pytest.approx(1.15)
        assert res.average_degradation() == pytest.approx(2.5)
        assert res.worst_app() == ("a", pytest.approx(5.0))
