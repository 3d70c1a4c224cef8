"""Tests for the generic design-space sweep utility."""

import pytest

from repro.experiments import sweep as sw

#: The 2x2 grid the tests below share (``tests/test_figure_text.py`` pins its
#: ``format_grid`` text).
GRID = {"rf_banks_per_subcore": [1, 2], "collector_units_per_subcore": [2, 4]}


def fma(fmas: int) -> dict:
    """The ``fma_microbenchmark`` builder's arguments for the baseline layout."""
    return {"layout": "baseline", "fmas": fmas}


def two_by_two_sweep() -> sw.SweepResult:
    return sw.sweep("fma_microbenchmark", GRID, kernel=fma(24))


@pytest.fixture(scope="module")
def result():
    return two_by_two_sweep()


class TestSweep:
    def test_grid_size(self, result):
        assert len(result.points) == 4

    def test_lookup(self, result):
        p = result.lookup(rf_banks_per_subcore=2, collector_units_per_subcore=4)
        assert p.stats.cycles > 0

    def test_lookup_missing(self, result):
        with pytest.raises(KeyError):
            result.lookup(rf_banks_per_subcore=8, collector_units_per_subcore=2)

    def test_best_maximizes_ipc(self, result):
        best = result.best("ipc")
        assert all(best.value("ipc") >= p.value("ipc") for p in result.points)

    def test_best_minimizes_cycles(self, result):
        best = result.best("cycles", maximize=False)
        assert all(best.value("cycles") <= p.value("cycles") for p in result.points)

    def test_more_banks_never_slower(self, result):
        slow = result.lookup(rf_banks_per_subcore=1, collector_units_per_subcore=2)
        fast = result.lookup(rf_banks_per_subcore=2, collector_units_per_subcore=2)
        assert fast.stats.cycles <= slow.stats.cycles

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            sw.sweep("fma_microbenchmark", {}, kernel=fma(8))

    def test_unknown_metric(self, result):
        with pytest.raises(KeyError):
            result.points[0].value("flops")


class TestFormatGrid:
    def test_two_axis_grid(self, result):
        text = sw.format_grid(result, metric="ipc")
        assert "rf_banks_per_subcore" in text
        assert text.count("\n") >= 3

    def test_one_axis_grid(self):
        res = sw.sweep(
            "fma_microbenchmark", {"collector_units_per_subcore": [1, 2]}, kernel=fma(16)
        )
        text = sw.format_grid(res, metric="cycles")
        assert "cycles" in text

    def test_three_axes_rejected_for_grid(self):
        res = sw.sweep("fma_microbenchmark", {
            "rf_banks_per_subcore": [2],
            "collector_units_per_subcore": [2],
            "issue_width": [1],
        }, kernel=fma(8))
        with pytest.raises(ValueError):
            sw.format_grid(res)
