"""Bench: regenerate Fig. 10 — design summary on sensitive apps."""

from repro.experiments.report import average_speedups
from repro.experiments.speedups import FIG10 as fig10

from conftest import run_once


def test_fig10_sensitive_apps(benchmark):
    rows = run_once(benchmark, fig10.run)
    print()
    print(fig10.format_result(rows))
    avg = average_speedups(rows)
    # Paper anchors: RBA +11.1%, bank stealing <1%, 4CU +4.1%, combined +19.3%.
    assert avg["rba"] > 1.08
    assert abs(avg["bank_stealing"] - 1.0) < 0.03
    assert 1.0 < avg["cu4"] < avg["rba"]
    assert avg["shuffle_rba"] > avg["rba"]
