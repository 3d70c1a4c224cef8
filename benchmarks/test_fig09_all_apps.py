"""Bench: regenerate Fig. 9 — Shuffle+RBA vs fully-connected, all apps."""

from repro.experiments import speedups as sp
from repro.experiments.report import average_speedups
from repro.experiments.speedups import FIG09 as fig09

from conftest import registry_apps, run_once


def test_fig09_all_apps(benchmark):
    rows = run_once(benchmark, fig09.run, apps=registry_apps())
    print()
    print(fig09.format_result(rows))
    avg = average_speedups(rows)
    # Paper: Shuffle+RBA +10.6%, within a few points of FC's +13.2%.
    assert avg["shuffle_rba"] > 1.05
    assert abs(sp.combined_vs_fc_gap(rows)) < 8.0
    assert len(sp.apps_where_design_beats_fc(rows)) >= 1
