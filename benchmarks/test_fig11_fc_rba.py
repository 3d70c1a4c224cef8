"""Bench: regenerate Fig. 11 — RBA on the fully-connected SM."""

from repro.experiments import speedups as sp
from repro.experiments.speedups import FIG11 as fig11

from conftest import run_once


def test_fig11_fc_rba(benchmark):
    rows = run_once(benchmark, fig11.run)
    print()
    print(fig11.format_result(rows))
    g = sp.population_geomeans(rows)
    # Paper: FC alone +6.1% geomean in this population; FC+RBA +19.6%.
    assert g["fc_rba"] > g["fully_connected"]
    assert g["fully_connected"] > 1.0
    assert len(sp.population(rows)) >= len(rows) // 2
