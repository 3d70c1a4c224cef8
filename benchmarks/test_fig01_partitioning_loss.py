"""Bench: regenerate Fig. 1 — fully-connected SM speedup across the registry."""

from repro.experiments import speedups as sp
from repro.experiments.report import average_speedups
from repro.experiments.speedups import FIG01 as fig01

from conftest import registry_apps, run_once


def test_fig01_partitioning_loss(benchmark):
    rows = run_once(benchmark, fig01.run, apps=registry_apps())
    print()
    print(fig01.format_result(rows))
    # Paper: +13.2% average, with a large insensitive population.
    assert 1.05 < average_speedups(rows)["fully_connected"] < 1.30
    assert sp.max_speedup(rows) > 1.15
    assert 0.2 < sp.sensitive_fraction(rows) < 0.9
