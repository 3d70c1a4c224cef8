"""Bench: regenerate Fig. 16 — uncompressed TPC-H per-query speedups."""

from repro.experiments import speedups as sp
from repro.experiments.report import average_speedups
from repro.experiments.speedups import FIG16 as fig16

from conftest import run_once, tpch_queries


def test_fig16_tpch_uncompressed(benchmark):
    rows = run_once(benchmark, fig16.run, apps=tpch_queries(compressed=False))
    print()
    print(fig16.format_result(rows))
    avg = average_speedups(rows)
    # Paper: SRR +17.5%, Shuffle +13.9%; compressed flavour gains more.
    assert avg["srr"] > 1.08
    assert avg["srr"] >= avg["shuffle"] - 0.02
    assert sp.q8_speedup(rows) > 1.12  # paper: +30.8% on q8
