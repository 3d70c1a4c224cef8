"""Bench: regenerate Fig. 15 — compressed TPC-H per-query speedups."""

from repro.experiments import speedups as sp
from repro.experiments.report import average_speedups
from repro.experiments.speedups import FIG15 as fig15

from conftest import run_once, tpch_queries


def test_fig15_tpch_compressed(benchmark):
    rows = run_once(benchmark, fig15.run, apps=tpch_queries(compressed=True))
    print()
    print(fig15.format_result(rows))
    avg = average_speedups(rows)
    # Paper: SRR +33.1%, Shuffle +27.4%; SRR best in all queries.
    assert avg["srr"] > 1.15
    assert avg["srr"] >= avg["shuffle"] - 0.02
    assert sp.srr_wins(rows) >= len(rows) - 2
    assert avg["rba"] < 1.10  # TPC-H is not read-operand limited
