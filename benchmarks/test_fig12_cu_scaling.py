"""Bench: regenerate Fig. 12 — CU scaling vs RBA."""

from repro.experiments import speedups as sp
from repro.experiments.report import average_speedups
from repro.experiments.speedups import FIG12 as fig12

from conftest import run_once


def test_fig12_cu_scaling(benchmark):
    rows = run_once(benchmark, fig12.run)
    print()
    print(fig12.format_result(rows))
    avg = average_speedups(rows)
    # Paper: +4.1 / +7.1 / +9.6% for 4/8/16 CUs; RBA +11.9% beats 2x CUs.
    assert 1.0 < avg["cu4"] < avg["cu8"]
    assert avg["rba"] > avg["cu4"]
    # cuGraph: RBA beats fully-connected on every app (paper: by 15%+).
    gaps = sp.cugraph_rba_vs_fc(rows)
    assert gaps and all(g > 0 for _, g in gaps)
