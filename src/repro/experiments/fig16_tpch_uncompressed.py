"""Fig. 16 — per-query speedups on uncompressed TPC-H.

Same designs as Fig. 15 over the raw-parquet database.  Paper averages:
SRR +17.5 %, Shuffle +13.9 %; query 8 sees the largest balancing gain
(+30.8 %).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..workloads.registry import app_names
from .fig15_tpch_compressed import DESIGNS, TpchResult
from .report import speedup_table, speedups_over_baseline

SUITE = "tpch-uncompressed"
PAPER_AVG = {"srr": 17.5, "shuffle": 13.9}


def run(queries: Optional[List[str]] = None, num_sms: int = 1) -> TpchResult:
    apps = queries if queries is not None else app_names(SUITE)
    return TpchResult(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms), SUITE)


def q8_speedup(res: TpchResult) -> float:
    for app, v in res.rows:
        if app == "tpcU-q8":
            return v["srr"]
    raise KeyError("tpcU-q8 not in result rows")


def format_result(res: TpchResult) -> str:
    table = speedup_table(
        "Fig. 16: uncompressed TPC-H speedup over GTO + RR",
        res.rows,
        designs=list(DESIGNS),
    )
    avg = res.averages()
    lines = [
        table,
        "",
        f"SRR average: {(avg['srr'] - 1) * 100:+.1f}% (paper +17.5%); "
        f"Shuffle average: {(avg['shuffle'] - 1) * 100:+.1f}% (paper +13.9%)",
    ]
    try:
        lines.append(
            f"query 8 SRR speedup: {(q8_speedup(res) - 1) * 100:+.1f}% (paper +30.8%)"
        )
    except KeyError:
        pass
    return "\n".join(lines)


def main() -> None:  # pragma: no cover
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
