"""Fig. 15 — per-query speedups on compressed TPC-H.

SRR, Shuffle, RBA, Shuffle+RBA and the fully-connected SM, normalized to
the GTO + RR baseline, for each of the 22 queries over the snappy-
compressed database.  Paper averages: SRR +33.1 %, Shuffle +27.4 % (SRR
wins every query; Shuffle within 5 % on average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..workloads.registry import app_names
from .report import average_speedups, speedup_table, speedups_over_baseline

DESIGNS = ("srr", "shuffle", "rba", "shuffle_rba", "fully_connected")
SUITE = "tpch-compressed"
PAPER_AVG = {"srr": 33.1, "shuffle": 27.4}


@dataclass
class TpchResult:
    rows: List[Tuple[str, Dict[str, float]]]
    suite: str

    def averages(self) -> Dict[str, float]:
        return average_speedups(self.rows, DESIGNS)

    def srr_wins(self) -> int:
        """Queries where SRR >= Shuffle (paper: SRR best in all queries)."""
        return sum(1 for _, v in self.rows if v["srr"] >= v["shuffle"] - 1e-9)


def run(queries: Optional[List[str]] = None, num_sms: int = 1) -> TpchResult:
    apps = queries if queries is not None else app_names(SUITE)
    return TpchResult(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms), SUITE)


def format_result(res: TpchResult) -> str:
    table = speedup_table(
        "Fig. 15: compressed TPC-H speedup over GTO + RR",
        res.rows,
        designs=list(DESIGNS),
    )
    avg = res.averages()
    return (
        f"{table}\n\n"
        f"SRR average: {(avg['srr'] - 1) * 100:+.1f}% (paper +33.1%); "
        f"Shuffle average: {(avg['shuffle'] - 1) * 100:+.1f}% (paper +27.4%); "
        f"SRR >= Shuffle in {res.srr_wins()}/{len(res.rows)} queries"
    )


def main() -> None:  # pragma: no cover
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
