"""Fig. 12 — collector-unit scaling versus RBA on sensitive applications.

Speedup of 4/8/16 CUs per sub-core (banks held at 2), the fully-connected
SM, and the RBA scheduler, normalized to the 2-CU baseline.  Paper: CU
scaling averages +4.1 / +7.1 / +9.6 % with diminishing returns past 8 CUs;
RBA averages +11.9 %, and beats the fully-connected SM on every cuGraph
app by 15 % or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..workloads.registry import SENSITIVE_APPS, get_profile
from .report import average_speedups, speedup_table, speedups_over_baseline

DESIGNS = ("cu4", "cu8", "cu16", "fully_connected", "rba")


@dataclass
class Fig12Result:
    rows: List[Tuple[str, Dict[str, float]]]

    def averages(self) -> Dict[str, float]:
        return average_speedups(self.rows, DESIGNS)

    def cugraph_rba_vs_fc(self) -> List[Tuple[str, float]]:
        """Per-cuGraph-app gap (percentage points) of RBA over fully-connected."""
        out = []
        for app, v in self.rows:
            if get_profile(app).suite == "cugraph":
                out.append((app, (v["rba"] - v["fully_connected"]) * 100.0))
        return out

    def diminishing_returns(self) -> float:
        """Percentage points gained going from 8 to 16 CUs (paper: ~2.5)."""
        avg = self.averages()
        return (avg["cu16"] - avg["cu8"]) * 100.0


def run(apps: Optional[List[str]] = None, num_sms: int = 1) -> Fig12Result:
    apps = apps if apps is not None else list(SENSITIVE_APPS)
    return Fig12Result(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms))


def format_result(res: Fig12Result) -> str:
    table = speedup_table(
        "Fig. 12: CU scaling vs RBA (normalized to 2 CUs/sub-core)",
        res.rows,
        designs=list(DESIGNS),
    )
    avg = res.averages()
    return (
        f"{table}\n\n"
        f"averages — 4cu: {(avg['cu4'] - 1) * 100:+.1f}% (paper +4.1%), "
        f"8cu: {(avg['cu8'] - 1) * 100:+.1f}% (paper +7.1%), "
        f"16cu: {(avg['cu16'] - 1) * 100:+.1f}% (paper +9.6%), "
        f"rba: {(avg['rba'] - 1) * 100:+.1f}% (paper +11.9%)\n"
        f"8->16 CU gain: {res.diminishing_returns():+.1f} pp (paper ~+2.5)"
    )


def main() -> None:  # pragma: no cover
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
