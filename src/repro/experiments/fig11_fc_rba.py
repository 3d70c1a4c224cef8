"""Fig. 11 — RBA also improves the *fully-connected* SM on register-file-
sensitive apps.

The population is the apps where RBA-on-partitioned outperforms the
fully-connected SM.  Paper: the fully-connected SM alone achieves a
geomean of +6.1 % there; adding RBA scheduling to the fully-connected SM
raises it to +19.6 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workloads.registry import RF_SENSITIVE_APPS
from .report import speedup_table, speedups_over_baseline

DESIGNS = ("rba", "fully_connected", "fc_rba")


@dataclass
class Fig11Result:
    rows: List[Tuple[str, Dict[str, float]]]

    def population(self) -> List[Tuple[str, Dict[str, float]]]:
        """Apps where partitioned-RBA beats the fully-connected SM."""
        return [r for r in self.rows if r[1]["rba"] > r[1]["fully_connected"]]

    def geomeans(self) -> Dict[str, float]:
        pop = self.population() or self.rows
        out: Dict[str, float] = {}
        for d in DESIGNS:
            vals = np.asarray([r[1][d] for r in pop])
            out[d] = float(np.exp(np.log(vals).mean()))
        return out


def run(apps: Optional[List[str]] = None, num_sms: int = 1) -> Fig11Result:
    apps = apps if apps is not None else list(RF_SENSITIVE_APPS)
    return Fig11Result(speedups_over_baseline(apps, DESIGNS, num_sms=num_sms))


def format_result(res: Fig11Result) -> str:
    table = speedup_table(
        "Fig. 11: RBA on the fully-connected SM (RF-sensitive apps)",
        res.rows,
        designs=list(DESIGNS),
        summary="geomean",
    )
    g = res.geomeans()
    return (
        f"{table}\n\n"
        f"population (RBA > FC): {len(res.population())}/{len(res.rows)} apps\n"
        f"fully-connected geomean: {(g['fully_connected'] - 1) * 100:+.1f}% "
        f"(paper: +6.1%); FC+RBA geomean: {(g['fc_rba'] - 1) * 100:+.1f}% "
        f"(paper: +19.6%)"
    )


def main() -> None:  # pragma: no cover
    print(format_result(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
