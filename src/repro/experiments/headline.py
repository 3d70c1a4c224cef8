"""The abstract's headline numbers.

The paper's abstract claims an average **11.2 %** speedup across the
application set, capturing **81 %** of the performance lost to SM
sub-division (i.e. of the hypothetical fully-connected SM's 13.2 %), and
**19.3 %** on partitioning-sensitive applications.  This harness computes
all three from the same runs that produce Figs. 1, 9 and 10:

* ``combined`` speedup: the better of Shuffle+RBA and SRR+RBA per the
  paper's "intelligent scheduling mechanisms";
* ``captured``: combined average gain / fully-connected average gain;
* ``sensitive``: combined average over the Table III apps among them
  (``n/a`` when there are none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Dict, List, Optional, Tuple

from ..workloads.registry import SENSITIVE_APPS, app_names
from .report import speedups_over_baseline

DESIGNS = ("shuffle_rba", "srr_rba", "fully_connected")


@dataclass
class HeadlineResult:
    rows: List[Tuple[str, Dict[str, float]]]
    sensitive_rows: List[Tuple[str, Dict[str, float]]]

    def _avg(self, rows, design: str) -> float:
        return fmean(v[design] for _, v in rows)

    @property
    def combined_average(self) -> float:
        """Mean speedup of the combined design (best hashed variant + RBA)."""
        shuffle = self._avg(self.rows, "shuffle_rba")
        srr = self._avg(self.rows, "srr_rba")
        return max(shuffle, srr)

    @property
    def fully_connected_average(self) -> float:
        return self._avg(self.rows, "fully_connected")

    @property
    def captured_fraction(self) -> float:
        """Share of the partitioning loss recovered (paper: 81 %)."""
        fc_gain = self.fully_connected_average - 1.0
        if fc_gain <= 0:
            return float("nan")
        return (self.combined_average - 1.0) / fc_gain

    @property
    def sensitive_average(self) -> float:
        """Combined average over the sensitive rows; ``nan`` if there are none."""
        if not self.sensitive_rows:
            return float("nan")
        shuffle = self._avg(self.sensitive_rows, "shuffle_rba")
        srr = self._avg(self.sensitive_rows, "srr_rba")
        return max(shuffle, srr)


def run(apps: Optional[List[str]] = None, num_sms: int = 1) -> HeadlineResult:
    apps = apps if apps is not None else app_names()
    rows = speedups_over_baseline(apps, DESIGNS, num_sms=num_sms)
    sensitive = [a for a in SENSITIVE_APPS if a in set(apps)]
    sensitive_rows = speedups_over_baseline(sensitive, DESIGNS, num_sms=num_sms)
    return HeadlineResult(rows, sensitive_rows)


def format_result(res: HeadlineResult) -> str:
    sensitive = res.sensitive_average
    sensitive_text = "n/a" if math.isnan(sensitive) else f"{(sensitive - 1) * 100:+.1f}%"
    return (
        "Headline (paper abstract) numbers\n"
        "---------------------------------\n"
        f"combined design average speedup: "
        f"{(res.combined_average - 1) * 100:+.1f}%  (paper: +11.2%)\n"
        f"fully-connected average speedup: "
        f"{(res.fully_connected_average - 1) * 100:+.1f}%  (paper: +13.2%)\n"
        f"fraction of partitioning loss captured: "
        f"{res.captured_fraction:.0%}  (paper: 81%)\n"
        f"sensitive-app average speedup: "
        f"{sensitive_text}  (paper: +19.3%)"
    )
