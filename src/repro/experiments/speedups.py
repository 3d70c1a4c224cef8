"""The speedup-over-baseline figures as rows of one table.

Figs. 1, 9, 10, 11, 12, 15 and 16 each compare designs as speedup over the
GTO + RR baseline on one population of apps.  A :class:`SpeedupFigure` row
holds the figure's title, its default population, its designs, the notes
printed under its table and the table's summary line.  ``python -m repro
fig10`` prints ``FIG10.format_result(FIG10.run())``.

Below the rows are the figures' derived quantities, each a plain function
of the ``(app, {design: speedup})`` rows that ``run`` returns;
:func:`~repro.experiments.report.average_speedups` gives their averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..workloads.registry import RF_SENSITIVE_APPS, SENSITIVE_APPS, app_names, get_profile
from .report import Rows, average_speedups, fmt_speedup, speedup_table, speedups_over_baseline


@dataclass(frozen=True)
class SpeedupFigure:
    """One figure: designs' speedup over the baseline on a population of apps."""

    title: str
    #: The population ``run`` reduces over when it is given no apps.
    apps: Callable[[], Sequence[str]]
    designs: Tuple[str, ...]
    #: Renders the lines printed under the table.
    notes: Callable[[Rows], str]
    #: The table's summary line: ``"mean"`` (arithmetic) or ``"geomean"``.
    summary: str = "mean"

    def run(self, apps: Optional[Sequence[str]] = None, num_sms: int = 1) -> Rows:
        """``(app, {design: speedup over baseline})`` per app, in one batch."""
        apps = apps if apps is not None else self.apps()
        return speedups_over_baseline(apps, self.designs, num_sms=num_sms)

    def format_result(self, rows: Rows) -> str:
        table = speedup_table(self.title, rows, self.designs, self.summary)
        return f"{table}\n\n{self.notes(rows)}"


def _fig01_notes(rows: Rows) -> str:
    from ..viz import histogram

    speedups = [v["fully_connected"] for _, v in rows]
    dist = histogram("speedup distribution (x over baseline)", speedups, bins=8)
    average = average_speedups(rows)["fully_connected"]
    return (
        f"{dist}\n\n"
        f"average speedup: {fmt_speedup(average)}  (paper: +13.2%)\n"
        f"apps > +5%: {sensitive_fraction(rows):.0%}; max: {fmt_speedup(max_speedup(rows))}"
    )


def _fig09_notes(rows: Rows) -> str:
    avg = average_speedups(rows)
    return (
        f"Shuffle+RBA average: {fmt_speedup(avg['shuffle_rba'])} (paper: +10.6%)\n"
        f"fully-connected average: {fmt_speedup(avg['fully_connected'])} "
        f"(paper: +13.2%)\n"
        f"apps where Shuffle+RBA beats fully-connected: "
        f"{len(apps_where_design_beats_fc(rows))}"
    )


_FIG10_PAPER = {"rba": "+11.1%", "bank_stealing": "<+1%", "cu4": "+4.1%", "shuffle_rba": "+19.3%"}


def _fig10_notes(rows: Rows) -> str:
    avg = average_speedups(rows)
    return ", ".join(
        f"{d}: {fmt_speedup(avg[d])} (paper {paper})" for d, paper in _FIG10_PAPER.items()
    )


def _fig11_notes(rows: Rows) -> str:
    g = population_geomeans(rows)
    return (
        f"population (RBA > FC): {len(population(rows))}/{len(rows)} apps\n"
        f"fully-connected geomean: {fmt_speedup(g['fully_connected'])} "
        f"(paper: +6.1%); FC+RBA geomean: {fmt_speedup(g['fc_rba'])} (paper: +19.6%)"
    )


def _fig12_notes(rows: Rows) -> str:
    avg = average_speedups(rows)
    return (
        f"averages — 4cu: {fmt_speedup(avg['cu4'])} (paper +4.1%), "
        f"8cu: {fmt_speedup(avg['cu8'])} (paper +7.1%), "
        f"16cu: {fmt_speedup(avg['cu16'])} (paper +9.6%), "
        f"rba: {fmt_speedup(avg['rba'])} (paper +11.9%)\n"
        f"8->16 CU gain: {diminishing_returns(rows):+.1f} pp (paper ~+2.5)"
    )


def _srr_shuffle_notes(rows: Rows, srr_paper: str, shuffle_paper: str) -> str:
    avg = average_speedups(rows)
    return (
        f"SRR average: {fmt_speedup(avg['srr'])} (paper {srr_paper}); "
        f"Shuffle average: {fmt_speedup(avg['shuffle'])} (paper {shuffle_paper})"
    )


def _fig15_notes(rows: Rows) -> str:
    return (
        f"{_srr_shuffle_notes(rows, '+33.1%', '+27.4%')}; "
        f"SRR >= Shuffle in {srr_wins(rows)}/{len(rows)} queries"
    )


def _fig16_notes(rows: Rows) -> str:
    notes = _srr_shuffle_notes(rows, "+17.5%", "+13.9%")
    if "tpcU-q8" in dict(rows):
        notes += f"\nquery 8 SRR speedup: {fmt_speedup(q8_speedup(rows))} (paper +30.8%)"
    return notes


_TPCH_DESIGNS = ("srr", "shuffle", "rba", "shuffle_rba", "fully_connected")

#: Fig. 1 — speedup of a hypothetical fully-connected SM over the 4-way
#: partitioned Volta baseline, across the application registry.  The paper
#: reports an average of ~13.2 % across 112 applications, with a large
#: near-1.0 population and a sensitive tail.
FIG01 = SpeedupFigure(
    title="Fig. 1: fully-connected SM speedup over partitioned baseline",
    apps=app_names,
    designs=("fully_connected",),
    notes=_fig01_notes,
)

#: Fig. 9 — combined-design performance on all applications: Shuffle+RBA
#: and the fully-connected SM over the GTO+RR baseline, across the
#: registry.  Paper: Shuffle+RBA averages +10.6 %, fully-connected +13.2 %,
#: and RBA beats fully-connected on some apps.
FIG09 = SpeedupFigure(
    title="Fig. 9: all-application speedup over GTO + RR baseline",
    apps=app_names,
    designs=("shuffle_rba", "fully_connected"),
    notes=_fig09_notes,
)

#: Fig. 10 — summary design performance on the partitioning-sensitive apps
#: (Table III subset): RBA, SRR, Shuffle, Shuffle+RBA, register bank
#: stealing [36], doubled collector units (4 CUs) and the fully-connected
#: SM.  Paper: RBA ≈ +11.1 % average, bank stealing < +1 %, 4 CUs ≈ +4.1 %,
#: combined techniques +19.3 % on this population.
FIG10 = SpeedupFigure(
    title="Fig. 10: designs on partitioning-sensitive applications",
    apps=lambda: SENSITIVE_APPS,
    designs=("rba", "srr", "shuffle", "shuffle_rba", "bank_stealing", "cu4", "fully_connected"),
    notes=_fig10_notes,
)

#: Fig. 11 — RBA also improves the *fully-connected* SM on register-file-
#: sensitive apps.  The population is the apps where RBA-on-partitioned
#: outperforms the fully-connected SM.  Paper: the fully-connected SM alone
#: achieves a geomean of +6.1 % there; adding RBA scheduling to the
#: fully-connected SM raises it to +19.6 %.
FIG11 = SpeedupFigure(
    title="Fig. 11: RBA on the fully-connected SM (RF-sensitive apps)",
    apps=lambda: RF_SENSITIVE_APPS,
    designs=("rba", "fully_connected", "fc_rba"),
    notes=_fig11_notes,
    summary="geomean",
)

#: Fig. 12 — collector-unit scaling versus RBA on sensitive applications:
#: 4/8/16 CUs per sub-core (banks held at 2), the fully-connected SM and
#: the RBA scheduler, normalized to the 2-CU baseline.  Paper: CU scaling
#: averages +4.1 / +7.1 / +9.6 % with diminishing returns past 8 CUs; RBA
#: averages +11.9 %, and beats the fully-connected SM on every cuGraph app
#: by 15 % or more.
FIG12 = SpeedupFigure(
    title="Fig. 12: CU scaling vs RBA (normalized to 2 CUs/sub-core)",
    apps=lambda: SENSITIVE_APPS,
    designs=("cu4", "cu8", "cu16", "fully_connected", "rba"),
    notes=_fig12_notes,
)

#: Fig. 15 — per-query speedups on compressed TPC-H: SRR, Shuffle, RBA,
#: Shuffle+RBA and the fully-connected SM for each of the 22 queries over
#: the snappy-compressed database.  Paper averages: SRR +33.1 %, Shuffle
#: +27.4 % (SRR wins every query; Shuffle within 5 % on average).
FIG15 = SpeedupFigure(
    title="Fig. 15: compressed TPC-H speedup over GTO + RR",
    apps=partial(app_names, "tpch-compressed"),
    designs=_TPCH_DESIGNS,
    notes=_fig15_notes,
)

#: Fig. 16 — per-query speedups on uncompressed TPC-H: the designs of
#: Fig. 15 over the raw-parquet database.  Paper averages: SRR +17.5 %,
#: Shuffle +13.9 %; query 8 sees the largest balancing gain (+30.8 %).
FIG16 = SpeedupFigure(
    title="Fig. 16: uncompressed TPC-H speedup over GTO + RR",
    apps=partial(app_names, "tpch-uncompressed"),
    designs=_TPCH_DESIGNS,
    notes=_fig16_notes,
)


def sensitive_fraction(rows: Rows, threshold: float = 1.05) -> float:
    """Fig. 1: fraction of apps whose fully-connected speedup exceeds threshold."""
    return sum(1 for _, v in rows if v["fully_connected"] > threshold) / len(rows)


def max_speedup(rows: Rows) -> float:
    """Fig. 1: the largest fully-connected speedup."""
    return max(v["fully_connected"] for _, v in rows)


def combined_vs_fc_gap(rows: Rows) -> float:
    """Fig. 9: percentage points between fully-connected and Shuffle+RBA (paper: 2.6)."""
    avg = average_speedups(rows)
    return (avg["fully_connected"] - avg["shuffle_rba"]) * 100.0


def apps_where_design_beats_fc(rows: Rows) -> List[str]:
    """Fig. 9: the apps where Shuffle+RBA beats the fully-connected SM."""
    return [app for app, v in rows if v["shuffle_rba"] > v["fully_connected"]]


def population(rows: Rows) -> Rows:
    """Fig. 11: the rows where partitioned RBA beats the fully-connected SM."""
    return [r for r in rows if r[1]["rba"] > r[1]["fully_connected"]]


def population_geomeans(rows: Rows) -> Dict[str, float]:
    """Fig. 11: geomean per design over :func:`population` (all rows if empty)."""
    return average_speedups(population(rows) or rows, summary="geomean")


def cugraph_rba_vs_fc(rows: Rows) -> List[Tuple[str, float]]:
    """Fig. 12: per-cuGraph-app gap (percentage points) of RBA over fully-connected."""
    return [
        (app, (v["rba"] - v["fully_connected"]) * 100.0)
        for app, v in rows
        if get_profile(app).suite == "cugraph"
    ]


def diminishing_returns(rows: Rows) -> float:
    """Fig. 12: percentage points gained going from 8 to 16 CUs (paper: ~2.5)."""
    avg = average_speedups(rows)
    return (avg["cu16"] - avg["cu8"]) * 100.0


def srr_wins(rows: Rows) -> int:
    """Figs. 15/16: queries where SRR >= Shuffle (paper: SRR best in all queries)."""
    return sum(1 for _, v in rows if v["srr"] >= v["shuffle"] - 1e-9)


def q8_speedup(rows: Rows) -> float:
    """Fig. 16: SRR's speedup on uncompressed query 8 (KeyError if not run)."""
    return dict(rows)["tpcU-q8"]["srr"]
