"""Reducers and ASCII reporting helpers shared by the figure harnesses."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .engine import SimPoint, get_engine

#: ``(app, {design: speedup over baseline})`` per app.
Rows = List[Tuple[str, Dict[str, float]]]


def speedups_over_baseline(
    apps: Iterable[str],
    designs: Iterable[str],
    num_sms: int = 1,
    baseline: str = "baseline",
) -> Rows:
    """Rows of ``(app, {design: speedup})`` over the shared baseline, one batch."""
    apps = list(apps)
    designs = list(designs)
    points = get_engine().run_many(
        SimPoint(app, d, num_sms) for app in apps for d in [baseline, *designs]
    )
    return [
        (
            app,
            {
                d: points[SimPoint(app, baseline, num_sms)].cycles
                / points[SimPoint(app, d, num_sms)].cycles
                for d in designs
            },
        )
        for app in apps
    ]


def fmt_speedup(x: float) -> str:
    """1.112 -> '+11.2%'."""
    return f"{(x - 1.0) * 100.0:+.1f}%"


def speedup_table(
    title: str,
    rows: Sequence[Tuple[str, Mapping[str, float]]],
    designs: Sequence[str] | None = None,
    summary: str = "mean",
) -> str:
    """Render per-app speedup rows plus a :func:`average_speedups` line."""
    if not rows:
        return f"{title}\n(no rows)"
    if designs is None:
        designs = list(rows[0][1].keys())
    name_w = max(len(r[0]) for r in rows)
    name_w = max(name_w, len("average"))
    col_w = max(8, max(len(d) for d in designs) + 1)

    lines = [title, "-" * len(title)]
    header = " " * name_w + "".join(f"{d:>{col_w}}" for d in designs)
    lines.append(header)
    for app, vals in rows:
        cells = "".join(f"{fmt_speedup(vals[d]):>{col_w}}" for d in designs)
        lines.append(f"{app:<{name_w}}{cells}")

    agg = average_speedups(rows, designs, summary)
    agg_cells = "".join(f"{fmt_speedup(agg[d]):>{col_w}}" for d in designs)
    lines.append(f"{summary and 'average':<{name_w}}" + agg_cells)
    return "\n".join(lines)


def series_table(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
    fmt: str = "{:.3f}",
) -> str:
    """Render an x-vs-series table (the 'figure as rows' format)."""
    names = list(series)
    x_w = max(len(x_label), max(len(str(x)) for x in xs)) + 1
    col_w = max(9, max(len(n) for n in names) + 1)
    lines = [title, "-" * len(title)]
    lines.append(f"{x_label:<{x_w}}" + "".join(f"{n:>{col_w}}" for n in names))
    for i, x in enumerate(xs):
        cells = "".join(f"{fmt.format(series[n][i]):>{col_w}}" for n in names)
        lines.append(f"{str(x):<{x_w}}" + cells)
    return "\n".join(lines)


def average_speedups(
    rows: Sequence[Tuple[str, Mapping[str, float]]],
    designs: Iterable[str] | None = None,
    summary: str = "mean",
) -> Dict[str, float]:
    """Average speedup per design over the rows (default: the first row's).

    ``summary`` is ``"mean"`` (arithmetic, the paper's default for average
    speedups) or ``"geomean"``.
    """
    out: Dict[str, float] = {}
    for d in rows[0][1] if designs is None else designs:
        vals = np.asarray([r[1][d] for r in rows], dtype=float)
        out[d] = float(np.exp(np.log(vals).mean())) if summary == "geomean" else float(vals.mean())
    return out
