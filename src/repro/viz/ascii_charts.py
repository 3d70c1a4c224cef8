"""ASCII chart rendering for figure output.

The paper's evaluation is a set of bar charts and time series; this module
renders their shapes directly in the terminal so the benchmark harnesses
can show, not just list, their results — without a plotting dependency.

All functions return strings; nothing prints.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

#: Eighth-block characters for smooth horizontal bars.
_BLOCKS = " ▏▎▍▌▋▊▉█"
#: Sparkline levels.
_SPARKS = "▁▂▃▄▅▆▇█"


def hbar(value: float, vmax: float, width: int = 40) -> str:
    """A horizontal bar of ``value`` scaled so ``vmax`` fills ``width``."""
    if vmax <= 0:
        return ""
    frac = max(0.0, min(1.0, value / vmax))
    cells = frac * width
    full = int(cells)
    eighths = int((cells - full) * 8)
    partial = _BLOCKS[eighths] if full < width and eighths > 0 else ""
    return "█" * full + partial


def bar_chart(
    title: str,
    values: Mapping[str, float],
    width: int = 40,
    fmt: str = "{:.2f}",
    baseline: Optional[float] = None,
) -> str:
    """Labelled horizontal bar chart.

    With ``baseline`` set, bars start at the baseline (useful for speedup
    charts where 1.0 is parity): the bar length shows ``value - baseline``
    and negative deltas render with ``-`` dashes.
    """
    if not values:
        return f"{title}\n(no data)"
    label_w = max(len(k) for k in values)
    if baseline is None:
        vmax = max(values.values()) or 1.0
        rows = [
            f"{k:<{label_w}} |{hbar(v, vmax, width):<{width}}| {fmt.format(v)}"
            for k, v in values.items()
        ]
    else:
        deltas = {k: v - baseline for k, v in values.items()}
        vmax = max(abs(d) for d in deltas.values()) or 1.0
        rows = []
        for k, v in values.items():
            d = deltas[k]
            bar = hbar(abs(d), vmax, width)
            mark = bar if d >= 0 else "-" * max(1, len(bar))
            rows.append(f"{k:<{label_w}} |{mark:<{width}}| {fmt.format(v)}")
    return "\n".join([title, "-" * len(title)] + rows)


def sparkline(values: Sequence[float], vmax: Optional[float] = None) -> str:
    """A one-line sparkline of a series."""
    if not len(values):
        return ""
    top = vmax if vmax is not None else max(values)
    if top <= 0:
        return _SPARKS[0] * len(values)
    out = []
    for v in values:
        frac = max(0.0, min(1.0, v / top))
        out.append(_SPARKS[min(len(_SPARKS) - 1, int(frac * len(_SPARKS)))])
    return "".join(out)


def timeline(
    title: str,
    values: Sequence[float],
    buckets: int = 64,
    vmax: Optional[float] = None,
    annotate_mean: bool = True,
) -> str:
    """Bucketed sparkline of a long per-cycle series (Fig. 14 style)."""
    vals = list(values)
    if not vals:
        return f"{title}\n(empty)"
    step = max(1, len(vals) // buckets)
    bucketed = [
        sum(vals[i : i + step]) / len(vals[i : i + step])
        for i in range(0, len(vals), step)
    ]
    line = sparkline(bucketed, vmax=vmax)
    mean = sum(vals) / len(vals)
    suffix = f"  (mean {mean:.1f}, peak {max(vals):.0f})" if annotate_mean else ""
    return f"{title}\n{line}{suffix}"


def histogram(
    title: str,
    values: Sequence[float],
    bins: int = 10,
    width: int = 40,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Vertical-label, horizontal-bar histogram (Fig. 1 distribution view)."""
    vals = list(values)
    if not vals:
        return f"{title}\n(empty)"
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    if hi <= lo:
        hi = lo + 1.0
    counts = [0] * bins
    span = hi - lo
    for v in vals:
        idx = int((v - lo) / span * bins)
        counts[min(max(idx, 0), bins - 1)] += 1
    peak = max(counts) or 1
    rows = []
    for i, c in enumerate(counts):
        b_lo = lo + span * i / bins
        b_hi = lo + span * (i + 1) / bins
        rows.append(
            f"{b_lo:7.2f}-{b_hi:<7.2f} |{hbar(c, peak, width):<{width}}| {c}"
        )
    return "\n".join([title, "-" * len(title)] + rows)


def speedup_chart(
    title: str, speedups: Mapping[str, float], width: int = 40
) -> str:
    """Bar chart of speedups anchored at 1.0 parity."""
    return bar_chart(
        title,
        speedups,
        width=width,
        fmt="{:+.1%}".replace("%", "%%") if False else "{:.3f}x",
        baseline=1.0,
    )


#: Fill characters for stacked-bar categories, cycled in category order.
_STACK_FILLS = "█▓▒░╬≡:·"


def stacked_bar_chart(
    title: str,
    rows: Mapping[str, Mapping[str, float]],
    categories: Optional[Sequence[str]] = None,
    width: int = 50,
    legend: bool = True,
) -> str:
    """Normalized stacked horizontal bars (top-down breakdown view).

    ``rows`` maps a row label to its per-category values; every row is
    normalized to its own total so each bar spans ``width`` cells split
    proportionally between categories.  ``categories`` fixes segment
    order (and the legend); by default the union of row keys in first-
    seen order.  Zero-total rows render empty.
    """
    if not rows:
        return f"{title}\n(no data)"
    if categories is None:
        seen: Dict[str, None] = {}
        for values in rows.values():
            for key in values:
                seen[key] = None
        categories = list(seen)
    fills = {
        cat: _STACK_FILLS[i % len(_STACK_FILLS)]
        for i, cat in enumerate(categories)
    }
    label_w = max(len(k) for k in rows)
    lines = [title, "-" * len(title)]
    for label, values in rows.items():
        total = sum(values.get(c, 0) for c in categories)
        if total <= 0:
            lines.append(f"{label:<{label_w}} |{'':<{width}}| (empty)")
            continue
        # Largest-remainder apportionment so the segments always sum to
        # exactly ``width`` cells.
        quotas = [values.get(c, 0) / total * width for c in categories]
        cells = [int(q) for q in quotas]
        remainders = sorted(
            range(len(categories)),
            key=lambda i: (-(quotas[i] - cells[i]), i),
        )
        for i in remainders[: width - sum(cells)]:
            cells[i] += 1
        bar = "".join(
            fills[c] * n for c, n in zip(categories, cells) if n
        )
        lines.append(f"{label:<{label_w}} |{bar:<{width}}|")
    if legend:
        lines.append(
            "legend: "
            + "  ".join(f"{fills[c]} {c}" for c in categories)
        )
    return "\n".join(lines)


def stall_chart(
    per_subcore_buckets: Sequence[Mapping[str, float]],
    title: str = "issue-slot attribution",
    width: int = 50,
) -> str:
    """Stacked stall-attribution chart, one bar per sub-core.

    Input is ``SMStats.stall_cycles``: one taxonomy-bucket dict per
    sub-core in sub-core order (see :mod:`repro.obs.stall`).  Buckets
    render in taxonomy order so segments line up across sub-cores.
    """
    from ..obs.stall import STALL_BUCKETS

    rows = {
        f"sc{i}": buckets for i, buckets in enumerate(per_subcore_buckets)
    }
    categories = [
        b
        for b in STALL_BUCKETS
        if any(bk.get(b, 0) for bk in per_subcore_buckets)
    ]
    return stacked_bar_chart(
        title,
        rows,
        categories=categories or list(STALL_BUCKETS),
        width=width,
    )
