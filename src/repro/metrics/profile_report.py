"""Human-readable run profiles.

``profile_report`` turns a :class:`SimStats` into the kind of breakdown a
hardware profiler prints: throughput, issue-stall attribution, operand-
collector behaviour, memory-system behaviour, and per-sub-core balance —
the quantities this paper's analysis sections reason about.
"""

from __future__ import annotations

from typing import List

from .stats import SimStats, SMStats


def _pct(part: float, whole: float) -> str:
    return f"{part / whole:6.1%}" if whole else "   n/a"


def profile_sm(sm: SMStats, cycles: int) -> List[str]:
    """Per-SM section of the report."""
    lines = [f"SM {sm.sm_id}:"]
    if cycles:
        lines.append(
            f"  instructions {sm.instructions}, IPC "
            f"{sm.instructions / cycles:.2f}"
        )
    else:
        lines.append(f"  instructions {sm.instructions} (no cycles)")
    lines.append(
        "  per-sub-core issue "
        + " / ".join(str(c) for c in sm.issue_counts)
        + f"  (CoV {sm.issue_cov():.2f})"
    )
    scheduler_slots = cycles * max(1, len(sm.issue_counts))
    lines.append(
        f"  issue stalls: no-ready-warp {_pct(sm.issue_stall_no_ready, scheduler_slots)}"
        f", no-free-collector-unit {_pct(sm.issue_stall_no_cu, scheduler_slots)}"
    )
    if cycles:
        lines.append(
            f"  register file: {sm.rf_reads} operand reads"
            f" ({sm.rf_reads / cycles:.2f}/cycle)"
            f", bank-conflict cycles {sm.bank_conflict_cycles}"
        )
    else:
        lines.append("  register file: idle")
    if sm.stall_cycles is not None and sm.stall_cycles:
        from ..viz import stall_chart

        slots = sum(sm.stall_cycles[0].values())
        chart = stall_chart(
            sm.stall_cycles,
            title=f"issue-slot attribution ({slots} slots per sub-core)",
        )
        lines.extend("  " + line for line in chart.splitlines())
    extras = []
    if sm.steals:
        extras.append(f"bank-steals {sm.steals}")
    if sm.migrations:
        extras.append(f"warp migrations {sm.migrations}")
    if extras:
        lines.append("  " + ", ".join(extras))
    if sm.cta_latencies:
        lat = sm.cta_latencies
        lines.append(
            f"  CTAs {sm.ctas_completed}: latency min {min(lat)}, "
            f"mean {sum(lat) / len(lat):.0f}, max {max(lat)}"
        )
    if sm.warp_finish_cycles and len(sm.warp_finish_cycles) > 1:
        wf = sorted(sm.warp_finish_cycles)
        spread = wf[-1] - wf[0]
        lines.append(
            f"  warp finish spread {spread} cycles "
            f"({_pct(spread, cycles).strip()} of runtime) — inter-warp divergence"
        )
    return lines


def profile_report(stats: SimStats, show_idle_sms: bool = False) -> str:
    """Full textual profile of one simulation run."""
    lines = [
        f"profile: {stats.kernel_name} on {stats.config_name}",
        "=" * 60,
        f"cycles {stats.cycles}, instructions {stats.instructions}, "
        f"IPC {stats.ipc:.2f}",
    ]
    mem_accesses = stats.l1_hits + stats.l1_misses
    if mem_accesses:
        lines.append(
            f"memory: L1 {_pct(stats.l1_hits, mem_accesses).strip()} hit "
            f"({stats.l1_hits}/{mem_accesses}); "
            f"L2 {_pct(stats.l2_hits, stats.l2_hits + stats.l2_misses).strip()} hit; "
            f"DRAM accesses {stats.dram_accesses}"
        )
    else:
        lines.append("memory: no global accesses")
    for sm in stats.sms:
        if sm.instructions == 0 and not show_idle_sms:
            continue
        lines.append("")
        lines.extend(profile_sm(sm, stats.cycles))
    return "\n".join(lines)


def compare_report(baseline: SimStats, design: SimStats) -> str:
    """Side-by-side deltas between two runs of the same kernel."""
    if baseline.kernel_name != design.kernel_name:
        raise ValueError("compare_report expects runs of the same kernel")
    speedup = baseline.cycles / design.cycles if design.cycles else float("inf")
    rows = [
        ("cycles", baseline.cycles, design.cycles),
        ("IPC", round(baseline.ipc, 2), round(design.ipc, 2)),
        ("RF reads/cycle", round(baseline.rf_reads_per_cycle(), 2),
         round(design.rf_reads_per_cycle(), 2)),
        ("bank-conflict cycles", baseline.bank_conflict_cycles(),
         design.bank_conflict_cycles()),
        ("issue CoV", round(baseline.issue_cov(), 3), round(design.issue_cov(), 3)),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [
        f"compare: {baseline.kernel_name} — "
        f"{baseline.config_name} vs {design.config_name}",
        f"speedup: {(speedup - 1) * 100:+.1f}%",
    ]
    lines.append(f"{'metric':<{width}} {'baseline':>14} {'design':>14}")
    for name, a, b in rows:
        lines.append(f"{name:<{width}} {a!s:>14} {b!s:>14}")
    return "\n".join(lines)
