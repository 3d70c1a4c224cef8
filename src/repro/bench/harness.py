"""The benchmark harness: timed runs, calibration, report assembly.

Timing protocol, per point:

* the kernel trace is synthesized *before* the timed region (trace
  generation is numpy-bound and not what we track);
* :func:`repro.gpu.simulate` is timed end-to-end (GPU construction plus
  the cycle loop) ``repeats`` times; the **minimum** wall time is
  reported, which is the standard way to reject scheduler noise;
* throughput is reported as simulated ``cycles / second`` and
  ``instructions / second``.

Machine normalization: absolute cycles/sec is not comparable across
hosts, so every report embeds a *calibration score* — the throughput of a
fixed pure-Python workload measured in the same process — and each
point's ``normalized_cycles_per_sec`` (cycles/sec divided by the score).
The regression gate compares normalized values, which cancels most
host-speed variation (see docs/performance.md).

The optional per-stage breakdown re-runs each point with the
observability layer's stall attribution enabled
(``GPUConfig.stall_attribution``) and reports each bucket's share of
issue slots — the existing ``repro.obs`` taxonomy, untimed, so the timed
figures always describe the plain production configuration.
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

from .. import __version__ as _SIM_VERSION
from ..obs.stall import STALL_BUCKETS
from .suite import SUITE_VERSION, BenchPoint, get_suite

#: Bump when the report layout changes (validated by repro.bench.schema).
REPORT_SCHEMA = 1

#: Iterations of the calibration loop (fixed: the score must measure the
#: host, not the parameter).
_CALIBRATION_ITERS = 2_000_000


def calibrate(iters: int = _CALIBRATION_ITERS) -> float:
    """Host-speed score: iterations/sec of a fixed arithmetic loop.

    The loop shape (integer multiply-add over a rolling accumulator) is
    deliberately boring — close to the interpreter-bound arithmetic the
    simulator's hot path executes — and has no allocation, so the score
    tracks CPython dispatch speed rather than allocator behaviour.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc = (acc * 3 + i) & 0xFFFFFFFF
    dt = time.perf_counter() - t0
    # Fold acc into the return comparison so the loop cannot be elided.
    return iters / dt if acc >= 0 else 0.0


def _stall_shares(point: BenchPoint) -> Dict[str, float]:
    """Per-bucket issue-slot shares for one point (untimed observability run)."""
    from ..gpu import simulate

    cfg = point.resolve_config().replace(stall_attribution=True)
    stats = simulate(point.build_kernel(), cfg, num_sms=point.num_sms)
    totals = {bucket: 0 for bucket in STALL_BUCKETS}
    for sm in stats.sms:
        for buckets in sm.stall_cycles or ():
            for bucket, slots in buckets.items():
                totals[bucket] += slots
    grand = sum(totals.values())
    if not grand:
        return {bucket: 0.0 for bucket in STALL_BUCKETS}
    return {bucket: totals[bucket] / grand for bucket in STALL_BUCKETS}


def run_point(
    point: BenchPoint,
    repeats: int = 2,
    stages: bool = False,
    calibration: Optional[float] = None,
) -> dict:
    """Benchmark one point; returns its report entry."""
    from ..gpu import simulate

    kernel = point.build_kernel()
    config = point.resolve_config()
    best = None
    stats = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        stats = simulate(kernel, config, num_sms=point.num_sms)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    assert stats is not None and best is not None
    cycles_per_sec = stats.cycles / best if best > 0 else 0.0
    entry = {
        "name": point.name,
        "app": point.app,
        "design": point.design,
        "num_sms": point.num_sms,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "wall_seconds": best,
        "cycles_per_sec": cycles_per_sec,
        "insts_per_sec": stats.instructions / best if best > 0 else 0.0,
        "normalized_cycles_per_sec": (
            cycles_per_sec / calibration if calibration else None
        ),
        "stall_shares": _stall_shares(point) if stages else None,
    }
    return entry


def run_suite(
    suite: str = "full",
    repeats: int = 2,
    stages: Optional[bool] = None,
    progress: bool = False,
) -> dict:
    """Run a named suite and assemble the machine-readable report."""
    points: Sequence[BenchPoint] = get_suite(suite)
    if stages is None:
        stages = suite == "full"
    calibration = calibrate()
    entries: List[dict] = []
    for point in points:
        if progress:
            print(f"[bench] {point.name}: {point.label()}", file=sys.stderr)
        entries.append(
            run_point(point, repeats=repeats, stages=stages, calibration=calibration)
        )
    total_wall = sum(e["wall_seconds"] for e in entries)
    total_cycles = sum(e["cycles"] for e in entries)
    total_insts = sum(e["instructions"] for e in entries)
    agg_cps = total_cycles / total_wall if total_wall > 0 else 0.0
    return {
        "schema": REPORT_SCHEMA,
        "suite": suite,
        "suite_version": SUITE_VERSION,
        "sim_version": _SIM_VERSION,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "calibration_ops_per_sec": calibration,
        "points": entries,
        "totals": {
            "wall_seconds": total_wall,
            "cycles": total_cycles,
            "instructions": total_insts,
            "cycles_per_sec": agg_cps,
            "insts_per_sec": total_insts / total_wall if total_wall > 0 else 0.0,
            "normalized_cycles_per_sec": (
                agg_cps / calibration if calibration else 0.0
            ),
        },
    }


def summary(report: dict) -> str:
    """Human-readable table for one report."""
    lines = [
        f"bench suite {report['suite']!r} (v{report['suite_version']}), "
        f"sim {report['sim_version']}, python {report['python']}",
        f"calibration {report['calibration_ops_per_sec']:,.0f} ops/s",
        f"{'point':<22} {'cycles':>9} {'wall s':>8} {'cycles/s':>12} {'norm':>10}",
    ]
    for e in report["points"]:
        norm = e["normalized_cycles_per_sec"]
        lines.append(
            f"{e['name']:<22} {e['cycles']:>9} {e['wall_seconds']:>8.3f} "
            f"{e['cycles_per_sec']:>12,.0f} "
            f"{norm if norm is not None else 0.0:>10.6f}"
        )
    t = report["totals"]
    lines.append(
        f"{'TOTAL':<22} {t['cycles']:>9} {t['wall_seconds']:>8.3f} "
        f"{t['cycles_per_sec']:>12,.0f} {t['normalized_cycles_per_sec']:>10.6f}"
    )
    return "\n".join(lines)
