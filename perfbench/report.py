"""Printing a report, and ``--agree``: comparing two of them within the bounds."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import spec

SCHEMA = 1


def assemble(sections: Dict[str, dict], stamp: dict) -> dict:
    digests = "\n".join(f"{name}:{s['model_digest']}" for name, s in sorted(sections.items()))
    return {
        "perfbench": SCHEMA,
        "stamp": stamp,
        "model_digest": hashlib.sha256(digests.encode()).hexdigest(),
        "failed_share": sum(s["failed"] for s in sections.values())
        / max(1, sum(s["attempted"] for s in sections.values())),
        "note": (
            "All times are host time; sim_* and exact counts are simulated. The model is "
            "unvalidated against hardware: no error figure is given."
        ),
        "workloads": sections,
    }


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def render(report: dict) -> str:
    stamp = report["stamp"]
    lines = [
        f"perfbench report  seed={stamp['seed']} seconds={stamp['seconds']} "
        f"smoke={stamp['smoke']} traced={stamp['traced']} git={stamp.get('git_sha')}",
        f"model_digest {report['model_digest']}",
        f"failed_share {_fmt(report['failed_share'])}",
        report["note"],
    ]
    for name, section in report["workloads"].items():
        host = section["host"]
        lines.append("")
        lines.append(f"== {name} ==  {spec.WORKLOADS[name]}")
        lines.append(f"  sizes: {json.dumps(section['sizes'])}")
        lines.append(
            f"  host: nproc={host['nproc']} workers={host['workers']} "
            f"load1={host['loadavg_1m_at_start']:.2f}; ops {section['attempted']} attempted, "
            f"{section['failed']} failed; model_digest {section['model_digest'][:16]}"
        )
        for warning in host["warnings"]:
            lines.append(f"  WARNING: {warning}")
        for failure in section["failures"]:
            lines.append(f"  FAILED: {failure}")
        for metric, entry in section["metrics"].items():
            spread = ""
            if "q1" in entry:
                spread = f"  [q1 {_fmt(entry['q1'])}  q3 {_fmt(entry['q3'])}  n={len(entry['samples'])}]"
            lines.append(f"  {metric:<30} {_fmt(entry['value']):>12} {entry['unit']}{spread}")
        layers = section.get("layers", {})
        for metric, entry in layers.items():
            if entry["value"]:
                lines.append(f"    {metric:<36} {_fmt(entry['value']):>12} {entry['unit']}")
        idle = [m for m, e in layers.items() if not e["value"]]
        if idle:
            lines.append(f"    0 (no work observed in that layer here): {' '.join(idle)}")
        if "layer_self_s" in section:
            own = ", ".join(f"{k} {v:.3f}" for k, v in sorted(section["layer_self_s"].items()))
            lines.append(f"    span self time by layer (s): {own}")
    return "\n".join(lines)


def _spread(entry: dict) -> Optional[float]:
    """Inter-quartile range of the per-round samples as a share of their median."""
    if "q1" not in entry or not entry["median"]:
        return None
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def _judge(metric: spec.Metric, bound: float, a: dict, b: dict) -> Tuple[str, float]:
    base, new = a["value"], b["value"]
    ratio = new / base if base else (1.0 if new == base else math.inf)
    if metric.name == "failed_share":
        return ("ok" if new == base else "differs"), ratio
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if worse > bound:
        return "worse", ratio
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", ratio
    return "ok", ratio


def agree(a: dict, b: dict) -> Tuple[List[str], bool]:
    """One row per metric x workload; second value is False if anything disagrees.

    Medians must sit within the metric's bound (ratio is B / A, base A);
    a metric whose own round-to-round spread exceeds its bound is
    ``unresolved``, not ``ok``; exact metrics, ``model_digest`` and
    ``failed_share`` must be identical.
    """
    # BENCHMARK.json carries the same bounds (tests/test_spec.py keeps them equal).
    limit = {name: m.bound for name, m in spec.END_TO_END.items()}
    rows = [f"{'workload':<13} {'metric':<32} {'A (base)':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict"]
    good = True
    for name in a["workloads"]:
        sa, sb = a["workloads"][name], b["workloads"].get(name)
        if sb is None:
            rows.append(f"{name:<13} missing from B")
            good = False
            continue
        for metric, ea in sa["metrics"].items():
            eb = sb["metrics"][metric]
            verdict, ratio = _judge(spec.END_TO_END[metric], limit[metric], ea, eb)
            good &= verdict in ("ok", "unresolved")
            rows.append(
                f"{name:<13} {metric:<32} {_fmt(ea['value']):>12} {_fmt(eb['value']):>12} "
                f"{ratio:>8.3f} {limit[metric]:>6.2f}  {verdict}"
            )
        for metric, ea in sa.get("layers", {}).items():
            if not spec.PER_LAYER[metric].exact or "layers" not in sb:
                continue
            eb = sb["layers"][metric]
            same = ea["value"] == eb["value"]
            good &= same
            if not same or ea["value"]:
                rows.append(
                    f"{name:<13} {metric:<32} {_fmt(ea['value']):>12} {_fmt(eb['value']):>12} "
                    f"{'':>8} {'exact':>6}  {'ok' if same else 'differs'}"
                )
        same = sa["model_digest"] == sb["model_digest"]
        good &= same
        rows.append(
            f"{name:<13} {'model_digest':<32} {sa['model_digest'][:12]:>12} {sb['model_digest'][:12]:>12} "
            f"{'':>8} {'exact':>6}  {'ok' if same else 'differs'}"
        )
    return rows, good


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())
