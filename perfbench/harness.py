"""Runs one workload: set-up, rounds, checks, metrics, optional traced pass.

A *round* is a fixed amount of work for a given seed; rounds repeat until
the ``seconds`` budget is used (never fewer than two, so every digest is
seen twice).  Time-like metrics are the median over rounds, with every
per-round sample kept; exact counts are per round and must repeat.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from . import env, spec
from .spans import Recorder, Span


@dataclass
class Round:
    #: Seconds inside ops (the timed region; checks and digests excluded).
    wall: float
    #: This round's value of each end-to-end metric the workload reports.
    samples: Dict[str, float] = field(default_factory=dict)
    #: label -> digest of everything simulated or built; equal across rounds.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Whatever the workload's ``finish``/``layers`` want to see again.
    detail: dict = field(default_factory=dict)


class Ops:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Dict[str, str] = {}

    def fail(self, op: str, why: str) -> None:
        self.failed.setdefault(op, why)


class Op:
    """One counted, timed operation; an exception inside marks it failed."""

    def __init__(self, ops: Ops, span: Span, op_id: str):
        self.ops = ops
        self.span = span
        self.id = op_id
        self.ok = True

    @property
    def seconds(self) -> float:
        return self.span.seconds

    def __enter__(self) -> "Op":
        self.ops.attempted += 1
        self.span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.__exit__(exc_type, exc, tb)
        if exc_type is not None and issubclass(exc_type, Exception):
            self.ok = False
            self.ops.fail(self.id, repr(exc))
            return True
        return False


@dataclass
class Ctx:
    seed: int
    tmp: Path
    workers: int
    rec: Recorder
    ops: Ops

    def span(self, name: str, op: Optional[str] = None) -> Span:
        return self.rec.span(name, op)

    def op(self, op_id: str, name: str = "op") -> Op:
        return Op(self.ops, self.rec.span(name, op_id), op_id)


class Workload:
    """What the harness needs from a workload (see ``workloads.py``)."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.  One where a set-up
    #: costs as much as the whole timed region.
    setup_repeats = 3

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def sizes(self) -> dict:
        return {}

    def setup(self, ctx: Ctx) -> None:
        raise NotImplementedError

    def round(self, ctx: Ctx, r: int) -> Round:
        raise NotImplementedError

    def finish(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        """End-to-end metrics pooled over all rounds (override the per-round median)."""
        return {}

    def layers(self, ctx: Ctx, rounds: List[Round]) -> Dict[str, float]:
        """Per-layer metrics; only called in the traced pass."""
        return {}


def quartiles(values: List[float]) -> Optional[List[float]]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return None
    return list(statistics.quantiles(values, n=4))


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(p / 100.0 * len(ordered) + 0.5) - 1))]


def check_rounds_identical(ops: Ops, rounds: List[Round]) -> None:
    """Every label's digest in a later round must equal round 1's."""
    first = rounds[0].digests
    for r, rnd in enumerate(rounds[1:], start=2):
        for label, digest in rnd.digests.items():
            if first.get(label, digest) != digest:
                ops.fail(f"{label}#r{r}", f"digest {digest} differs from round 1 ({first[label]})")


def model_digest(digests: Dict[str, str]) -> str:
    lines = "\n".join(f"{label}:{digest}" for label, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def _entry(metric: spec.Metric, value: float, samples: Optional[List[float]] = None) -> dict:
    out = {"value": value, "unit": metric.unit}
    if samples:
        out["samples"] = samples
        q = quartiles(samples)
        if q:
            out["q1"], out["median"], out["q3"] = q
    return out


def run_workload(
    workload: Workload,
    seed: int = 0,
    seconds: float = 10.0,
    traced: bool = False,
    workers: Optional[int] = None,
    import_s: float = 0.0,
) -> dict:
    """Run ``workload`` once and return its report section.

    ``import_s`` is what the caller spent importing before this call; it
    is part of every set-up sample.  In the traced pass the first round
    runs with spans off, the rest with spans on (their ratio is
    ``trace_overhead_x``), and ``layers()`` adds the profiled round and
    the micro-probes.
    """
    workers = env.engine_workers(workers)
    host = env.host_record(workers)
    guard = env.CacheGuard()
    rec = Recorder(workload.name)
    ops = Ops()
    # The traced pass spends the rest of its budget in layers().
    budget = seconds * (0.6 if traced else 1.0)
    layer_values: Dict[str, float] = {}

    with env.scratch() as tmp:
        ctx = Ctx(seed=seed, tmp=tmp, workers=workers, rec=rec, ops=ops)
        setup_samples = []
        for _ in range(1 if workload.smoke else workload.setup_repeats):
            t0 = time.perf_counter()
            workload.setup(ctx)
            setup_samples.append(import_s + time.perf_counter() - t0)

        rounds: List[Round] = []
        begin = time.perf_counter()
        while True:
            rec.enabled = traced and len(rounds) >= 1
            t0 = time.perf_counter()
            rounds.append(workload.round(ctx, len(rounds) + 1))
            took = time.perf_counter() - t0
            if len(rounds) >= 2 and (
                workload.smoke or time.perf_counter() - begin + took > budget
            ):
                break
        rec.enabled = False
        check_rounds_identical(ops, rounds)
        pooled = workload.finish(ctx, rounds)
        if traced:
            layer_values = workload.layers(ctx, rounds)
            plain, spanned = rounds[0].wall, [r.wall for r in rounds[1:]]
            layer_values["trace_overhead_x"] = statistics.median(spanned) / plain
            rec.write(env.OUT / f"trace-{workload.name}.json")
        rss = env.peak_rss_mb()

    touched = guard.changed()
    for root in touched:
        ops.fail("hermeticity", f"default cache directory {root} changed during the run")
    if touched:
        ops.attempted += 1

    metrics: Dict[str, dict] = {}
    for name, metric in spec.END_TO_END.items():
        if workload.name not in metric.on:
            continue
        if name == "setup_s":
            metrics[name] = _entry(metric, statistics.median(setup_samples), setup_samples)
        elif name == "wall_s":
            walls = [r.wall for r in rounds]
            metrics[name] = _entry(metric, statistics.median(walls), walls)
        elif name == "peak_rss_mb":
            metrics[name] = _entry(metric, rss)
        elif name == "failed_share":
            metrics[name] = _entry(metric, len(ops.failed) / max(1, ops.attempted))
        else:
            samples = [r.samples[name] for r in rounds if name in r.samples]
            if name in pooled:
                metrics[name] = _entry(metric, pooled[name], samples)
            elif samples:
                metrics[name] = _entry(metric, statistics.median(samples), samples)
            else:
                # Every op that feeds it failed; failed_share says so.
                metrics[name] = _entry(metric, float("nan"))

    section = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "sizes": dict(workload.sizes(), rounds=len(rounds), modelled_caches="empty at every point (begin_run)"),
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "failures": [f"{op}: {why}" for op, why in list(ops.failed.items())[:20]],
        "model_digest": model_digest(rounds[0].digests),
        "metrics": metrics,
        "host": host,
    }
    if traced:
        unknown = sorted(set(layer_values) - set(spec.PER_LAYER))
        if unknown:
            raise KeyError(f"{workload.name} reported unregistered per-layer metrics: {unknown}")
        section["layers"] = {
            name: {"value": float(layer_values.get(name, 0.0)), "unit": metric.unit}
            for name, metric in spec.PER_LAYER.items()
        }
        section["layer_self_s"] = rec.layer_self_seconds()
    return section
