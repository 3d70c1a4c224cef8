"""The run's metrics document: a snapshot of the engine's profile.

The experiment engine keeps one set of counters,
:class:`~repro.experiments.engine.EngineProfile`.  A
:class:`MetricsRegistry` given to the engine (``ExperimentEngine(metrics=
...)``, ``python -m repro --metrics-dir DIR``) receives that profile once,
at the end of each batch, and :meth:`MetricsRegistry.to_json` writes it
out as plain numbers (``metrics.json``).  Nothing is recorded while points
resolve, so a metered run is a plain run plus one snapshot per batch, and
its stats digests are byte-identical to a plain run's.

The document is ``{"schema": METRICS_SCHEMA_VERSION, "metrics": {...}}``;
each quantity of :data:`QUANTITIES` is a number or a map of names to
numbers.  :func:`validate_metrics_json` gates it in ``python -m repro.obs
--validate`` and the dashboard.  ``tests/test_obs_metrics.py::TestExports::
test_publish_snapshots_the_profile`` pins the schema number and the
quantities, so a changed document fails there.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Version of the metrics JSON document.  Bump whenever
#: :meth:`MetricsRegistry.to_json` output changes shape; external
#: dashboards key on it.  2: a snapshot of the engine profile, plain numbers.
METRICS_SCHEMA_VERSION = 2

#: Every quantity of the document: name -> ``True`` for a map of names to
#: numbers, ``False`` for one number.
QUANTITIES = {
    "points": True,  # point resolutions by source: memory, disk, sim, retry
    "code": True,  # compiled-trace artifacts by source: compile, disk
    "degradations": True,  # degradation-ladder steps taken, by step
    "phase_seconds": True,  # wall time per engine phase
    "phase_counts": True,  # spans per engine phase
    "cache_hit_ratio": False,
    "worker_skew": False,  # max/mean simulation seconds per worker
    "points_per_sec": False,  # over the last batch
    "worker_seconds": True,  # simulation seconds per worker pid
}


class MetricsRegistry:
    """Holds the metrics document of one run (empty until a batch ends)."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Any] = {}

    def publish(self, profile: Any, points: int, seconds: float) -> None:
        """Snapshot ``profile`` after a batch of ``points`` in ``seconds``.

        Takes the :class:`~repro.experiments.engine.EngineProfile`
        duck-typed, so this module never imports the engine.
        """
        self.metrics = {
            "points": {
                "memory": profile.mem_hits,
                "disk": profile.disk_hits,
                "sim": profile.sims - profile.retries,
                "retry": profile.retries,
            },
            "code": {"compile": profile.code_compiles, "disk": profile.code_loads},
            "degradations": dict(sorted(profile.degradations.items())),
            "phase_seconds": dict(sorted(profile.phase_seconds.items())),
            "phase_counts": dict(sorted(profile.phase_counts.items())),
            "cache_hit_ratio": profile.hit_rate(),
            "worker_skew": profile.worker_skew(),
            "points_per_sec": points / seconds if seconds > 0 else 0.0,
            "worker_seconds": {
                str(worker): secs for worker, secs in sorted(profile.worker_seconds.items())
            },
        }

    def to_json(self) -> Dict[str, Any]:
        """The schema-versioned document ``metrics.json`` holds."""
        return {"schema": METRICS_SCHEMA_VERSION, "metrics": self.metrics}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_metrics_json(doc: Any) -> List[str]:
    """Structural problems of a metrics JSON document (empty = valid)."""
    if not isinstance(doc, dict):
        return ["metrics document must be a JSON object"]
    problems: List[str] = []
    if doc.get("schema") != METRICS_SCHEMA_VERSION:
        problems.append(
            f"schema {doc.get('schema')!r} != supported {METRICS_SCHEMA_VERSION}"
        )
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["missing or non-object 'metrics'"]
    for name, value in sorted(metrics.items()):
        if name not in QUANTITIES:
            problems.append(f"unknown quantity {name!r}")
        elif not QUANTITIES[name]:
            if not _is_number(value):
                problems.append(f"{name}: must be a number")
        elif not isinstance(value, dict) or not all(
            isinstance(k, str) and _is_number(v) for k, v in value.items()
        ):
            problems.append(f"{name}: must map names to numbers")
    return problems
