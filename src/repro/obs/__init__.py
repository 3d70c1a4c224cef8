"""Observability for the simulator (``repro.obs``).

Three layers, one contract (everything here is deterministic and
zero-overhead when off):

* **event tracing** — :class:`Tracer` collects cycle-attributed model
  events (warp issue/stall/barrier/exit, CTA launch/retire, collector-
  unit occupancy, bank conflicts, memory accesses) through hooks in the
  core model; :mod:`repro.obs.chrome_trace` exports them as Perfetto-
  loadable Chrome-trace JSON plus a compact JSONL stream;
* **stall attribution** — the top-down issue-slot taxonomy of
  :mod:`repro.obs.stall`, accumulated per sub-core into
  :class:`~repro.metrics.SMStats` when ``GPUConfig.stall_attribution``
  is set, conservation-checked by the runtime sanitizer;
* **run telemetry** — :class:`RunManifest`, the experiment engine's
  per-run JSONL audit log (cache hit/miss, wall time, worker id, stats
  digest), now schema-versioned and validated, and :class:`RunJournal`,
  the crash-safe append-only index of completed point keys that powers
  ``python -m repro --resume`` (see ``docs/robustness.md``);
* **run metrics** — :class:`MetricsRegistry` (counters, gauges,
  histograms with label sets) exported as Prometheus text exposition and
  canonical JSON, plus the :class:`Heartbeat` status.json writer for
  live run health;
* **dashboard** — ``python -m repro.obs --dashboard`` renders one
  static HTML report merging manifests, stall attribution, metrics,
  status and the committed ``BENCH_*.json`` trajectory.

CLI::

    python -m repro <figure> --trace [--trace-dir DIR] [--trace-cycles N]
    python -m repro --trace --profile-report APP[:DESIGN]
    python -m repro.obs --validate TRACE.json MANIFEST.jsonl ...  # CI gate
    python -m repro.obs --dashboard --out report.html [INPUTS...]

See ``docs/observability.md`` for the event schema, the taxonomy
definitions, the exposition grammar, and how to open traces in Perfetto.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_package

if TYPE_CHECKING:
    from .chrome_trace import (
        chrome_trace,
        dumps_chrome_trace,
        iter_jsonl,
        write_chrome_trace,
        write_events_jsonl,
    )
    from .events import EVENT_FIELDS, EVENT_KINDS, validate_chrome_trace, validate_event
    from .heartbeat import STATUS_SCHEMA_VERSION, Heartbeat, read_status, validate_status
    from .journal import (
        JOURNAL_SCHEMA_VERSION,
        RunJournal,
        load_journal,
        validate_journal,
        validate_journal_record,
    )
    from .manifest import (
        MANIFEST_SCHEMA_VERSION,
        RunManifest,
        read_manifest,
        stats_digest,
        validate_manifest,
        validate_manifest_record,
    )
    from .metrics import (
        METRICS_SCHEMA_VERSION,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        parse_prometheus_text,
        record_stats_metrics,
        validate_metrics_json,
        validate_prometheus_text,
    )
    from .stall import STALL_BUCKETS, empty_buckets, merge_buckets
    from .tracer import Tracer

__all__ = lazy_package(
    __name__,
    {
        "chrome_trace": [
            "chrome_trace", "dumps_chrome_trace", "iter_jsonl", "write_chrome_trace",
            "write_events_jsonl",
        ],
        "events": [
            "EVENT_FIELDS", "EVENT_KINDS", "validate_chrome_trace", "validate_event",
        ],
        "heartbeat": [
            "STATUS_SCHEMA_VERSION", "Heartbeat", "read_status", "validate_status",
        ],
        "journal": [
            "JOURNAL_SCHEMA_VERSION", "RunJournal", "load_journal", "validate_journal",
            "validate_journal_record",
        ],
        "manifest": [
            "MANIFEST_SCHEMA_VERSION", "RunManifest", "read_manifest", "stats_digest",
            "validate_manifest", "validate_manifest_record",
        ],
        "metrics": [
            "METRICS_SCHEMA_VERSION", "Counter", "Gauge", "Histogram",
            "MetricsRegistry", "parse_prometheus_text", "record_stats_metrics",
            "validate_metrics_json", "validate_prometheus_text",
        ],
        "stall": ["STALL_BUCKETS", "empty_buckets", "merge_buckets"],
        "tracer": ["Tracer"],
    },
)
