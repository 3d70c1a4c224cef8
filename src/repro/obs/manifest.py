"""Engine run telemetry: the per-run JSONL manifest.

Every simulation point the :class:`~repro.experiments.engine
.ExperimentEngine` resolves appends one line describing *how* it was
resolved — memory hit, disk hit, fresh simulation, or in-parent retry —
with the point's content-address key, wall time, worker process id, a
digest of the resulting stats and the events a trace's cycle cap dropped.  The manifest is what lets a batch run be
audited after the fact: which points actually simulated, where the wall
time went, whether two runs of the same point produced the same result
(compare digests), and which trace files belong to which point.

Records are schema-versioned (``"v"``): readers use
:func:`validate_manifest_record` to flag structurally broken lines and
reject records stamped with a version this reader does not understand,
while unstamped lines from pre-versioning runs pass as ``legacy``.
Besides point resolutions, a manifest may carry ``warning`` records —
structured run-health events (e.g. a worker exceeding its chunk
deadline) that would otherwise only surface as a hung ``join``.

Lines are appended immediately (crash-robust) and are self-describing
JSON objects, so the file tails cleanly while a long batch runs::

    tail -f repro-traces/manifest.jsonl | python -m json.tool --json-lines
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Version stamped into every new record.  Bump when the record layout
#: changes incompatibly; :func:`validate_manifest_record` rejects records
#: stamped with an unknown version.
MANIFEST_SCHEMA_VERSION = 1


def stats_digest(payload: Dict[str, Any]) -> str:
    """Short content digest of a serialized :class:`SimStats` payload.

    Two runs of the same point must produce the same digest (simulation
    determinism); a mismatch between a cached and a fresh run is the
    first sign of a nondeterminism regression.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class RunManifest:
    """Append-only JSONL sink for engine run records."""

    #: Resolution sources a record may carry.  ``compile`` marks a
    #: compiled-trace build (``trace:<app>`` records), the rest are
    #: simulation-point resolutions.
    SOURCES = ("memory", "disk", "sim", "retry", "compile")

    #: Warning kinds a ``warning`` record may carry.  The first three are
    #: in-flight pool health; the rest are steps of the engine's
    #: degradation ladder (see ``docs/robustness.md``): a corrupted cache
    #: entry quarantined, a cache dir degraded to memory-only, the pool
    #: circuit breaker opening to serial execution, a run interrupted by
    #: signal, and a journaled point whose cached digest no longer
    #: matches on resume.
    WARNINGS = (
        "stale_worker",
        "chunk_timeout",
        "chunk_crash",
        "cache_quarantine",
        "cache_degraded",
        "circuit_open",
        "interrupted",
        "journal_mismatch",
    )

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)
        self.records_written = 0

    def _append(self, entry: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
        self.records_written += 1

    def record(
        self,
        point: str,
        key: str,
        source: str,
        digest: str,
        seconds: Optional[float] = None,
        worker: Optional[int] = None,
        trace: Optional[str] = None,
        dropped: int = 0,
    ) -> None:
        """Append one resolution record (``dropped``: events a cycle cap cut, if any)."""
        if source not in self.SOURCES:
            raise ValueError(f"unknown manifest source {source!r}")
        entry: Dict[str, Any] = {
            "v": MANIFEST_SCHEMA_VERSION,
            "point": point,
            "key": key,
            "source": source,
            "digest": digest,
        }
        if seconds is not None:
            entry["seconds"] = round(seconds, 6)
        if worker is not None:
            entry["worker"] = worker
        if trace is not None:
            entry["trace"] = trace
        if dropped > 0:
            entry["dropped"] = dropped
        self._append(entry)

    def warn(self, kind: str, detail: str, point: Optional[str] = None) -> None:
        """Append one structured run-health warning.

        Used by the engine when a worker's last-progress timestamp
        exceeds its chunk deadline — the wedge is recorded while the run
        is still in flight instead of staying silent until join.
        """
        if kind not in self.WARNINGS:
            raise ValueError(f"unknown manifest warning {kind!r}")
        entry: Dict[str, Any] = {
            "v": MANIFEST_SCHEMA_VERSION,
            "source": "warning",
            "kind": kind,
            "detail": detail,
        }
        if point is not None:
            entry["point"] = point
        self._append(entry)


def validate_manifest_record(record: Any) -> Tuple[str, List[str]]:
    """Classify one manifest record; returns ``(status, problems)``.

    ``status`` is ``"ok"`` (current schema), ``"legacy"`` (no version
    stamp — written before versioning, structurally checked but flagged),
    or ``"error"``.  Records stamped with an unknown version are errors:
    this reader cannot interpret them.
    """
    if not isinstance(record, dict):
        return "error", ["record must be a JSON object"]
    problems: List[str] = []
    version = record.get("v")
    if version is None:
        status = "legacy"
    elif version == MANIFEST_SCHEMA_VERSION:
        status = "ok"
    else:
        return "error", [
            f"unknown manifest schema version {version!r} "
            f"(supported: {MANIFEST_SCHEMA_VERSION})"
        ]
    source = record.get("source")
    if source == "warning":
        if record.get("kind") not in RunManifest.WARNINGS:
            problems.append(f"unknown warning kind {record.get('kind')!r}")
        if not isinstance(record.get("detail"), str):
            problems.append("warning record missing detail")
    elif source in RunManifest.SOURCES:
        for field in ("point", "key", "digest"):
            if not isinstance(record.get(field), str) or not record[field]:
                problems.append(f"missing or empty {field!r}")
        for field in ("seconds",):
            if field in record and not isinstance(record[field], (int, float)):
                problems.append(f"non-numeric {field!r}")
        for field in ("worker", "dropped"):
            if field in record and not isinstance(record[field], int):
                problems.append(f"non-integer {field!r}")
    else:
        problems.append(f"unknown manifest source {source!r}")
    return ("error" if problems else status), problems


def validate_manifest(path: Union[str, os.PathLike]) -> Tuple[Dict[str, int], List[str]]:
    """Validate a whole manifest file; returns ``(counts, problems)``.

    ``counts`` tallies record statuses (``ok`` / ``legacy`` / ``error``);
    ``problems`` carries one line-prefixed message per finding.
    """
    counts = {"ok": 0, "legacy": 0, "error": 0}
    problems: List[str] = []
    for lineno, record in enumerate(_iter_lines(path), start=1):
        if isinstance(record, str):
            counts["error"] += 1
            problems.append(f"line {lineno}: {record}")
            continue
        status, record_problems = validate_manifest_record(record)
        counts[status] += 1
        for problem in record_problems:
            problems.append(f"line {lineno}: {problem}")
    return counts, problems


def _iter_lines(path: Union[str, os.PathLike]):
    """Parsed records, or an error string for unparseable lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError as exc:
                yield f"unparseable JSON ({exc})"


def read_manifest(path: Union[str, os.PathLike]) -> list:
    """All records of a manifest file (for tests and tooling)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
