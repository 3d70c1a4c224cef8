"""Trace event kinds and schemas.

A trace is an ordered list of flat dicts.  Every event carries ``"e"``
(the kind) and ``"t"`` (the model cycle it happened at); the remaining
keys are kind-specific and listed in :data:`EVENT_FIELDS`.  Keys are
single letters or short words so the JSONL stream stays compact:

==========  =============================================================
key         meaning
==========  =============================================================
``t``       model cycle (start cycle for span events)
``e``       event kind (one of :data:`EVENT_KINDS`)
``sm``      SM id
``sc``      sub-core id
``w``       warp id
``cu``      collector-unit id
``cta``     thread-block id
``op``      opcode name
``dur``     span length in cycles (≥ 1)
``pc``      warp trace cursor at issue
``pol``     warp-scheduler policy name
``greedy``  1 when the policy re-issued its last warp (GTO greed)
``why``     stall bucket (see :mod:`repro.obs.stall`)
``slots``   scheduler slots attributed by a stall event
``kind``    memory-access class (``global``/``shared``)
``h``/``m`` L1 hits / misses of one global access
``n``       generic count (warps of a CTA, reads waiting on a conflict)
``from``    donor sub-core of a warp migration
==========  =============================================================

Everything in an event is derived from simulator state — warp ids, SM
ids, cycles — never from wall clocks or object identity, so a trace is
byte-identical across processes and ``PYTHONHASHSEED`` values (the same
contract ``docs/determinism.md`` states for stats).

The module also validates exported Chrome-trace documents
(:func:`validate_chrome_trace`); CI's trace-smoke job runs it via
``python -m repro.obs --validate``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

#: Version of the trace-event schema (kinds, per-kind required keys, key
#: semantics).  External tooling that parses exported JSONL keys on it;
#: bump whenever :data:`EVENT_KINDS` / :data:`EVENT_FIELDS` or the meaning
#: of a key changes.  ``tests/test_golden.py::TestGoldenDesignDigests::
#: test_bank_stealing_event_stream`` pins the exported JSONL and Chrome
#: trace bytes, so a moved event fails there.
EVENT_SCHEMA_VERSION = 1

# -- event kinds -------------------------------------------------------------

WARP_ISSUE = "issue"
WARP_STALL = "stall"
WARP_BARRIER = "barrier"
WARP_EXIT = "exit"
WARP_MIGRATE = "migrate"
CTA_LAUNCH = "cta_launch"
CTA_RETIRE = "cta_retire"
CU_SPAN = "cu"
BANK_CONFLICT = "bank_conflict"
MEM_ACCESS = "mem"

EVENT_KINDS = (
    WARP_ISSUE,
    WARP_STALL,
    WARP_BARRIER,
    WARP_EXIT,
    WARP_MIGRATE,
    CTA_LAUNCH,
    CTA_RETIRE,
    CU_SPAN,
    BANK_CONFLICT,
    MEM_ACCESS,
)

#: Required keys per kind (beyond the universal ``e``/``t``).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    WARP_ISSUE: ("sm", "sc", "w", "op", "pc", "pol", "greedy"),
    WARP_STALL: ("sm", "sc", "why", "slots", "dur"),
    WARP_BARRIER: ("sm", "sc", "w"),
    WARP_EXIT: ("sm", "sc", "w"),
    WARP_MIGRATE: ("sm", "sc", "w", "from"),
    CTA_LAUNCH: ("sm", "cta", "n"),
    CTA_RETIRE: ("sm", "cta", "dur"),
    CU_SPAN: ("sm", "sc", "cu", "w", "op", "dur"),
    BANK_CONFLICT: ("sm", "sc", "n"),
    MEM_ACCESS: ("sm", "kind", "dur"),
}


def validate_event(event: Mapping[str, Any]) -> List[str]:
    """Schema errors of one raw trace event (empty when valid)."""
    errors: List[str] = []
    kind = event.get("e")
    if kind not in EVENT_FIELDS:
        return [f"unknown event kind {kind!r}"]
    if not isinstance(event.get("t"), int) or event["t"] < 0:
        errors.append(f"{kind}: cycle {event.get('t')!r} is not a non-negative int")
    for key in EVENT_FIELDS[kind]:
        if key not in event:
            errors.append(f"{kind}: missing required field {key!r}")
    dur = event.get("dur")
    if dur is not None and (not isinstance(dur, int) or dur < 1):
        errors.append(f"{kind}: dur {dur!r} is not a positive int")
    return errors


# -- Chrome-trace document validation ----------------------------------------

#: Phases the exporter emits: complete spans, instants, metadata.
_CHROME_PHASES = {"X", "i", "M"}
_METADATA_NAMES = {"process_name", "thread_name", "process_sort_index", "thread_sort_index"}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema errors of an exported Chrome-trace JSON document.

    Checks the invariants ``chrome://tracing`` / Perfetto rely on: a
    ``traceEvents`` list whose entries carry ``ph``/``pid``/``tid``/
    ``name``, timestamps and durations that are non-negative numbers, and
    metadata events restricted to the names the viewers understand.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _CHROME_PHASES:
            errors.append(f"{where}: unsupported phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} is not an int")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing name")
        if ph == "M":
            if ev["name"] not in _METADATA_NAMES:
                errors.append(f"{where}: unknown metadata name {ev['name']!r}")
            if not isinstance(ev.get("args"), dict):
                errors.append(f"{where}: metadata without args")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts {ts!r} is not a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur <= 0:
                errors.append(f"{where}: X event dur {dur!r} is not positive")
    return errors
