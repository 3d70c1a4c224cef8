"""Export traces to Chrome-trace JSON and compact JSONL.

The Chrome trace event format (the JSON Perfetto and ``chrome://tracing``
load) models a trace as processes and threads; we map one **SM per
process** and one **track per sub-core, collector unit and warp**:

* ``tid 1`` — the SM track: CTA launch/retire instants and memory
  accesses (span per warp memory instruction);
* ``tid 10 + 10·sc`` — the sub-core track: stall spans (one per
  attributed stall, named ``stall:<bucket>``), bank-conflict instants and
  migration arrivals;
* ``tid 10 + 10·sc + 1 + cu`` — one track per collector unit: a span
  from allocation to dispatch, so operand-collector occupancy reads
  directly off the timeline (Fig. 12's quantity);
* ``tid 1000 + warp_id`` — one track per warp: issued instructions
  (1-cycle spans named by opcode) plus barrier/exit instants.

Model cycles map 1:1 to trace microseconds (``ts``/``dur``), so Perfetto
durations read as cycle counts.

Export is deterministic: events keep emission order (simulation order),
metadata tracks are sorted by ``(pid, tid)``, and serialization uses
sorted keys with fixed separators — the exported bytes are identical
across processes and ``PYTHONHASHSEED`` values (pinned by a golden
test).

Export streams.  A :class:`~repro.obs.tracer.Tracer` holds its events as
integer records, and every reader here decodes them one record at a time
(:meth:`~repro.obs.tracer.Tracer.iter_events`); a plain list of event
dicts is read as it is.  :func:`write_chrome_trace` makes two passes:

1. the first collects the ``(pid, tid)`` tracks, converting only the
   first event of each track-determining field combination, and turns
   them into the sorted metadata events;
2. the second converts the events in batches of a few hundred and
   writes each batch's JSON as soon as it is made.

The pieces concatenate to exactly ``json.dumps(chrome_trace(t),
sort_keys=True, separators=(",", ":"))`` (``"traceEvents"`` sorts after
the header keys), so the document is never built whole: an export's
memory peak is a fraction of the file it writes (a tier-1 test bounds
it).  :func:`dumps_chrome_trace` joins the same pieces.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from . import events as ev
from .tracer import Tracer

#: tid of the per-SM track (CTA + memory events).
SM_TID = 1
#: tid base/stride of per-sub-core tracks; CU n of sub-core s gets
#: ``SUBCORE_TID_BASE + SUBCORE_TID_STRIDE*s + 1 + n``.
SUBCORE_TID_BASE = 10
SUBCORE_TID_STRIDE = 10
#: tid base of per-warp tracks.
WARP_TID_BASE = 1000

EventList = Sequence[Dict[str, Any]]
TraceLike = Union[Tracer, EventList]


def _events_of(trace: TraceLike) -> Iterable[Dict[str, Any]]:
    """The events of ``trace``; a :class:`Tracer` decodes them one at a time."""
    return trace.iter_events() if isinstance(trace, Tracer) else trace


def subcore_tid(sc: int) -> int:
    return SUBCORE_TID_BASE + SUBCORE_TID_STRIDE * sc


def cu_tid(sc: int, cu: int) -> int:
    return subcore_tid(sc) + 1 + cu


def warp_tid(warp: int) -> int:
    return WARP_TID_BASE + warp


def _instant(name: str, t: int, pid: int, tid: int, args: Dict[str, Any]) -> Dict[str, Any]:
    return {"name": name, "ph": "i", "s": "t", "ts": t, "pid": pid, "tid": tid, "args": args}


def _span(name: str, t: int, dur: int, pid: int, tid: int, args: Dict[str, Any]) -> Dict[str, Any]:
    return {"name": name, "ph": "X", "ts": t, "dur": dur, "pid": pid, "tid": tid, "args": args}


def _convert(event: Dict[str, Any]) -> Tuple[Dict[str, Any], str]:
    """One raw event → (chrome event, track name for its tid)."""
    kind, t, sm = event["e"], event["t"], event["sm"]
    if kind == ev.WARP_ISSUE:
        tid = warp_tid(event["w"])
        track = f"warp {event['w']} (sc {event['sc']})"
        args = {"pc": event["pc"], "policy": event["pol"], "greedy": event["greedy"]}
        return _span(event["op"], t, 1, sm, tid, args), track
    if kind == ev.WARP_STALL:
        tid = subcore_tid(event["sc"])
        track = f"sub-core {event['sc']}"
        args = {"slots": event["slots"]}
        return _span(f"stall:{event['why']}", t, event["dur"], sm, tid, args), track
    if kind == ev.WARP_BARRIER:
        tid = warp_tid(event["w"])
        track = f"warp {event['w']} (sc {event['sc']})"
        return _instant("barrier", t, sm, tid, {}), track
    if kind == ev.WARP_EXIT:
        tid = warp_tid(event["w"])
        track = f"warp {event['w']} (sc {event['sc']})"
        return _instant("exit", t, sm, tid, {}), track
    if kind == ev.WARP_MIGRATE:
        tid = subcore_tid(event["sc"])
        track = f"sub-core {event['sc']}"
        args = {"warp": event["w"], "from_subcore": event["from"]}
        return _instant("migrate-in", t, sm, tid, args), track
    if kind == ev.CTA_LAUNCH:
        return _instant(f"CTA {event['cta']} launch", t, sm, SM_TID, {"warps": event["n"]}), "SM"
    if kind == ev.CTA_RETIRE:
        return _instant(f"CTA {event['cta']} retire", t, sm, SM_TID, {"latency": event["dur"]}), "SM"
    if kind == ev.CU_SPAN:
        tid = cu_tid(event["sc"], event["cu"])
        track = f"sub-core {event['sc']} CU{event['cu']}"
        args = {"warp": event["w"]}
        return _span(event["op"], t, event["dur"], sm, tid, args), track
    if kind == ev.BANK_CONFLICT:
        tid = subcore_tid(event["sc"])
        track = f"sub-core {event['sc']}"
        return _instant("bank-conflict", t, sm, tid, {"waiting": event["n"]}), track
    if kind == ev.MEM_ACCESS:
        args = {k: event[k] for k in ("h", "m") if k in event}
        return _span(f"mem:{event['kind']}", t, event["dur"], sm, SM_TID, args), "SM"
    raise ValueError(f"unknown event kind {kind!r}")


def _tracks(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """First pass: the metadata events naming every process and track used."""
    # An event's track is a function of these fields alone (see _convert),
    # so only the first event of each combination is converted.
    seen: Dict[Tuple[Any, ...], None] = {}
    tracks: Dict[Tuple[int, int], str] = {}
    for event in events:
        key = (event["e"], event["sm"], event.get("sc"), event.get("w"), event.get("cu"))
        if key not in seen:
            seen[key] = None
            chrome, track = _convert(event)
            tracks.setdefault((chrome["pid"], chrome["tid"]), track)
    ordered = sorted(tracks.items())
    metadata: List[Dict[str, Any]] = []
    for pid in dict.fromkeys(pid for (pid, _), _ in ordered):
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"SM {pid}"}}
        )
    for (pid, tid), track in ordered:
        metadata.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": track}}
        )
        metadata.append(
            {"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
             "args": {"sort_index": tid}}
        )
    return metadata


def _header() -> Dict[str, Any]:
    return {"displayTimeUnit": "ms", "otherData": {"time_unit": "cycles", "exporter": "repro.obs"}}


def chrome_trace(trace: TraceLike) -> Dict[str, Any]:
    """The Chrome-trace document (a JSON-safe dict) for a raw event list."""
    metadata = _tracks(_events_of(trace))
    return {**_header(), "traceEvents": metadata + [_convert(e)[0] for e in _events_of(trace)]}


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: Converted events serialized per written piece.
_BATCH = 512


def _chrome_pieces(trace: TraceLike) -> Iterator[str]:
    """The serialized document as a stream of string pieces.

    Their concatenation is exactly ``_dumps(chrome_trace(trace))``:
    ``"traceEvents"`` sorts after the header keys, and a JSON list is its
    items joined by ``","``.  Only the track table and one batch of
    converted events are alive at a time.
    """
    yield _dumps(_header())[:-1] + ',"traceEvents":['
    sep = ""
    for meta in _tracks(_events_of(trace)):
        yield sep + _dumps(meta)
        sep = ","
    chunk: List[Dict[str, Any]] = []
    for event in _events_of(trace):
        chunk.append(_convert(event)[0])
        if len(chunk) == _BATCH:
            yield sep + _dumps(chunk)[1:-1]
            sep, chunk = ",", []
    if chunk:
        yield sep + _dumps(chunk)[1:-1]
    yield "]}"


def dumps_chrome_trace(trace: TraceLike) -> str:
    """Byte-stable serialization of :func:`chrome_trace`."""
    return "".join(_chrome_pieces(trace))


def write_chrome_trace(trace: TraceLike, path: Union[str, os.PathLike]) -> None:
    """Stream :func:`dumps_chrome_trace`'s bytes (plus a newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        for piece in _chrome_pieces(trace):
            fh.write(piece)
        fh.write("\n")


def iter_jsonl(trace: TraceLike) -> Iterable[str]:
    """Raw events as compact JSONL lines (no trailing newlines)."""
    for event in _events_of(trace):
        yield _dumps(event)


def write_events_jsonl(trace: TraceLike, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in iter_jsonl(trace):
            fh.write(line)
            fh.write("\n")
