"""The cycle-level event tracer.

A :class:`Tracer` is an append-only event sink the core model emits into
through ``if self.tracer is not None`` guards — when no tracer is
attached the hooks cost a single attribute test, and an untraced run's
stats are byte-identical to seed behaviour (a regression test pins
this).

Storage is one ``array('q')`` of fixed-width integer records,
:data:`RECORD_SLOTS` slots per event, in emission order:

* slot 0 is the cycle ``t``, slot 1 the kind's index in
  :data:`~repro.obs.events.EVENT_KINDS`;
* slots 2.. hold the kind's :data:`~repro.obs.events.EVENT_FIELDS` in
  order, and unused trailing slots are 0;
* the string fields (``op``, ``pol``, ``why``, ``kind``) are ids into a
  per-tracer string table that numbers strings in first-seen order;
* ``mem``'s optional ``h``/``m`` are ``-1`` when absent.

A record costs 72 bytes instead of a ~260-byte dict, and the whole stream
is one object for the collector.  Each hook writes its record with one
inline ``extend`` — no helper call per event or per string.  Readers
decode one record at a time (:meth:`Tracer.iter_events`) into the flat
dicts of :mod:`repro.obs.events`, or decode only the first record of each
field combination (:meth:`Tracer.first_events`); :attr:`Tracer.events` is
a read-only decoded list for tests and list-of-dict callers.

Simulation determinism makes the stream reproducible: the same
``(workload, config, num_sms)`` produces a byte-identical event stream
in every process and under every ``PYTHONHASHSEED`` (string ids follow
emission order, never hashing).

``max_cycles`` bounds trace size for long runs (the CLI's
``--trace-cycles``): events at later cycles are counted in ``dropped``
instead of stored.  Stall-attribution *counters* are not affected — the
cap only limits the event stream.
"""

from __future__ import annotations

import sys
from array import array
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from . import events as ev

#: Integer slots per stored event: ``t``, kind index, then up to seven
#: fields (``issue`` has the most).
RECORD_SLOTS = 9

#: Fields stored as string-table ids.
_STRING_FIELDS = frozenset({"op", "pol", "why", "kind"})
#: Optional fields, stored as ``-1`` when absent.
_OPTIONAL_FIELDS = ("h", "m")

# Kind indices the hooks write into slot 1.
_ISSUE, _STALL, _BARRIER, _EXIT, _MIGRATE, _CTA_LAUNCH, _CTA_RETIRE, _CU, _CONFLICT, _MEM = (
    ev.EVENT_KINDS.index(kind)
    for kind in (
        ev.WARP_ISSUE, ev.WARP_STALL, ev.WARP_BARRIER, ev.WARP_EXIT, ev.WARP_MIGRATE,
        ev.CTA_LAUNCH, ev.CTA_RETIRE, ev.CU_SPAN, ev.BANK_CONFLICT, ev.MEM_ACCESS,
    )
)

#: Per kind index: (kind, ((slot, field, is_string, is_optional), ...)).
_LAYOUT: Tuple[Tuple[str, Tuple[Tuple[int, str, bool, bool], ...]], ...] = tuple(
    (
        kind,
        tuple(
            (2 + i, field, field in _STRING_FIELDS, field in _OPTIONAL_FIELDS)
            for i, field in enumerate(
                ev.EVENT_FIELDS[kind] + (_OPTIONAL_FIELDS if kind == ev.MEM_ACCESS else ())
            )
        ),
    )
    for kind in ev.EVENT_KINDS
)
assert max(len(fields) for _, fields in _LAYOUT) + 2 == RECORD_SLOTS


class _StringIds(dict):
    """String → id, numbering unseen strings in first-seen order."""

    def __missing__(self, key: str) -> int:
        self[key] = sid = len(self)
        return sid


class Tracer:
    """Collects model events for Chrome-trace / JSONL export."""

    def __init__(self, max_cycles: Optional[int] = None):
        if max_cycles is not None and max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        self.max_cycles = max_cycles
        # Hooks store an event iff ``t < _horizon``: one compare per event.
        self._horizon = sys.maxsize if max_cycles is None else max_cycles
        self._rec = array("q")
        self._ids = _StringIds()
        #: Events suppressed by the ``max_cycles`` cap.
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._rec) // RECORD_SLOTS

    def active(self, cycle: int) -> bool:
        """Whether events at ``cycle`` are still being recorded."""
        return cycle < self._horizon

    # -- reading -----------------------------------------------------------

    def _rows(self) -> Iterator[Tuple[int, ...]]:
        it = iter(self._rec)
        return zip(*[it] * RECORD_SLOTS)

    def iter_events(self) -> Iterator[Dict[str, Any]]:
        """Decode the stored records, one event dict at a time."""
        return self._decode(self._rows())

    def first_events(self, fields: Tuple[str, ...]) -> Iterator[Dict[str, Any]]:
        """Decode only the first event of each ``(kind, *fields)`` combination.

        The combination is read from the integer records (a kind without
        one of ``fields`` leaves it out of its key), so every other record
        stays undecoded.  ``fields`` must be integer fields.
        """
        keys = [
            itemgetter(1, *[slot for slot, field, _, _ in layout if field in fields])
            for _, layout in _LAYOUT
        ]
        seen: Dict[Tuple[int, ...], None] = {}

        def firsts() -> Iterator[Tuple[int, ...]]:
            for row in self._rows():
                key = keys[row[1]](row)
                if key not in seen:
                    seen[key] = None
                    yield row

        return self._decode(firsts())

    def _decode(self, rows: Iterable[Tuple[int, ...]]) -> Iterator[Dict[str, Any]]:
        names = list(self._ids)
        for row in rows:
            kind, fields = _LAYOUT[row[1]]
            event: Dict[str, Any] = {"t": row[0], "e": kind}
            for slot, field, is_string, is_optional in fields:
                value = row[slot]
                if is_string:
                    event[field] = names[value]
                elif value >= 0 or not is_optional:
                    event[field] = value
            yield event

    @property
    def events(self) -> List[Dict[str, Any]]:
        """All events as flat dicts (a fresh decoded copy on each read)."""
        return list(self.iter_events())

    # -- warp lifecycle ----------------------------------------------------

    def warp_issue(
        self,
        cycle: int,
        sm: int,
        sc: int,
        warp: int,
        opcode: str,
        pc: int,
        policy: str,
        greedy: bool,
    ) -> None:
        if cycle < self._horizon:
            ids = self._ids
            self._rec.extend((cycle, _ISSUE, sm, sc, warp, ids[opcode], pc, ids[policy], greedy))
        else:
            self.dropped += 1

    def warp_stall(
        self, cycle: int, sm: int, sc: int, why: str, slots: int, dur: int = 1
    ) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _STALL, sm, sc, self._ids[why], slots, dur, 0, 0))
        else:
            self.dropped += 1

    def warp_barrier(self, cycle: int, sm: int, sc: int, warp: int) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _BARRIER, sm, sc, warp, 0, 0, 0, 0))
        else:
            self.dropped += 1

    def warp_exit(self, cycle: int, sm: int, sc: int, warp: int) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _EXIT, sm, sc, warp, 0, 0, 0, 0))
        else:
            self.dropped += 1

    def warp_migrate(
        self, cycle: int, sm: int, to_sc: int, warp: int, from_sc: int
    ) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _MIGRATE, sm, to_sc, warp, from_sc, 0, 0, 0))
        else:
            self.dropped += 1

    # -- CTA lifecycle -----------------------------------------------------

    def cta_launch(self, cycle: int, sm: int, cta: int, num_warps: int) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _CTA_LAUNCH, sm, cta, num_warps, 0, 0, 0, 0))
        else:
            self.dropped += 1

    def cta_retire(self, cycle: int, sm: int, cta: int, latency: int) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _CTA_RETIRE, sm, cta, max(1, latency), 0, 0, 0, 0))
        else:
            self.dropped += 1

    # -- operand collector -------------------------------------------------

    def cu_span(
        self,
        start_cycle: int,
        sm: int,
        sc: int,
        cu: int,
        warp: int,
        opcode: str,
        dur: int,
    ) -> None:
        if start_cycle < self._horizon:
            self._rec.extend(
                (start_cycle, _CU, sm, sc, cu, warp, self._ids[opcode], max(1, dur), 0)
            )
        else:
            self.dropped += 1

    def bank_conflict(self, cycle: int, sm: int, sc: int, waiting: int) -> None:
        if cycle < self._horizon:
            self._rec.extend((cycle, _CONFLICT, sm, sc, waiting, 0, 0, 0, 0))
        else:
            self.dropped += 1

    # -- memory ------------------------------------------------------------

    def mem_access(
        self,
        cycle: int,
        sm: int,
        kind: str,
        dur: int,
        l1_hits: Optional[int] = None,
        l1_misses: Optional[int] = None,
    ) -> None:
        if cycle < self._horizon:
            self._rec.extend((
                cycle, _MEM, sm, self._ids[kind], max(1, dur),
                -1 if l1_hits is None else l1_hits,
                -1 if l1_misses is None else l1_misses,
                0, 0,
            ))
        else:
            self.dropped += 1
