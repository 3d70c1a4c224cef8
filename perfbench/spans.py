"""Spans recorded by perfbench around each call into a layer.

A span always times its block (workloads read ``span.seconds`` for the
end-to-end numbers); it is *kept* only while the recorder is enabled, so
the untraced pass retains nothing.  Kept spans form a tree per op:
``round`` > op > layer call.  A span's self time is its duration minus
the part its direct children cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional


class Span:
    __slots__ = ("rec", "name", "op", "id", "parent", "start", "end")

    def __init__(self, rec: "Recorder", name: str, op: Optional[str]):
        self.rec = rec
        self.name = name
        self.op = op
        self.id: Optional[int] = None
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        if self.rec.enabled:
            self.rec._keep(self)
            self.rec._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.id is not None:
            self.rec._stack.pop()

    def as_dict(self, workload: str) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "workload": workload,
            "op": self.op,
        }


class Recorder:
    """In-memory span store for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, op: Optional[str] = None) -> Span:
        return Span(self, name, op)

    def _keep(self, span: Span) -> None:
        """File ``span`` under the innermost open span, inheriting its op id."""
        top = self._stack[-1] if self._stack else None
        span.id = len(self.spans)
        span.parent = top.id if top else None
        if span.op is None and top:
            span.op = top.op
        self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> None:
        """Keep a span measured elsewhere (a child process) under the open one.

        ``start``/``end`` are ``time.perf_counter()`` readings; on Linux
        that clock is shared by every process on the host.
        """
        if not self.enabled:
            return
        span = Span(self, name, None)
        span.start, span.end = start, end
        self._keep(span)

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def mean_ms(self, name: str) -> float:
        spans = self.by_name(name)
        return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer (the span name up to its first dot)."""
        own = self.self_seconds()
        out: Dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own[s.id]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_seconds()
        doc = [dict(s.as_dict(self.workload), self_s=own[s.id]) for s in self.spans]
        path.write_text(json.dumps(doc, indent=0) + "\n")
