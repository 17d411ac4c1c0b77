"""Benchmark-side spans around each call into a layer of the program.

Spans are kept in memory and written out once, at the end of a traced
run.  Each has a name, start, end, parent and the request id that all
spans of one request share.  A span's self time is its duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path

from .loadgen import clock


class SpanRecorder:
    def __init__(self):
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, request_id: int,
            parent: int | None = None) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "request_id": request_id,
            })
            return span_id

    @contextmanager
    def span(self, name: str, request_id: int, parent: int | None = None):
        """Time the body; yields a holder whose ``id`` children use."""
        holder = {"id": None}
        with self._lock:
            holder["id"] = len(self.spans)
            self.spans.append({
                "id": holder["id"], "name": name, "start": clock(),
                "end": None, "parent": parent, "request_id": request_id,
            })
        try:
            yield holder
        finally:
            self.spans[holder["id"]]["end"] = clock()

    def self_times(self) -> dict[int, float]:
        """Span id -> seconds not covered by its children."""
        children: dict[int, list] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = {}
        for span in self.spans:
            covered = _union_length([
                (max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in children.get(span["id"], ())
            ])
            out[span["id"]] = span["end"] - span["start"] - covered
        return out

    def write(self, path: Path) -> None:
        self_times = self.self_times()
        doc = [dict(span, self_s=self_times[span["id"]]) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": doc}))


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
