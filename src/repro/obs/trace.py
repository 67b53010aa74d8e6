"""Structured span tracer for the online engine.

Spans are nested intervals over the *event-time* clock driven by the
simulator (``Tracer.advance``), with an opt-in wall-clock duration for
profiling runs.  Each record is a plain dict:

``{"kind": "span", "id": 7, "parent": 3, "name": "admit",
   "t0": 12.5, "t1": 12.5, "tags": {"rid": 41, "outcome": "admitted",
   "color": 2, "arcs": [0, 4], "shard": 0}}``

plus ``"wall": <seconds>`` when the tracer was built with
``wall_clock=True``.  Point events use ``kind="event"`` with a single
``"t"``.  Serialized as JSONL with sorted keys and compact separators,
trace records interleave cleanly with the ``DurableEngine`` decision
journal (one record per line, disjoint ``kind`` values from the
journal's ``type`` field; :func:`read_jsonl` skips journal lines, bare
v1 objects and CRC-framed v2 lines alike).

Determinism contract: constructing spans must never read engine state
beyond what the caller tags explicitly, and nothing recorded here feeds
back into admission decisions — the tracer is write-only from the
engine's point of view.  Wall-clock readings go only into trace output,
never into the metrics registry.
"""

from __future__ import annotations

import json
import time as _time
from collections import deque
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "ListSink",
    "RingBufferSink",
    "JsonlSink",
    "NullSink",
    "dumps_record",
]


def dumps_record(record: Dict[str, object]) -> str:
    """Journal-compatible serialization: compact, sorted, one line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class NullSink:
    """Discards records; used when only profiling hooks are wanted."""

    __slots__ = ()

    def emit(self, record: Dict[str, object]) -> None:
        pass

    def records(self) -> List[Dict[str, object]]:
        return []


class ListSink:
    """Unbounded in-memory sink (tests, short traces)."""

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: List[Dict[str, object]] = []

    def emit(self, record: Dict[str, object]) -> None:
        self._records.append(record)

    def records(self) -> List[Dict[str, object]]:
        return list(self._records)


class RingBufferSink:
    """Bounded always-on sink: keeps the newest ``capacity`` records.

    ``dropped`` counts evictions so consumers can tell a truncated trace
    from a complete one.
    """

    __slots__ = ("_ring", "dropped")

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._ring: deque = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, record: Dict[str, object]) -> None:
        ring = self._ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append(record)

    def records(self) -> List[Dict[str, object]]:
        return list(self._ring)


class JsonlSink:
    """Streams records to a JSONL file (or any text handle).

    Writes are buffered by the underlying handle, so a short run that
    never fills the buffer loses its trailing records unless the sink is
    closed: call :meth:`close` (or use the sink — or its owning
    :class:`Tracer` — as a context manager) when the trace is done.
    ``closed`` tells consumers whether the records are durable yet.
    """

    __slots__ = ("_fh", "_owns", "emitted", "closed")

    def __init__(self, target: Union[str, "IO[str]"]) -> None:
        if isinstance(target, (str, bytes)):
            self._fh = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.emitted = 0
        self.closed = False

    def emit(self, record: Dict[str, object]) -> None:
        self._fh.write(dumps_record(record))
        self._fh.write("\n")
        self.emitted += 1

    def flush(self) -> None:
        """Push buffered records to the handle (and through it, the OS)."""
        if not self.closed:
            self._fh.flush()

    def close(self) -> None:
        """Flush, then close an owned handle.  Idempotent.

        A borrowed handle (the caller passed an open file object) is
        flushed but left open — its lifetime belongs to the caller.
        """
        if self.closed:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self.closed = True

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Span:
    """Context-manager handle for one traced interval.

    ``tags`` may be mutated while the span is open (the engine fills in
    the outcome after the decision is made); the record is emitted on
    exit.
    """

    __slots__ = ("_tracer", "name", "tags", "id", "parent", "t0", "_wall0")

    def __init__(self, tracer: "Tracer", name: str,
                 tags: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.id = -1
        self.parent: Optional[int] = None
        self.t0 = 0.0
        self._wall0 = 0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.id = tracer._next_id
        tracer._next_id += 1
        stack = tracer._stack
        self.parent = stack[-1].id if stack else None
        self.t0 = tracer.now
        stack.append(self)
        profiler = tracer.profiler
        if profiler is not None:
            profiler.enter(self.name)
        if tracer.wall_clock:
            self._wall0 = _time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        record: Dict[str, object] = {
            "kind": "span",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "t0": self.t0,
            "t1": tracer.now,
            "tags": self.tags,
        }
        if tracer.wall_clock:
            record["wall"] = (_time.perf_counter_ns() - self._wall0) / 1e9
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        profiler = tracer.profiler
        if profiler is not None:
            profiler.exit(self.name)
        tracer._stack.pop()
        tracer.sink.emit(record)


class Tracer:
    """Nested span tracer over an externally-advanced event-time clock.

    The simulator calls :meth:`advance` as it consumes trace events; the
    engine opens spans around admit/admit_batch/depart/defrag and the
    fault/recovery paths.  ``wall_clock=True`` additionally stamps each
    span with its wall duration (for profiling; never fed back into the
    metrics registry).  A :class:`repro.obs.profiling.SpanProfiler` can
    be attached to receive enter/exit callbacks per span category.
    """

    __slots__ = ("sink", "wall_clock", "now", "profiler", "_stack",
                 "_next_id")

    def __init__(self, sink=None, *, wall_clock: bool = False,
                 profiler=None) -> None:
        self.sink = sink if sink is not None else RingBufferSink()
        self.wall_clock = wall_clock
        self.now = 0.0
        self.profiler = profiler
        self._stack: List[Span] = []
        self._next_id = 0

    def advance(self, t: float) -> None:
        self.now = t

    def span(self, name: str, **tags) -> Span:
        return Span(self, name, tags)

    def emit_span(self, name: str, t0: float,
                  tags: Dict[str, object]) -> None:
        """Emit an already-closed flat span record (hot-path helper).

        Identical record shape to an immediately-exited :meth:`span`
        with no children, minus the context-manager machinery.  The
        engine's per-request paths use it when no profiler and no wall
        clock are attached; anything emitted *during* the spanned work
        is parented under the enclosing open span, not this one.
        """
        nid = self._next_id
        self._next_id = nid + 1
        stack = self._stack
        self.sink.emit({
            "kind": "span",
            "id": nid,
            "parent": stack[-1].id if stack else None,
            "name": name,
            "t0": t0,
            "t1": self.now,
            "tags": tags,
        })

    def event(self, name: str, **tags) -> None:
        """Emit a point event at the current event time."""
        stack = self._stack
        record: Dict[str, object] = {
            "kind": "event",
            "id": self._next_id,
            "parent": stack[-1].id if stack else None,
            "name": name,
            "t": self.now,
            "tags": tags,
        }
        self._next_id += 1
        self.sink.emit(record)

    def records(self) -> List[Dict[str, object]]:
        return self.sink.records()

    def attach_profiler(self, profiler) -> None:
        self.profiler = profiler

    def close(self) -> None:
        """Flush and close the sink, if it supports closing.

        File-backed sinks (:class:`JsonlSink`) buffer their writes, so a
        tracer abandoned without closing can lose the trailing span
        records of a short run.  In-memory sinks have no ``close`` and
        are unaffected.  Idempotent; the tracer itself stays usable only
        for in-memory sinks afterwards.
        """
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(lines: Iterable[str]) -> List[Dict[str, object]]:
    """Parse JSONL trace lines, skipping journal records (no ``kind``,
    or a v2 journal frame before the object); any other line that is not
    JSON raises."""
    # imported here: the journal module sits above the tracer it uses
    from ..online.persistence import is_framed
    records = []
    for line in lines:
        line = line.strip()
        if not line or is_framed(line):
            continue
        obj = json.loads(line)
        if isinstance(obj, dict) and obj.get("kind") in ("span", "event"):
            records.append(obj)
    return records
