"""Layer spans recorded from outside the program.

In a traced run the benchmark swaps the public callables of each layer
for thin wrappers, on the classes and module attributes ``repro`` calls
them through (and on the live service instance), and puts the originals
back when the pass ends.  Each wrapper appends one span
``(name, start_ns, end_ns, parent, rid, note)`` to an in-memory list:
``parent`` is the index of the enclosing wrapped call (``-1`` at top
level), ``rid`` the request id(s) the call works on and ``note`` a small
fact about its result (routes returned, moves made, ...).

A span's self time is its duration minus the time its child spans
cover.  A layer's time per call is the self time of all its spans over
its outermost calls.  Nothing under ``src/`` is changed or needed for
this; tracing inside the program is a separate piece of work.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from typing import Callable, Dict, List, Optional

from repro.conflict.dynamic import DynamicConflictGraph, ShardedConflictGraph
from repro.online import ARRIVAL, DEPARTURE
from repro.online import defrag as defrag_module
from repro.online import routing
from repro.online import simulator as simulator_module
from repro.online.assigner import OnlineWavelengthAssigner
from repro.online.faults import FaultInjector
from repro.online.persistence import DurableEngine
from repro.online.simulator import OnlineEngine

from workloads import percentile

NAME, T0, T1, PARENT, RID, NOTE = range(6)


def _rid(args, kwargs):
    return kwargs["request_id"] if "request_id" in kwargs else args[1]


def _batch_rids(args, kwargs):
    arrivals = kwargs["arrivals"] if "arrivals" in kwargs else args[1]
    return tuple(event.request_id for event in arrivals)


def _routes(result, args, kwargs):
    if result is None:
        return 0
    return len(result) if isinstance(result, list) else 1


def _is_none(result, args, kwargs):
    return result is None


def _is_some(result, args, kwargs):
    return result is not None


def _batch_size(result, args, kwargs):
    return len(kwargs["dipaths"] if "dipaths" in kwargs else args[2])


def _moves(result, args, kwargs):
    return len(result.moves)


def _fault(result, args, kwargs):
    return (len(result.stranded), len(result.restored))


def _targets():
    """``(owner, attribute, span name, rid getter, note getter)`` per
    wrapped callable.

    ``admit_best`` and the dipath-level ``admit_batch`` are wrapped where
    the engine and the defragmenter look them up: the modules that
    imported them by name.
    """
    targets = []
    for cls in (routing.OnlineRouter, routing.StaticRouter,
                routing.LeastLoadedRouter, routing.KShortestRouter,
                routing.WidestRouter):
        for attr in ("route", "candidates"):
            if attr in vars(cls):
                targets.append((cls, attr, "routing." + attr, None, _routes))
    for cls in (DynamicConflictGraph, ShardedConflictGraph):
        targets.append((cls, "add_dipath", "conflict.add", None, None))
        targets.append((cls, "remove_dipath", "conflict.remove", None, None))
    targets += [
        (OnlineWavelengthAssigner, "assign", "assigner.assign", None,
         _is_none),
        (OnlineWavelengthAssigner, "release", "assigner.release", None,
         None),
        (OnlineEngine, "admit", "engine.admit", _rid, None),
        (OnlineEngine, "admit_batch", "engine.admit_batch", _batch_rids,
         None),
        (OnlineEngine, "depart", "engine.depart", _rid, None),
        (OnlineEngine, "defrag", "defrag.pass", None, _moves),
        (simulator_module, "admit_best", "transaction.admit_best", None,
         _is_some),
        (defrag_module, "admit_best", "transaction.admit_best", None,
         _is_some),
        (simulator_module, "_admit_dipath_batch", "transaction.batch", None,
         _batch_size),
        (FaultInjector, "cut", "faults.cut", None, _fault),
        (FaultInjector, "repair", "faults.repair", None, _fault),
        (DurableEngine, "admit", "journal.admit", _rid, None),
        (DurableEngine, "admit_batch", "journal.admit_batch", _batch_rids,
         None),
        (DurableEngine, "depart", "journal.depart", _rid, None),
        (DurableEngine, "defrag", "journal.defrag", None, None),
        (DurableEngine, "cut", "journal.cut", None, None),
        (DurableEngine, "repair", "journal.repair", None, None),
        (DurableEngine, "snapshot", "journal.snapshot", None, None),
    ]
    return targets


class SpanRecorder:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def wrap(self, fn: Callable, name: str,
             rid: Optional[Callable] = None,
             note: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                # a finished span is a tuple of atoms, which the cyclic
                # collector stops tracking: a list per span made every
                # full collection of a traced pass scan them all
                spans[index] = (
                    name, start, end, parent,
                    None if rid is None else rid(args, kwargs),
                    note(result, args, kwargs)
                    if note is not None and returned else None)

        return wrapper

    def install(self) -> None:
        """Wrap every layer callable; :meth:`uninstall` undoes it."""
        for owner, attr, name, rid, note in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, rid, note))

    def wrap_service(self, service) -> None:
        """Wrap the submit and read calls of one live service instance."""
        for attr in ("submit_nowait", "depart_nowait", "cut_nowait",
                     "repair_nowait"):
            setattr(service, attr,
                    self.wrap(getattr(service, attr), "service.submit"))
        for attr in ("utilisation", "blocking_stats"):
            setattr(service, attr,
                    self.wrap(getattr(service, attr), "service.read"))
        service.metrics_snapshot = self.wrap(service.metrics_snapshot,
                                             "obs.snapshot")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> List[int]:
        """Self time of every span, in nanoseconds."""
        spans = self.spans
        own = [span[T1] - span[T0] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[T1] - span[T0]
        return own

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                rid = span[RID]
                out.write(json.dumps([span[NAME], span[T0], span[T1],
                                      span[PARENT],
                                      list(rid) if isinstance(rid, tuple)
                                      else rid, span[NOTE]]))
                out.write("\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def engine_ledger(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer metrics of a saturated pass, from its spans."""
    spans = recorder.spans
    own = recorder.self_times()
    self_ns: Dict[str, int] = {}
    outer: Dict[str, List[tuple]] = {}
    for i, span in enumerate(spans):
        name = span[NAME]
        self_ns[name] = self_ns.get(name, 0) + own[i]
        parent = span[PARENT]
        if parent < 0 or _layer(spans[parent][NAME]) != _layer(name):
            outer.setdefault(name, []).append(span)

    def calls(*names: str) -> List[tuple]:
        return [span for name in names for span in outer.get(name, [])]

    def self_us(*names: str) -> float:
        total = sum(self_ns.get(name, 0) for name in names)
        return _mean(total / 1000.0, len(calls(*names)))

    def inclusive_us(name: str) -> List[float]:
        return [(span[T1] - span[T0]) / 1000.0 for span in calls(name)]

    route_calls = calls("routing.route", "routing.candidates")
    conflict_calls = calls("conflict.add", "conflict.remove")
    assigns = calls("assigner.assign")
    best = calls("transaction.admit_best")
    batches = calls("transaction.batch")
    passes = calls("defrag.pass")
    faults = calls("faults.cut", "faults.repair")
    stranded = sum(span[NOTE][0] for span in faults)
    restored = sum(span[NOTE][1] for span in faults)
    journal = ("journal.admit", "journal.admit_batch", "journal.depart",
               "journal.defrag", "journal.cut", "journal.repair")
    # snapshots run inside the journalled op that triggers them
    snapshots = [span for span in spans if span[NAME] == "journal.snapshot"]
    admits = inclusive_us("engine.admit")
    batch_admits = calls("engine.admit_batch")
    arrivals = len(admits) + sum(len(span[RID]) for span in batch_admits)
    admit_total = sum(admits) + sum(inclusive_us("engine.admit_batch"))
    departs = inclusive_us("engine.depart")
    return {
        "routing.calls": float(len(route_calls)),
        "routing.self_us": self_us("routing.route", "routing.candidates"),
        "routing.no_route_ratio": _mean(
            sum(1 for span in route_calls if span[NOTE] == 0),
            len(route_calls)),
        "routing.candidates_per_call": _mean(
            sum(span[NOTE] for span in route_calls), len(route_calls)),
        "conflict.calls": float(len(conflict_calls)),
        "conflict.add_us": self_us("conflict.add"),
        "conflict.remove_us": self_us("conflict.remove"),
        "assigner.assign_us": self_us("assigner.assign"),
        "assigner.release_us": self_us("assigner.release"),
        "assigner.fail_ratio": _mean(
            sum(1 for span in assigns if span[NOTE]), len(assigns)),
        "engine.admit_us": _mean(admit_total, arrivals),
        "engine.depart_us": _mean(sum(departs), len(departs)),
        "transaction.admit_best_us": self_us("transaction.admit_best"),
        "transaction.commit_ratio": _mean(
            sum(1 for span in best if span[NOTE]), len(best)),
        "transaction.batch_us": self_us("transaction.batch"),
        "transaction.batch_size": _mean(
            sum(span[NOTE] for span in batches), len(batches)),
        "defrag.passes": float(len(passes)),
        "defrag.pass_us": self_us("defrag.pass"),
        "defrag.moves_per_pass": _mean(
            sum(span[NOTE] for span in passes), len(passes)),
        "faults.cut_us": self_us("faults.cut"),
        "faults.repair_us": self_us("faults.repair"),
        "faults.restored_ratio": _mean(restored, stranded),
        "journal.append_us": self_us(*journal),
        "journal.snapshot_us": _mean(
            self_ns.get("journal.snapshot", 0) / 1000.0, len(snapshots)),
    }


#: Spans of the layers the service calls into (its backend).
_BACKEND = ("engine.", "journal.", "faults.", "defrag.")


def _covered(windows: List[tuple], calls: List[tuple]) -> int:
    """Time inside the union of ``windows`` not covered by ``calls``.

    Both are ``(start, end)`` pairs; ``calls`` do not overlap each other
    (they are top-level spans of one thread), and are counted only for
    the part inside the union.
    """
    merged: List[list] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = sum(end - start for start, end in merged)
    calls = sorted(calls)
    position = 0
    for start, end in merged:
        while position < len(calls) and calls[position][1] <= start:
            position += 1
        scan = position
        while scan < len(calls) and calls[scan][0] < end:
            total -= min(end, calls[scan][1]) - max(start, calls[scan][0])
            scan += 1
    return max(0, total)


def service_ledger(recorder: SpanRecorder, stats, events
                   ) -> Dict[str, float]:
    """Service-layer metrics of one traced open-loop pass.

    Queue wait runs from an op's scheduled send to the start of the
    backend call that carries its request id.  Service self time is the
    submit calls plus the time while some submitted op is unresolved
    (from the end of its tick's submits to its future resolving) that
    no top-level wrapped call covers (backend, submits, reader): the
    drain task's own work and the asyncio scheduling around it.
    """
    spans = recorder.spans
    backend_start: Dict[tuple, int] = {}
    top: List[tuple] = []
    for span in spans:
        if span[PARENT] >= 0:
            continue
        name = span[NAME]
        top.append(span)
        if not name.startswith(_BACKEND) or span[RID] is None:
            continue
        kind = "d" if name.endswith("depart") else "a"
        rids = span[RID] if isinstance(span[RID], tuple) else (span[RID],)
        for rid in rids:
            backend_start.setdefault((kind, rid), span[T0])
    waits = []
    for index, event in enumerate(events):
        if event.kind not in (ARRIVAL, DEPARTURE):
            continue
        kind = "d" if event.kind == DEPARTURE else "a"
        started = backend_start.get((kind, event.request_id))
        if started is not None:
            waits.append(started / 1e3 - stats.due[index] * 1e6)
    submit_ns = sum(span[T1] - span[T0] for span in spans
                    if span[NAME] == "service.submit")
    drain_ns = _covered(
        [(int(submitted * 1e9), int(max(stats.resolved[first:end]) * 1e9))
         for submitted, first, end in stats.ticks],
        [(span[T0], span[T1]) for span in top])
    reads = [span for span in spans if span[NAME] == "service.read"]
    snaps = [span for span in spans if span[NAME] == "obs.snapshot"]
    return {
        "service.queue_wait_us": _mean(sum(waits), len(waits)),
        "service.self_us": _mean((submit_ns + drain_ns) / 1e3,
                                 len(events)),
        "service.pending_p99": (float(percentile(stats.pending, 0.99))
                                if stats.pending else 0.0),
        "service.read_us": _mean(
            sum(span[T1] - span[T0] for span in reads) / 1e3, len(reads)),
        "obs.snapshot_us": _mean(
            sum(span[T1] - span[T0] for span in snaps) / 1e3, len(snaps)),
    }
