"""Durable journal and crash recovery for the online engine.

:class:`DurableEngine` wraps :class:`~repro.online.simulator.OnlineEngine`
with a **write-behind append-only journal**: every state transition
(admission, batched admission, departure, batched departure,
defragmentation pass, fibre cut, fibre repair) executes first and is then
appended as one line recording both the *inputs* and the *decision* the
engine took.  Each op syncs its
record (one write and flush, plus ``fsync`` on request) before it
returns, unless it runs inside :meth:`DurableEngine.group`: a group
buffers its records and syncs them together when it exits — the group
commit :class:`~repro.service.RwaService` runs every drained batch
under.  The bytes written are the same either way; only the number of
writes differs.
:func:`recover` rebuilds a crashed engine by running each journal record
back through the very :class:`DurableEngine` op that wrote it — looked up
by record type in one table, called with the record's inputs — with the
op's record write swapped for a **verifier**: the record the op would
write must equal the journalled one, every field of it.  Recovered state
is something to check, not to trust: any divergence raises
:class:`~repro.exceptions.RecoveryError` naming each differing field,
instead of silently running on a state the pre-crash engine never had.
The live path has no replay branch: the swap lives on the instance for
the one replayed call.

**Line format (v2, :data:`JOURNAL_VERSION`).**  Every line is
``<crc32 of payload, 8 lowercase hex> <payload>\n``; the payload is one
record as compact sorted-key JSON.  The genesis record (first line)
carries the engine configuration and the topology.  Its ``vertices``
list holds the vertex labels as JSON (tuples as arrays) in
``graph.vertices()`` order: that is the **vertex table**, and every other
vertex in the journal is written as its integer index into it — the
genesis arcs, request endpoints, dipaths, cut/repair arcs, and a
snapshot's paths, arcs, graph operations and stranded or rerouted
routes.  The hot records (``admit``, ``admit_batch``, ``depart`` and
``depart_batch``) are formatted by per-type templates whose payload
equals the encoder's output for the same record dict byte for byte;
every other record goes through the one encoder, :data:`_encode`.  A
``depart_batch`` record, ``{"held": [...], "rids": [...]}``, carries a
run of equal-time departures in order (a lone departure keeps its
``depart`` record).  The engine refuses an arrival that names a vertex
outside the topology before any state changes, so every journalled
vertex has an index.

Periodically (every ``snapshot_every`` counts, which the one record
write keeps: one per record, except a ``depart_batch``, which counts once
per departure) a **snapshot** record
captures the full engine state — the dipath family's slot/arc tables, the
assigner's colouring and monotone counters (via its own
:class:`~repro.online.assigner.AssignerCheckpoint` capture), the
``request -> member`` map, the fault injector's stranded registry and the
graph-operation history — so recovery jumps to the last snapshot and
replays only the tail.  Sorted keys make every snapshot payload start
with ``{"state":``, so :func:`recover` finds the last snapshot by that
prefix and **JSON-decodes only the genesis, that snapshot and the tail**;
every earlier line is validated by its CRC alone.  During a from-genesis
replay each snapshot record doubles as an integrity gate: it replays
through :meth:`DurableEngine.snapshot`, so the replayed state must
reproduce the snapshot bit-for-bit.

**v1 journals** (unframed JSON lines with vertex labels inline, genesis
``"version": 1``) are read, never appended to.  The vertex coding is the
one difference between the versions, so it is one per-version codec,
chosen from the genesis version and used both ways (v1: the labels
themselves, as JSON): :func:`recover` replays a v1 journal through the
same :meth:`DurableEngine._replay`, then switches the codec to v2 and
atomically replaces the file with a v2 journal
— the genesis (``"version": 2``) and one snapshot of the recovered state,
written to a temporary file, flushed, fsynced and moved over the old
file with ``os.replace``, then the directory fsynced so the rename is as
durable as the appends that follow it.  There is no v1 writer.

**Determinism contract.**  Routing tie-breaks depend on the adjacency-set
iteration order of the topology, which depends on the graph's full
mutation history.  The durable engine therefore *canonicalizes* the
topology at genesis: the journal records the graph's vertices and arcs in
iteration order, and both the live engine and every recovered engine run
on a private graph rebuilt from that record (vertices first, then arcs,
in recorded order) — identical mutation history, identical set layouts,
identical routing.  Fibre cuts/repairs extend the history and are
replayed in order.  Within one process this makes replay bit-identical;
across processes it additionally requires the vertex labels' hashes to be
stable (ints and tuples of ints are; strings need ``PYTHONHASHSEED``
pinned).

What is *not* journalled: wall-clock-bounded defrag passes
(``time_budget`` is refused — a replay cannot reproduce a clock).

Torn tails are expected: a crash mid-append leaves a final line without
its newline, or one whose CRC does not match.  :func:`recover` discards
the torn tail, truncates the file to the last clean record boundary and
resumes appending from there — the op that was being journalled when the
crash hit is simply not durable, exactly like a database WAL.  A bad
line followed by a good one is corruption, never a tail, and raises.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .._typing import Arc, Vertex
from ..dipaths.dipath import Dipath
from ..dipaths.family import DipathFamily
from ..dipaths.requests import Request
from ..exceptions import RecoveryError, TransactionError
from ..graphs.digraph import DiGraph
from .defrag import DefragReport
from ..obs.registry import Instrumented, MetricsRegistry
from ..obs.trace import Tracer
from .events import ARRIVAL, Event
from .faults import FaultInjector, FaultReport
from .routing import make_online_router
from .simulator import EngineConfig, OnlineEngine

__all__ = ["JOURNAL_VERSION", "DurableEngine", "engine_fingerprint",
           "is_framed", "read_journal", "recover"]

#: Journal format version: the only one written, and the one
#: :func:`recover` appends to (version 1 journals are migrated).
JOURNAL_VERSION = 2


# ---------------------------------------------------------------------- #
# record codec
# ---------------------------------------------------------------------- #
#: The one generic journal encoder: compact separators and sorted keys
#: fix the payload format :func:`recover` reads back, and the templates
#: below reproduce it byte for byte for the hot records.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: Every snapshot payload starts with this: its keys sort as
#: ``state`` < ``type`` and no other record type has a ``state`` key.
_SNAPSHOT_PREFIX = b'{"state":'


def _frame(payload: str) -> bytes:
    """One journal line: CRC32 of the payload (8 hex), space, payload."""
    data = payload.encode()
    return b"%08x %s\n" % (zlib.crc32(data), data)


#: A v2 frame: 8 lowercase hex digits (the CRC32) and a space.
_FRAME_HEAD = re.compile(r"[0-9a-f]{8} ")


def is_framed(line: str) -> bool:
    """Whether a text line opens with a v2 journal frame, CRC unchecked:
    lets a reader of a shared JSONL file (the tracer's) tell journal
    lines from its own without knowing the journal format."""
    return _FRAME_HEAD.match(line) is not None


def _fsync_dir(path: str) -> None:
    """fsync the directory holding ``path``, making a rename into it
    durable; a no-op where directories cannot be opened or synced."""
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _string_json(value: Optional[str]) -> str:
    """An optional string (outcome reason, batch policy) as JSON."""
    return "null" if value is None else _encode(value)


def _path_json(codes: Dict[Vertex, str], dipath: Optional[Dipath]) -> str:
    """A dipath as a JSON array of vertex-table indices (or ``null``)."""
    if dipath is None:
        return "null"
    return "[" + ",".join(map(codes.__getitem__, dipath.vertices)) + "]"


def _request_json(codes: Dict[Vertex, str],
                  request: Optional[Request]) -> str:
    if request is None:
        return "null"
    return f"[{codes[request.source]},{codes[request.target]}]"


def _admit_payload(codes: Dict[Vertex, str], rid: int,
                   request: Optional[Request], dipath: Optional[Dipath],
                   outcome: Optional[str], index: Optional[int],
                   color: Optional[int]) -> str:
    """Template of an ``admit`` record (``codes``: vertex -> index str)."""
    return (f'{{"color":{"null" if color is None else color},'
            f'"dipath":{_path_json(codes, dipath)},'
            f'"index":{"null" if index is None else index},'
            f'"outcome":{_string_json(outcome)},'
            f'"request":{_request_json(codes, request)},'
            f'"rid":{rid:d},"type":"admit"}}')


def _batch_payload(codes: Dict[Vertex, str], policy: str,
                   arrivals: List[Event],
                   reasons: Dict[int, Optional[str]],
                   placement: Callable[[int], Tuple[int, Optional[int]]]
                   ) -> str:
    """Template of an ``admit_batch`` record; ``placement(rid)`` is the
    ``(slot, colour)`` of an admitted request.  JSON object keys are the
    request ids as strings, so both objects list them in string order."""
    arrived = ",".join([
        f"[{e.request_id:d},{_request_json(codes, e.request)},"
        f"{_path_json(codes, e.dipath)}]" for e in arrivals])
    outcome, placed = [], []
    for rid in sorted(reasons, key=str):
        reason = reasons[rid]
        outcome.append(f'"{rid}":{_string_json(reason)}')
        if reason is None:
            idx, color = placement(rid)
            placed.append(
                f'"{rid}":[{idx:d},{"null" if color is None else color}]')
    return (f'{{"arrivals":[{arrived}],"outcome":{{{",".join(outcome)}}},'
            f'"placements":{{{",".join(placed)}}},'
            f'"policy":{_string_json(policy)},"type":"admit_batch"}}')


def _depart_payload(rid: int, held: bool) -> str:
    """Template of a ``depart`` record."""
    return (f'{{"outcome":{"true" if held else "false"},"rid":{rid:d},'
            f'"type":"depart"}}')


def _depart_batch_payload(rids: List[int], held: List[bool]) -> str:
    """Template of a ``depart_batch`` record: a run of departures in
    order, with each one's ``held`` flag."""
    flags = ",".join(["true" if h else "false" for h in held])
    ids = ",".join([f"{rid:d}" for rid in rids])
    return f'{{"held":[{flags}],"rids":[{ids}],"type":"depart_batch"}}'


def _decode_vertex(v: Any) -> Any:
    """Turn a JSON vertex label back into its hashable form (JSON arrays
    become nested tuples): genesis labels, and every vertex of a v1
    journal.

    Safe because vertex labels must be hashable: a JSON array in a vertex
    position can only have been a tuple.
    """
    if isinstance(v, list):
        return tuple(_decode_vertex(x) for x in v)
    return v


def _decode_rng(obj):
    """A journalled ``random.Random.getstate()`` back to its tuple form."""
    return (obj[0], tuple(int(x) for x in obj[1]), obj[2])


# ---------------------------------------------------------------------- #
# line reader
# ---------------------------------------------------------------------- #
def _v2_payload(line: bytes) -> Optional[bytes]:
    """The payload of a framed line, or ``None`` when its CRC (or the
    frame itself) does not check."""
    payload = line[9:]
    if line[8:9] != b" " or line[:8] != b"%08x" % zlib.crc32(payload):
        return None
    return payload


def _v1_record(line: bytes) -> Optional[Dict[str, Any]]:
    """A v1 line decoded, or ``None`` when it is not a JSON object."""
    try:
        record = json.loads(line)
    except ValueError:          # JSONDecodeError and UnicodeDecodeError
        return None
    return record if isinstance(record, dict) else None


def _decode(payload: bytes, index: int) -> Dict[str, Any]:
    """JSON-decode one CRC-checked v2 payload into its record."""
    try:
        record = json.loads(payload)
    except ValueError as exc:
        raise RecoveryError(f"undecodable journal record: {exc}",
                            record=index) from exc
    if not isinstance(record, dict):
        raise RecoveryError("journal record is not an object", record=index)
    return record


def _scan(raw: bytes) -> Tuple[bool, list, int]:
    """Split a journal into its clean lines.

    Returns ``(v1, items, clean_len)``: whether the file is a v1 journal
    (its first byte opens a bare JSON object rather than a CRC frame),
    the clean records in order — decoded dicts for v1, CRC-checked
    payloads for v2 — and the byte length of the clean prefix.  A bad
    final line is the torn tail of a crashed append and is left out;
    a bad line followed by another line raises with its index.
    """
    v1 = raw[:1] == b"{"
    check = _v1_record if v1 else _v2_payload
    complete = raw.split(b"\n")[:-1]
    items: list = []
    clean_len = 0
    for pos, line in enumerate(complete):
        item = check(line)
        if item is None:
            if pos == len(complete) - 1:
                # Unreadable final line: the torn tail of a crashed
                # append.  Trailing bytes after it (no newline — e.g.
                # garbage flushed by the dying process after the torn
                # record) are part of the same torn suffix; both are
                # discarded.  Corruption *followed by* a clean record is
                # not a tail and raises.
                break
            raise RecoveryError(
                "unreadable journal record" if v1
                else "journal record fails its CRC check", record=pos)
        items.append(item)
        clean_len += len(line) + 1
    return v1, items, clean_len


def read_journal(path: str) -> List[Dict[str, Any]]:
    """Every clean record of a journal (v1 or v2), decoded, through the
    line reader :func:`recover` uses: a torn final line is left out, a
    bad line before a good one raises
    :class:`~repro.exceptions.RecoveryError`.  Vertices stay as written
    (table indices in v2).  The file is not modified."""
    with open(path, "rb") as fh:
        v1, items, _ = _scan(fh.read())
    return items if v1 else [_decode(p, i) for i, p in enumerate(items)]


# ---------------------------------------------------------------------- #
# fingerprinting
# ---------------------------------------------------------------------- #
def engine_fingerprint(engine: OnlineEngine) -> Dict[str, Any]:
    """Canonical state of an engine, for bit-identity comparisons.

    Covers everything a future decision can depend on plus the replayed
    counters: the family's slot/arc tables (including free-slot recycling
    order), the colouring with its ``ever_used`` / Kempe counters (and the
    RNG state under the ``random`` policy), the ``request -> member`` map,
    the topology's vertex/arc iteration order (the routing tie-break
    source), the exact conflict components and the defrag counters.  Two
    engines with equal fingerprints make identical decisions on any
    subsequent trace.

    Deliberately excluded: lazy-cache warmness counters.  The components
    are computed when the fingerprint is taken, from the adjacency alone.
    """
    family, assigner = engine.family, engine.assigner
    rng = assigner._rng.getstate() if assigner.policy == "random" else None
    return {
        "paths": [None if p is None else tuple(p.vertices)
                  for p in family._paths],
        "arcs": list(family._arcs),
        "arc_members": list(family._arc_members),
        "path_arc_ids": [tuple(t) for t in family._path_arc_ids],
        "free_slots": list(family._free_slots),
        "coloring": dict(assigner.coloring),
        "used_mask": assigner.used_mask,
        "ever_used_mask": assigner._ever_used,
        "kempe_repairs": assigner.kempe_repairs,
        "rng_state": rng,
        "vertex_of": dict(engine.vertex_of),
        "shard_map": engine.conflict.shard_map(),
        "graph_vertices": tuple(engine.graph.vertices()),
        "graph_arcs": list(engine.graph.arcs()),
        "defrag": (engine.defrag_passes, engine.defrag_moves,
                   engine.wavelengths_reclaimed),
    }


class DurableEngine(Instrumented):
    """An :class:`~repro.online.simulator.OnlineEngine` with a durable
    journal: every op is executed, then appended; :func:`recover` replays.
    Ops sync their own record unless they run inside :meth:`group`.

    Publishes diagnostic ``journal.*`` counters (records, bytes,
    snapshots) into the wrapped engine's metrics registry.  Journal
    counters are *diagnostic*: a recovered engine replays only the tail
    after the last snapshot, so its journal traffic legitimately differs
    from the pre-crash original even though every decision is identical.

    Parameters:

    path:
        Journal file.  The constructor starts a **fresh** journal
        (truncating any existing file); use :func:`recover` to resume an
        existing one.
    snapshot_every:
        Append a full state snapshot every this many journal records,
        a ``depart_batch`` counting once per departure (``None`` = never;
        recovery then replays from genesis).
    fsync:
        ``os.fsync`` on every :meth:`sync` — after every op, or once per
        :meth:`group` (durability against OS crashes, not just process
        crashes; slow).
    metrics, tracer:
        Shared :class:`~repro.obs.registry.MetricsRegistry` /
        :class:`~repro.obs.trace.Tracer` handed to the wrapped engine.
        Purely observational — neither is journalled, and recovery with
        or without them is bit-identical.
    **knobs:
        Every :class:`~repro.online.simulator.EngineConfig` knob,
        journalled in the genesis record so recovery rebuilds the same
        engine and fault injector.
    """

    def __init__(self, graph: DiGraph, path: str, wavelengths: int, *,
                 snapshot_every: Optional[int] = None,
                 fsync: bool = False,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None, **knobs) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        vertices = list(graph.vertices())
        index = {v: i for i, v in enumerate(vertices)}
        genesis = {
            "type": "genesis", "version": JOURNAL_VERSION,
            "wavelengths": wavelengths, "snapshot_every": snapshot_every,
            **asdict(EngineConfig(**knobs)),
            "vertices": vertices,
            "arcs": [[index[u], index[v]] for u, v in graph.arcs()],
        }
        self._bootstrap(genesis, path, fsync=fsync, metrics=metrics,
                        tracer=tracer)
        self._file = open(path, "wb")
        self._append(genesis)

    def _bootstrap(self, genesis: Dict[str, Any], path: str,
                   fsync: bool = False,
                   metrics: Optional[MetricsRegistry] = None,
                   tracer: Optional[Tracer] = None) -> None:
        self._genesis = genesis
        self._path = path
        self._fsync = fsync
        self._table = [_decode_vertex(v) for v in genesis["vertices"]]
        self._use_codec(genesis["version"])
        # the canonical engine: a private graph rebuilt in recorded order
        graph = DiGraph()
        for v in self._table:
            graph.add_vertex(v)
        for arc in genesis["arcs"]:
            graph.add_arc(*self._arc_of(arc))
        self._config = EngineConfig.from_record(genesis)
        self._engine = self._config.build(graph, genesis["wavelengths"],
                                          metrics=metrics, tracer=tracer)
        self._injector = FaultInjector.configured(self._engine,
                                                  self._config)
        self._obs_init("journal", self._engine.metrics)
        self._m_records = self._obs_counter("records", diagnostic=True)
        self._m_bytes = self._obs_counter("bytes", diagnostic=True)
        self._m_snapshots = self._obs_counter("snapshots", diagnostic=True)
        self._m_fsync_unsupported = self._obs_counter(
            "fsync_unsupported", diagnostic=True)
        # the topology's cut/repair history, coded at capture
        self._graph_ops: List[Tuple[str, Arc]] = []
        self._records = 0
        self._since_snapshot = 0
        # framed lines not yet written, and the group() nesting depth
        self._pending: List[bytes] = []
        self._grouped = 0
        self._file = None

    @classmethod
    def _resume(cls, genesis: Dict[str, Any], path: str,
                metrics: Optional[MetricsRegistry] = None,
                tracer: Optional[Tracer] = None) -> "DurableEngine":
        """A recovery skeleton: canonical genesis engine, no genesis
        record written and no journal open yet (:func:`recover` opens it
        for appending once the replay succeeded)."""
        self = cls.__new__(cls)
        self._bootstrap(genesis, path, metrics=metrics, tracer=tracer)
        return self

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> OnlineEngine:
        """The wrapped live engine."""
        return self._engine

    @property
    def injector(self) -> FaultInjector:
        """The fault injector bound to the engine."""
        return self._injector

    @property
    def path(self) -> str:
        """The journal file path."""
        return self._path

    @property
    def genesis(self) -> Dict[str, Any]:
        """The genesis record: engine configuration + initial topology.

        Read-only by contract — it is the journal's first record and the
        root of every replay.
        """
        return self._genesis

    @property
    def config(self) -> EngineConfig:
        """The engine knobs the genesis record stores.
        :meth:`repro.service.RwaService.from_durable` wraps a recovered
        engine with exactly this configuration."""
        return self._config

    @property
    def records(self) -> int:
        """Journal records written (or replayed) so far, genesis included."""
        return self._records

    @property
    def family(self):
        return self._engine.family

    @property
    def conflict(self):
        return self._engine.conflict

    @property
    def assigner(self):
        return self._engine.assigner

    @property
    def graph(self) -> DiGraph:
        return self._engine.graph

    @property
    def vertex_of(self) -> Dict[int, int]:
        return self._engine.vertex_of

    def fingerprint(self) -> Dict[str, Any]:
        """:func:`engine_fingerprint` of the wrapped engine."""
        return engine_fingerprint(self._engine)

    def close(self) -> None:
        """Sync any buffered records, then close the journal file (the
        engine stays usable in memory)."""
        if self._file is not None and not self._file.closed:
            try:
                self.sync()
            finally:
                self._file.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # journalled operations
    # ------------------------------------------------------------------ #
    def admit(self, request_id: int, request: Optional[Request] = None,
              dipath: Optional[Dipath] = None) -> Optional[str]:
        """Journalled :meth:`OnlineEngine.admit`."""
        reason = self._engine.admit(request_id, request=request,
                                    dipath=dipath)
        idx = self._engine.vertex_of.get(request_id)
        color = None if idx is None else self._engine.assigner.color_of(idx)
        self._write(_admit_payload(self._codes, request_id, request, dipath,
                                   reason, idx, color))
        self._maybe_snapshot()
        return reason

    def admit_batch(self, arrivals: List[Event],
                    policy: str = "all_or_nothing"
                    ) -> Dict[int, Optional[str]]:
        """Journalled :meth:`OnlineEngine.admit_batch` (serial path)."""
        reasons = self._engine.admit_batch(arrivals, policy=policy)
        self._write(_batch_payload(self._codes, policy, arrivals, reasons,
                                   self._placement))
        self._maybe_snapshot()
        return reasons

    def depart(self, request_id: int) -> bool:
        """Journalled :meth:`OnlineEngine.depart` (+ injector forget)."""
        held = self._engine.depart(request_id)
        self._injector.forget(request_id)
        self._write(_depart_payload(request_id, held))
        self._maybe_snapshot()
        return held

    def depart_batch(self, request_ids: List[int]) -> List[bool]:
        """Journalled :meth:`OnlineEngine.depart_batch` (+ injector
        forget): one record for the whole run, counted toward
        ``snapshot_every`` once per departure, as op-by-op departures
        would be."""
        held = self._engine.depart_batch(request_ids)
        forget = self._injector.forget
        for rid in request_ids:
            forget(rid)
        self._write(_depart_batch_payload(request_ids, held),
                    len(request_ids))
        self._maybe_snapshot()
        return held

    def defrag(self, order: str = "highest_wavelength",
               max_moves: Optional[int] = None,
               time_budget: Optional[float] = None,
               shard: Optional[int] = None) -> DefragReport:
        """Journalled :meth:`OnlineEngine.defrag`; refuses ``time_budget``
        (a wall-clock bound cannot be replayed deterministically)."""
        if time_budget is not None:
            raise TransactionError(
                "time_budget is wall-clock-bounded and cannot be "
                "journalled; bound durable defrag passes with max_moves")
        report = self._engine.defrag(order=order, max_moves=max_moves,
                                     shard=shard)
        self._append({"type": "defrag", "order": order,
                      "max_moves": max_moves, "shard": shard,
                      "moves": len(report.moves),
                      "reclaimed": report.reclaimed})
        self._maybe_snapshot()
        return report

    def cut(self, arc: Arc) -> FaultReport:
        """Journalled :meth:`~repro.online.faults.FaultInjector.cut`."""
        report = self._injector.cut(arc)
        self._graph_ops.append(("cut", report.arc))
        self._append({"type": "cut", "arc": self._arc_code(report.arc),
                      "stranded": report.stranded,
                      "restored": report.restored,
                      "retries": report.retries,
                      "defrag_moves": report.defrag_moves})
        self._maybe_snapshot()
        return report

    def repair(self, arc: Arc) -> FaultReport:
        """Journalled :meth:`~repro.online.faults.FaultInjector.repair`."""
        report = self._injector.repair(arc)
        self._graph_ops.append(("repair", report.arc))
        self._append({"type": "repair", "arc": self._arc_code(report.arc),
                      "restored": report.restored,
                      "reverted": report.reverted,
                      "defrag_moves": report.defrag_moves})
        self._maybe_snapshot()
        return report

    # ------------------------------------------------------------------ #
    # journalling internals
    # ------------------------------------------------------------------ #
    @contextmanager
    def group(self) -> Iterator["DurableEngine"]:
        """Group-commit every record appended inside the block.

        Records are buffered and written by one :meth:`sync` when the
        outermost group exits, normally or by an exception (the ops
        already ran, so their records belong in the journal).  Groups
        nest; outside any group every record syncs as it is appended.
        """
        self._grouped += 1
        try:
            yield self
        finally:
            self._grouped -= 1
            if not self._grouped:
                self.sync()

    def sync(self) -> None:
        """Write every buffered record with one ``write`` and one
        ``flush``, plus one ``os.fsync`` when built with ``fsync=True``.

        The buffer is emptied before the write, so a failed sync is not
        retried by a later one: what reached the file is whatever
        :func:`recover` reads back (a torn tail is discarded).
        """
        if not self._pending:
            return
        data = b"".join(self._pending)
        self._pending.clear()
        self._file.write(data)
        self._file.flush()
        if self._fsync:
            # fsync needs a real file descriptor; in-memory buffers have
            # no fileno() and pipes/character devices reject fsync with
            # EINVAL/ENOTSUP.  Journalling must not crash on such targets
            # — durability degrades to flush, noted once per engine in
            # the diagnostic journal.fsync_unsupported counter.
            try:
                os.fsync(self._file.fileno())
            except (AttributeError, OSError, ValueError):
                self._fsync = False
                self._m_fsync_unsupported.inc()

    def _append(self, record: Dict[str, Any]) -> None:
        self._write(_encode(record))

    def _write(self, payload: str, ops: int = 1) -> None:
        """Frame one record payload and sync it (or buffer it, in a
        group); it counts ``ops`` toward ``snapshot_every`` (the one
        place that count is kept; :meth:`_replay` swaps in a verifier
        that counts the same)."""
        line = _frame(payload)
        self._pending.append(line)
        self._records += 1
        self._since_snapshot += ops
        self._m_records.inc()
        self._m_bytes.inc(len(line))
        if not self._grouped:
            self.sync()

    def _maybe_snapshot(self) -> None:
        every = self._genesis["snapshot_every"]
        if every is not None and self._since_snapshot >= every:
            self.snapshot()

    def snapshot(self) -> None:
        """Append a full state snapshot record now."""
        self._append({"type": "snapshot", "state": self._capture()})
        self._since_snapshot = 0
        self._m_snapshots.inc()

    def _placement(self, request_id: int) -> Tuple[int, Optional[int]]:
        """``(slot, colour)`` of an admitted request."""
        idx = self._engine.vertex_of[request_id]
        return idx, self._engine.assigner.color_of(idx)

    # vertex codec: labels to journal codes (written) and back (replayed)
    def _use_codec(self, version: int) -> None:
        """Code vertices as journal ``version`` does, both ways: v2 by
        their vertex-table index, v1 by the label itself (JSON arrays for
        tuples)."""
        table = self._table
        if version == 1:
            self._vertex: Callable[[Any], Vertex] = _decode_vertex
            self._index = {v: v for v in table}
            self._codes = {v: _encode(v) for v in table}
        else:
            self._vertex = table.__getitem__
            self._index = {v: i for i, v in enumerate(table)}
            self._codes = {v: str(i) for i, v in enumerate(table)}

    def _arc_code(self, arc: Arc) -> list:
        return [self._index[arc[0]], self._index[arc[1]]]

    def _path_code(self, path: Dipath) -> list:
        return list(map(self._index.__getitem__, path.vertices))

    def _arc_of(self, obj: list) -> Arc:
        return (self._vertex(obj[0]), self._vertex(obj[1]))

    def _dipath_of(self, obj: Optional[list]) -> Optional[Dipath]:
        return None if obj is None else Dipath(map(self._vertex, obj))

    def _request_of(self, obj: Optional[list]) -> Optional[Request]:
        return None if obj is None else Request(self._vertex(obj[0]),
                                                self._vertex(obj[1]))

    def _capture(self) -> Dict[str, Any]:
        """The engine state as a JSON-clean dict."""
        engine = self._engine
        family, assigner = engine.family, engine.assigner
        # AssignerCheckpoint is the one sanctioned capture of the
        # assigner's monotone counters + RNG; committing it immediately
        # leaves no journalling frame behind
        token = assigner.checkpoint()
        assigner.commit(token)
        path_code, arc_code = self._path_code, self._arc_code
        return {
            "paths": [None if p is None else path_code(p)
                      for p in family._paths],
            "arcs": list(map(arc_code, family._arcs)),
            "free_slots": list(family._free_slots),
            "load_warm": family._load_hist is not None,
            "masks_warm": family._conflict_masks is not None,
            "mask_rebuilds": family._mask_rebuilds,
            "coloring": {str(i): c for i, c in
                         sorted(assigner.coloring.items())},
            "ever_used": token.ever_used,
            "repairs": token.repairs,
            "rng_state": token.rng_state,
            "vertex_of": {str(r): i for r, i in
                          sorted(engine.vertex_of.items())},
            "defrag": [engine.defrag_passes, engine.defrag_moves,
                       engine.wavelengths_reclaimed],
            "graph_ops": [[op, arc_code(arc)] for op, arc in self._graph_ops],
            "cut_arcs": list(map(arc_code, self._injector.cut_arcs())),
            "stranded": {str(r): path_code(d) for r, d in
                         sorted(self._injector._stranded.items())},
            "rerouted": {str(r): path_code(d) for r, d in
                         sorted(self._injector._rerouted.items())},
        }

    # ------------------------------------------------------------------ #
    # recovery internals
    # ------------------------------------------------------------------ #
    def _apply_snapshot(self, state: Dict[str, Any]) -> None:
        """Field-level restore of a snapshot onto the genesis skeleton."""
        engine, config = self._engine, self._config
        wavelengths = self._genesis["wavelengths"]
        # 1. topology: genesis build already happened; replay the cut /
        #    repair history so the adjacency sets relive the exact same
        #    mutation sequence as the pre-crash graph
        self._graph_ops = []
        for op, code in state["graph_ops"]:
            u, v = arc = self._arc_of(code)
            if op == "cut":
                engine.graph.remove_arc(u, v)
            else:
                engine.graph.add_arc(u, v)
            self._graph_ops.append((op, arc))
        # 2. family: rebuild the slot/arc tables exactly — arc ids in
        #    historical interning order, freed slots in recycling order
        family = DipathFamily()
        arcs = list(map(self._arc_of, state["arcs"]))
        family._arcs = list(arcs)
        family._arc_ids = {a: i for i, a in enumerate(arcs)}
        paths = list(map(self._dipath_of, state["paths"]))
        family._paths = paths
        family._path_arc_ids = [
            () if p is None else tuple(family._arc_ids[a] for a in p.arcs())
            for p in paths]
        members = [0] * len(arcs)
        for idx, p in enumerate(paths):
            if p is not None:
                for aid in family._path_arc_ids[idx]:
                    members[aid] |= 1 << idx
        family._arc_members = members
        family._free_slots = list(state["free_slots"])
        # 3. conflict graph and assigner, wired over the restored family
        #    exactly as a fresh engine wires them
        conflict, assigner = config.components(family, wavelengths,
                                               engine.metrics)
        # lazy-cache warmness back to the captured flags (construction may
        # have warmed the masks), then the counter the warming bumped
        if state["load_warm"]:
            family.load()
        else:
            family._load_hist = None
            family._load_cache = None
        if state["masks_warm"]:
            family.conflict_masks()
        else:
            family._conflict_masks = None
        family._mask_rebuilds = state["mask_rebuilds"]
        # 4. colours re-adopted, monotone counters + RNG restored
        for key in sorted(state["coloring"], key=int):
            assigner.adopt(int(key), state["coloring"][key])
        assigner._ever_used = state["ever_used"]
        assigner._repairs = state["repairs"]
        if state["rng_state"] is not None:
            assigner._rng.setstate(_decode_rng(state["rng_state"]))
        # 5. swap into the engine; the router must be rebound to the
        #    restored family (live-load costs read it)
        engine.family = family
        engine.conflict = conflict
        engine.assigner = assigner
        engine.router = make_online_router(
            engine.graph, config.routing, family=family,
            wavelengths=wavelengths, k=config.k_candidates)
        engine.vertex_of = {int(r): i
                            for r, i in state["vertex_of"].items()}
        (engine.defrag_passes, engine.defrag_moves,
         engine.wavelengths_reclaimed) = state["defrag"]
        # 6. injector registries
        self._injector._cut = {self._arc_of(a): True
                               for a in state["cut_arcs"]}
        self._injector._stranded = {int(r): self._dipath_of(p)
                                    for r, p in state["stranded"].items()}
        self._injector._rerouted = {int(r): self._dipath_of(p)
                                    for r, p in state["rerouted"].items()}

    def _migrate(self) -> None:
        """Replace a replayed v1 journal by a v2 one, atomically: the
        genesis at version 2, then a snapshot of the recovered state,
        written to a temporary file, flushed, fsynced and moved over the
        journal with ``os.replace``, whose directory entry is then
        fsynced too — appends after the migration go to the new file, so
        the rename must be as durable as they are."""
        arcs = list(map(self._arc_of, self._genesis["arcs"]))
        self._use_codec(JOURNAL_VERSION)
        self._genesis = dict(self._genesis, version=JOURNAL_VERSION,
                             arcs=list(map(self._arc_code, arcs)))
        temp = self._path + ".migrating"
        self._file = open(temp, "wb")
        try:
            self._records = 0
            self._append(self._genesis)
            self.snapshot()
            os.fsync(self._file.fileno())
            self._file.close()
        except BaseException:
            self._file.close()
            os.remove(temp)
            raise
        os.replace(temp, self._path)
        _fsync_dir(self._path)

    def _replay(self, record: Dict[str, Any], index: int) -> None:
        """Re-run one journal record through the op that wrote it.

        For that one call the instance's :meth:`_write` is a verifier —
        the op's record must encode to the journalled one, and it counts
        toward ``snapshot_every`` as the live write does — and
        :meth:`_maybe_snapshot` does nothing (the journal's own snapshot
        records replay in place).  Vertices decode through the codec of
        the genesis version."""
        rtype = record.get("type")
        op = _REPLAY.get(rtype)
        if op is None:
            raise RecoveryError(f"unknown record type {rtype!r}",
                                record=index)
        journalled = _encode(record)

        def verify(payload: str, ops: int = 1) -> None:
            if payload != journalled:
                raise RecoveryError(
                    f"{rtype} replayed to " + ", ".join(_differences(
                        json.loads(payload), record, "", 2)),
                    record=index)
            self._since_snapshot += ops

        self._write, self._maybe_snapshot = verify, _replayed_in_place
        try:
            op(self, record)
        except RecoveryError:
            raise
        except Exception as exc:
            raise RecoveryError(f"replay raised {exc!r}",
                                record=index) from exc
        finally:
            del self._write, self._maybe_snapshot


def _replayed_in_place() -> None:
    """:meth:`DurableEngine._maybe_snapshot` during replay: a snapshot the
    live engine took is a journal record of its own."""


def _differences(replayed: Any, journalled: Any, name: str,
                 depth: int) -> List[str]:
    """``name=replayed (journal: journalled)`` for every field that
    differs, descending ``depth`` levels into JSON objects."""
    if _encode(replayed) == _encode(journalled):
        return []
    if depth and isinstance(replayed, dict) and isinstance(journalled, dict):
        prefix = f"{name}." if name else ""
        return [diff for key in sorted(replayed.keys() | journalled.keys())
                for diff in _differences(replayed.get(key),
                                         journalled.get(key), prefix + key,
                                         depth - 1)]
    return [f"{name}={replayed!r} (journal: {journalled!r})"]


#: Every journalled record type but ``genesis``, mapped to the
#: :class:`DurableEngine` op that writes it, called with the record's
#: decoded inputs: :meth:`DurableEngine._replay`'s one dispatch.
_REPLAY: Dict[str, Callable[[DurableEngine, Dict[str, Any]], Any]] = {
    "admit": lambda durable, r: durable.admit(
        r["rid"], request=durable._request_of(r["request"]),
        dipath=durable._dipath_of(r["dipath"])),
    "admit_batch": lambda durable, r: durable.admit_batch(
        [Event(0.0, ARRIVAL, rid, request=durable._request_of(request),
               dipath=durable._dipath_of(dipath))
         for rid, request, dipath in r["arrivals"]], policy=r["policy"]),
    "depart": lambda durable, r: durable.depart(r["rid"]),
    "depart_batch": lambda durable, r: durable.depart_batch(r["rids"]),
    "defrag": lambda durable, r: durable.defrag(
        order=r["order"], max_moves=r["max_moves"], shard=r["shard"]),
    "cut": lambda durable, r: durable.cut(durable._arc_of(r["arc"])),
    "repair": lambda durable, r: durable.repair(durable._arc_of(r["arc"])),
    "snapshot": lambda durable, r: durable.snapshot(),
}


def recover(path: str, metrics: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None) -> DurableEngine:
    """Rebuild a :class:`DurableEngine` from its journal.

    Checks every line's CRC, discards a torn tail (truncating the file to
    the last clean record boundary), rebuilds the canonical genesis
    engine, jumps to the last snapshot if one exists and re-executes the
    remaining records through the real engine code paths — verifying
    every replayed decision against the journalled one.  Only the
    genesis, the last snapshot and the records after it are
    JSON-decoded.  A v1 journal is replayed whole and then replaced,
    atomically, by a v2 journal holding its genesis and one snapshot of
    the recovered state.  Returns the recovered engine with the journal
    re-opened for appending; raises
    :class:`~repro.exceptions.RecoveryError` on any corruption or
    divergence (the file is then left as it was, torn tail aside).

    ``metrics`` / ``tracer`` are handed to the rebuilt engine; with a
    tracer attached, recovery emits a ``recover`` span nesting a
    ``snapshot_restore`` span (when a snapshot is applied) and a
    ``replay`` span around the tail re-execution — inside which every
    replayed op emits its ordinary engine spans.  Recovery is
    bit-identical with or without them.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    v1, items, clean_len = _scan(raw)
    if not items:
        raise RecoveryError("journal is empty or its genesis record is torn")
    # v1 lines were decoded while they were checked; v2 payloads are
    # decoded only when they are replayed
    decode = (lambda item, index: item) if v1 else _decode
    genesis = decode(items[0], 0)
    if genesis.get("type") != "genesis":
        raise RecoveryError("journal does not start with a genesis record",
                            record=0)
    if genesis.get("version") != (1 if v1 else JOURNAL_VERSION):
        raise RecoveryError(
            f"unsupported journal version {genesis.get('version')!r} "
            f"(this build writes {JOURNAL_VERSION} and migrates 1)",
            record=0)
    if v1:
        # .get: a typeless record is _replay's "unknown record type", not
        # a KeyError escaping recovery
        snapshots = [i for i, r in enumerate(items)
                     if r.get("type") == "snapshot"]
    else:
        snapshots = [i for i in range(1, len(items))
                     if items[i].startswith(_SNAPSHOT_PREFIX)]
    last = snapshots[-1] if snapshots else None
    if not v1 and clean_len != len(raw):
        # drop the torn tail before any re-appending can interleave with it
        with open(path, "r+b") as fh:
            fh.truncate(clean_len)
    durable = DurableEngine._resume(genesis, path, metrics=metrics,
                                    tracer=tracer)
    tr = durable._engine.tracer
    try:
        with (tr.span("recover", records=len(items),
                      snapshots=len(snapshots))
              if tr is not None else nullcontext()):
            start = durable._since_snapshot = 1   # genesis counts
            if last is not None:
                with (tr.span("snapshot_restore", record=last)
                      if tr is not None else nullcontext()):
                    try:
                        durable._apply_snapshot(
                            decode(items[last], last)["state"])
                    except RecoveryError:
                        raise
                    except Exception as exc:
                        raise RecoveryError(f"snapshot restore raised {exc!r}",
                                            record=last) from exc
                start, durable._since_snapshot = last + 1, 0
            with (tr.span("replay", count=len(items) - start)
                  if tr is not None else nullcontext()):
                for i in range(start, len(items)):
                    durable._replay(decode(items[i], i), i)
        durable._records = len(items)
        if v1:
            durable._migrate()
        durable._file = open(path, "ab")
    except BaseException:
        # a refused recovery must not leak a journal handle
        durable.close()
        raise
    return durable
