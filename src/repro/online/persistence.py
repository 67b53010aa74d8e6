"""Durable journal and crash recovery for the online engine.

:class:`DurableEngine` wraps :class:`~repro.online.simulator.OnlineEngine`
with a **write-behind append-only JSONL journal**: every state transition
(admission, batched admission, departure, defragmentation pass, fibre cut,
fibre repair) executes first and is then appended as one JSON line
recording both the *inputs* and the *decision* the engine took.  Each op
syncs its record (one write and flush, plus ``fsync`` on request) before
it returns, unless it runs inside :meth:`DurableEngine.group`: a group
buffers its records and syncs them together when it exits — the group
commit :class:`~repro.service.RwaService` runs every drained batch
under.  The bytes written are the same either way; only the number of
writes differs.
:func:`recover` rebuilds a crashed engine by re-executing the journal
through the very same engine code paths and **verifying** each replayed
decision against the recorded one — recovered state is something to
check, not to trust: any divergence raises
:class:`~repro.exceptions.RecoveryError` instead of silently running on a
state the pre-crash engine never had.

Periodically (``snapshot_every`` journal records) a **snapshot** record
captures the full engine state — the dipath family's slot/arc tables, the
assigner's colouring and monotone counters (via its own
:class:`~repro.online.assigner.AssignerCheckpoint` capture), the
``request -> member`` map, the fault injector's stranded registry and the
graph-operation history — so recovery jumps to the last snapshot and
replays only the tail.  During a from-genesis replay each snapshot record
doubles as an integrity gate: the replayed state must reproduce the
snapshot bit-for-bit.

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
its newline (or an unparsable fragment).  :func:`recover` discards the
torn tail, truncates the file to the last clean record boundary and
resumes appending from there — the op that was being journalled when the
crash hit is simply not durable, exactly like a database WAL.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from typing import Any, Dict, Iterator, List, Optional

from .._typing import Arc
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
           "recover"]

#: Journal format version, checked by :func:`recover`.
JOURNAL_VERSION = 1


# ---------------------------------------------------------------------- #
# vertex / arc JSON codec
# ---------------------------------------------------------------------- #
#: The one journal encoder: compact separators and sorted keys fix the
#: byte format :func:`recover` reads back.  ``json`` writes tuples as
#: arrays, so vertex labels, arcs and paths need no write-side codec.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _decode_vertex(v: Any) -> Any:
    """Turn a journalled vertex label back into its hashable form (JSON
    arrays become nested tuples).

    Safe because vertex labels must be hashable: a JSON array in a vertex
    position can only have been a tuple.
    """
    if isinstance(v, list):
        return tuple(_decode_vertex(x) for x in v)
    return v


def _decode_arc(obj: list) -> Arc:
    return (_decode_vertex(obj[0]), _decode_vertex(obj[1]))


def _decode_path(obj: list) -> Dipath:
    return Dipath([_decode_vertex(v) for v in obj])


def _decode_rng(obj):
    """A journalled ``random.Random.getstate()`` back to its tuple form."""
    return (obj[0], tuple(int(x) for x in obj[1]), obj[2])


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

    Deliberately excluded: shard-tracker heuristic internals (join
    stamps, dirty flags, merge/split counters) — they never influence a
    decision and are canonicalized at snapshot boundaries via
    ``refresh_shards`` — and lazy-cache warmness counters.
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


def _engine_from_genesis(genesis: Dict[str, Any],
                         metrics: Optional[MetricsRegistry] = None,
                         tracer: Optional[Tracer] = None):
    """The config, canonical engine and injector a genesis record
    describes."""
    graph = DiGraph()
    for v in genesis["vertices"]:
        graph.add_vertex(_decode_vertex(v))
    for a in genesis["arcs"]:
        graph.add_arc(*_decode_arc(a))
    config = EngineConfig.from_record(genesis)
    engine = config.build(graph, genesis["wavelengths"], metrics=metrics,
                          tracer=tracer)
    return config, engine, FaultInjector.configured(engine, config)


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
        Append a full state snapshot every this many journal records
        (``None`` = never; recovery then replays from genesis).
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
        genesis = {
            "type": "genesis", "version": JOURNAL_VERSION,
            "wavelengths": wavelengths, "snapshot_every": snapshot_every,
            **asdict(EngineConfig(**knobs)),
            "vertices": list(graph.vertices()),
            "arcs": list(graph.arcs()),
        }
        self._bootstrap(genesis, path, mode="w", fsync=fsync,
                        metrics=metrics, tracer=tracer)
        self._append(genesis)

    def _bootstrap(self, genesis: Dict[str, Any], path: str, mode: str,
                   fsync: bool = False,
                   metrics: Optional[MetricsRegistry] = None,
                   tracer: Optional[Tracer] = None) -> None:
        self._genesis = genesis
        self._path = path
        self._fsync = fsync
        self._config, self._engine, self._injector = _engine_from_genesis(
            genesis, metrics=metrics, tracer=tracer)
        self._obs_init("journal", self._engine.metrics)
        self._m_records = self._obs_counter("records", diagnostic=True)
        self._m_bytes = self._obs_counter("bytes", diagnostic=True)
        self._m_snapshots = self._obs_counter("snapshots", diagnostic=True)
        self._m_fsync_unsupported = self._obs_counter(
            "fsync_unsupported", diagnostic=True)
        self._graph_ops: List[list] = []
        self._records = 0
        self._since_snapshot = 0
        # encoded records not yet written, and the group() nesting depth
        self._pending: List[str] = []
        self._grouped = 0
        self._file = open(path, mode, encoding="utf-8")

    @classmethod
    def _resume(cls, genesis: Dict[str, Any], path: str,
                metrics: Optional[MetricsRegistry] = None,
                tracer: Optional[Tracer] = None) -> "DurableEngine":
        """A recovery skeleton: canonical genesis engine, journal appended
        to (not truncated), no genesis record written."""
        self = cls.__new__(cls)
        self._bootstrap(genesis, path, mode="a", metrics=metrics,
                        tracer=tracer)
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
        if not self._file.closed:
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
        self._append({
            "type": "admit", "rid": request_id,
            "request": None if request is None
            else [request.source, request.target],
            "dipath": None if dipath is None else dipath.vertices,
            "outcome": reason, "index": idx, "color": color})
        self._maybe_snapshot()
        return reason

    def admit_batch(self, arrivals: List[Event],
                    policy: str = "all_or_nothing"
                    ) -> Dict[int, Optional[str]]:
        """Journalled :meth:`OnlineEngine.admit_batch` (serial path)."""
        reasons = self._engine.admit_batch(arrivals, policy=policy)
        placements = {}
        for event in arrivals:
            rid = event.request_id
            if reasons[rid] is None:
                idx = self._engine.vertex_of[rid]
                placements[str(rid)] = [idx,
                                        self._engine.assigner.color_of(idx)]
        self._append({
            "type": "admit_batch", "policy": policy,
            "arrivals": [
                [e.request_id,
                 None if e.request is None
                 else [e.request.source, e.request.target],
                 None if e.dipath is None else e.dipath.vertices]
                for e in arrivals],
            "outcome": {str(rid): r for rid, r in reasons.items()},
            "placements": placements})
        self._maybe_snapshot()
        return reasons

    def depart(self, request_id: int) -> bool:
        """Journalled :meth:`OnlineEngine.depart` (+ injector forget)."""
        held = self._engine.depart(request_id)
        self._injector.forget(request_id)
        self._append({"type": "depart", "rid": request_id, "outcome": held})
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
        self._graph_ops.append(["cut", report.arc])
        self._append({"type": "cut", "arc": report.arc,
                      "stranded": report.stranded,
                      "restored": report.restored,
                      "retries": report.retries,
                      "defrag_moves": report.defrag_moves})
        self._maybe_snapshot()
        return report

    def repair(self, arc: Arc) -> FaultReport:
        """Journalled :meth:`~repro.online.faults.FaultInjector.repair`."""
        report = self._injector.repair(arc)
        self._graph_ops.append(["repair", report.arc])
        self._append({"type": "repair", "arc": report.arc,
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
        data = "".join(self._pending)
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
        line = _encode(record) + "\n"
        self._pending.append(line)
        self._records += 1
        self._since_snapshot += 1
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

    def _capture(self) -> Dict[str, Any]:
        """The engine state as a JSON-clean dict (canonicalizes shards)."""
        engine = self._engine
        # settle the lazy split-checks: snapshot restore rebuilds the
        # tracker by flood fill, so the live engine must pass through the
        # same canonical component state at this journal offset
        engine.conflict.refresh_shards()
        family, assigner = engine.family, engine.assigner
        # AssignerCheckpoint is the one sanctioned capture of the
        # assigner's monotone counters + RNG; committing it immediately
        # leaves no journalling frame behind
        token = assigner.checkpoint()
        assigner.commit(token)
        return {
            "paths": [None if p is None else p.vertices
                      for p in family._paths],
            "arcs": list(family._arcs),
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
            "graph_ops": self._graph_ops,
            "cut_arcs": self._injector.cut_arcs(),
            "stranded": {str(r): d.vertices for r, d in
                         sorted(self._injector._stranded.items())},
            "rerouted": {str(r): d.vertices for r, d in
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
        for op, arc in state["graph_ops"]:
            u, v = _decode_arc(arc)
            if op == "cut":
                engine.graph.remove_arc(u, v)
            else:
                engine.graph.add_arc(u, v)
        self._graph_ops = [list(op) for op in state["graph_ops"]]
        # 2. family: rebuild the slot/arc tables exactly — arc ids in
        #    historical interning order, freed slots in recycling order
        family = DipathFamily()
        arcs = [_decode_arc(a) for a in state["arcs"]]
        family._arcs = list(arcs)
        family._arc_ids = {a: i for i, a in enumerate(arcs)}
        paths: List[Optional[Dipath]] = [
            None if p is None else _decode_path(p) for p in state["paths"]]
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
        self._injector._cut = {_decode_arc(a): True
                               for a in state["cut_arcs"]}
        self._injector._stranded = {int(r): _decode_path(p)
                                    for r, p in state["stranded"].items()}
        self._injector._rerouted = {int(r): _decode_path(p)
                                    for r, p in state["rerouted"].items()}

    def _replay(self, record: Dict[str, Any], index: int) -> None:
        """Re-execute one journal record, verifying the recorded outcome."""
        engine, injector = self._engine, self._injector
        rtype = record.get("type")
        try:
            if rtype == "admit":
                request = None
                if record["request"] is not None:
                    s, t = record["request"]
                    request = Request(_decode_vertex(s), _decode_vertex(t))
                dipath = (None if record["dipath"] is None
                          else _decode_path(record["dipath"]))
                reason = engine.admit(record["rid"], request=request,
                                      dipath=dipath)
                if reason != record["outcome"]:
                    raise RecoveryError(
                        f"admit({record['rid']}) replayed to {reason!r}, "
                        f"journal says {record['outcome']!r}", record=index)
                if reason is None:
                    idx = engine.vertex_of[record["rid"]]
                    color = engine.assigner.color_of(idx)
                    if idx != record["index"] or color != record["color"]:
                        raise RecoveryError(
                            f"admit({record['rid']}) replayed to slot "
                            f"{idx}/colour {color}, journal says "
                            f"{record['index']}/{record['color']}",
                            record=index)
            elif rtype == "admit_batch":
                arrivals = []
                for rid, req, path in record["arrivals"]:
                    request = None
                    if req is not None:
                        request = Request(_decode_vertex(req[0]),
                                          _decode_vertex(req[1]))
                    dipath = None if path is None else _decode_path(path)
                    arrivals.append(Event(0.0, ARRIVAL, rid,
                                          request=request, dipath=dipath))
                reasons = engine.admit_batch(arrivals,
                                             policy=record["policy"])
                expected = {int(k): v for k, v in record["outcome"].items()}
                if reasons != expected:
                    raise RecoveryError(
                        f"batch replayed to {reasons!r}, journal says "
                        f"{expected!r}", record=index)
                for key, (idx, color) in record["placements"].items():
                    rid = int(key)
                    got_idx = engine.vertex_of.get(rid)
                    got_color = (None if got_idx is None
                                 else engine.assigner.color_of(got_idx))
                    if got_idx != idx or got_color != color:
                        raise RecoveryError(
                            f"batch placement of request {rid} replayed "
                            f"to {got_idx}/{got_color}, journal says "
                            f"{idx}/{color}", record=index)
            elif rtype == "depart":
                held = engine.depart(record["rid"])
                injector.forget(record["rid"])
                if held != record["outcome"]:
                    raise RecoveryError(
                        f"depart({record['rid']}) replayed to {held}, "
                        f"journal says {record['outcome']}", record=index)
            elif rtype == "defrag":
                report = engine.defrag(order=record["order"],
                                       max_moves=record["max_moves"],
                                       shard=record["shard"])
                if (len(report.moves) != record["moves"]
                        or report.reclaimed != record["reclaimed"]):
                    raise RecoveryError(
                        f"defrag replayed to {len(report.moves)} moves / "
                        f"{report.reclaimed} reclaimed, journal says "
                        f"{record['moves']}/{record['reclaimed']}",
                        record=index)
            elif rtype == "cut":
                report = injector.cut(_decode_arc(record["arc"]))
                self._graph_ops.append(["cut", record["arc"]])
                if (report.stranded != record["stranded"]
                        or report.restored != record["restored"]):
                    raise RecoveryError(
                        f"cut{tuple(record['arc'])} replayed to stranded="
                        f"{report.stranded} restored={report.restored}, "
                        f"journal says {record['stranded']}/"
                        f"{record['restored']}", record=index)
            elif rtype == "repair":
                report = injector.repair(_decode_arc(record["arc"]))
                self._graph_ops.append(["repair", record["arc"]])
                if (report.restored != record["restored"]
                        or report.reverted != record["reverted"]):
                    raise RecoveryError(
                        f"repair{tuple(record['arc'])} replayed to "
                        f"restored={report.restored} reverted="
                        f"{report.reverted}, journal says "
                        f"{record['restored']}/{record['reverted']}",
                        record=index)
            elif rtype == "snapshot":
                # integrity gate: a from-genesis replay must pass through
                # the exact state the live engine snapshotted here
                if _encode(self._capture()) != _encode(record["state"]):
                    raise RecoveryError(
                        "replayed state does not match the snapshot",
                        record=index)
                self._since_snapshot = 0
            else:
                raise RecoveryError(f"unknown record type {rtype!r}",
                                    record=index)
        except RecoveryError:
            raise
        except Exception as exc:
            raise RecoveryError(f"replay raised {exc!r}",
                                record=index) from exc


def recover(path: str, metrics: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None) -> DurableEngine:
    """Rebuild a :class:`DurableEngine` from its journal.

    Parses the journal, discards a torn tail (truncating the file to the
    last clean record boundary), rebuilds the canonical genesis engine,
    jumps to the last snapshot if one exists and re-executes the remaining
    records through the real engine code paths — verifying every replayed
    decision against the journalled one.  Returns the recovered engine
    with the journal re-opened for appending; raises
    :class:`~repro.exceptions.RecoveryError` on any corruption or
    divergence.

    ``metrics`` / ``tracer`` are handed to the rebuilt engine; with a
    tracer attached, recovery emits a ``recover`` span nesting a
    ``snapshot_restore`` span (when a snapshot is applied) and a
    ``replay`` span around the tail re-execution — inside which every
    replayed op emits its ordinary engine spans.  Recovery is
    bit-identical with or without them.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    complete, tail = lines[:-1], lines[-1]
    records: List[Dict[str, Any]] = []
    clean_len = 0
    for pos, line in enumerate(complete):
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError(  # noqa: REPRO-D4 -- joins JSONDecodeError in the torn-tail handler
                    "journal record is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            if pos == len(complete) - 1:
                # Unreadable final line: the torn tail of a crashed
                # append.  Trailing bytes after it (``tail`` non-empty —
                # e.g. garbage flushed by the dying process after the
                # torn record) are part of the same torn suffix; both
                # are discarded by the truncate below.  Corruption
                # *followed by* a clean record is not a tail and still
                # raises.
                break
            raise RecoveryError(f"unreadable journal record: {exc}",
                                record=pos) from exc
        records.append(record)
        clean_len += len(line) + 1
    if not records:
        raise RecoveryError("journal is empty or its genesis record is torn")
    genesis = records[0]
    if genesis.get("type") != "genesis":
        raise RecoveryError("journal does not start with a genesis record",
                            record=0)
    if genesis.get("version") != JOURNAL_VERSION:
        raise RecoveryError(
            f"unsupported journal version {genesis.get('version')!r} "
            f"(this build writes {JOURNAL_VERSION})", record=0)
    if clean_len != len(raw):
        # drop the torn tail before any re-appending can interleave with it
        with open(path, "r+b") as fh:
            fh.truncate(clean_len)
    durable = DurableEngine._resume(genesis, path, metrics=metrics,
                                    tracer=tracer)
    tr = durable._engine.tracer
    # .get: a typeless record is _replay's "unknown record type", not a
    # KeyError escaping recovery
    snapshots = [i for i, r in enumerate(records)
                 if r.get("type") == "snapshot"]
    try:
        with (tr.span("recover", records=len(records),
                      snapshots=len(snapshots))
              if tr is not None else nullcontext()):
            start = 1
            if snapshots:
                last = snapshots[-1]
                with (tr.span("snapshot_restore", record=last)
                      if tr is not None else nullcontext()):
                    try:
                        durable._apply_snapshot(records[last]["state"])
                    except RecoveryError:
                        raise
                    except Exception as exc:
                        raise RecoveryError(f"snapshot restore raised {exc!r}",
                                            record=last) from exc
                start = last + 1
            with (tr.span("replay", count=len(records) - start)
                  if tr is not None else nullcontext()):
                for i in range(start, len(records)):
                    durable._replay(records[i], i)
    except BaseException:
        # a refused recovery must not leak the re-opened journal handle
        durable.close()
        raise
    durable._records = len(records)
    durable._since_snapshot = (len(records) - 1 - snapshots[-1]
                               if snapshots else len(records))
    return durable
