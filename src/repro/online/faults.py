"""Fibre-cut fault injection and restoration for the online engine.

A real optical network loses fibres — backhoes, storms, amplifier
failures — and the interesting question is never whether lightpaths die
(they do, instantly) but how much of the stranded traffic the control
plane wins back, and at what spectrum cost.  :class:`FaultInjector`
implements that control plane on top of :class:`~repro.online.simulator.
OnlineEngine`:

* :meth:`FaultInjector.cut` removes one directed arc from the live
  topology.  Every provisioned lightpath routed over it is *stranded*:
  torn down through the ordinary :meth:`~repro.online.simulator.
  OnlineEngine.depart` path (wavelength released first, then the dipath
  leaves the conflict graph), so the :class:`~repro.conflict.sharding.
  ShardTracker` and :class:`~repro.online.sharding.ArcColorIndex` stay
  coherent through the removal — a cut is indistinguishable from a burst
  of departures as far as the incremental state is concerned.  Removing
  the arc bumps the graph version, so every online router drops its
  route caches automatically.
* With restoration on, the injector then drives a **mass re-route**: the
  stranded requests are re-admitted as one burst through
  :meth:`~repro.online.simulator.OnlineEngine.admit_batch` (``greedy``
  policy — restore as many as possible), and up to ``retries`` further
  rounds each run a bounded defragmentation pass first to free spectrum
  (the backoff stops early when a pass commits no move, because a
  fruitless pass cannot change any admission decision).
* :meth:`FaultInjector.repair` restores the arc and retries whatever is
  still stranded — also in the ``restoration=False`` baseline, where
  repair is the *only* thing that brings a stranded lightpath back.
  Optionally (``revert_on_repair``) every lightpath that was restored on
  a detour is offered its original route back through a single-member
  :class:`~repro.online.defrag.DefragPass`, so a reversion commits only
  when it strictly improves the global defrag objective — the repaired
  fibre never triggers churn for its own sake.

Stranding is tracked by ``request_id``; a stranded request that departs
(its holding time expires while it is down) must be :meth:`forgotten
<FaultInjector.forget>` so a later repair does not resurrect it —
:class:`~repro.online.dispatch.Dispatcher` does this on every
departure.

Everything here is a deterministic function of the engine state and the
fault sequence (stranded sets are walked in sorted request order, batch
re-admission and defrag are the engine's own deterministic machinery),
which is what lets :mod:`repro.online.persistence` journal fault events
and replay them bit-identically during crash recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .._typing import Arc
from ..dipaths.dipath import Dipath
from ..dipaths.requests import Request
from ..exceptions import FaultError
from ..graphs.digraph import DiGraph
from ..obs.registry import Instrumented
from .defrag import DefragPass
from .events import ARRIVAL, CUT, REPAIR, Event
from .simulator import EngineConfig, OnlineEngine

__all__ = ["FaultInjector", "FaultReport", "fault_surface"]


def fault_surface(graph: DiGraph, events: List[Event]) -> DiGraph:
    """The topology a trace replay must mutate.

    Fault events remove and re-add arcs in place, so a harness replaying
    a fault-bearing trace (:func:`~repro.online.simulator.simulate_online`,
    :func:`~repro.service.aserve_trace`) works on a private copy and the
    caller's graph survives the run.  Fault-free traces run on the
    caller's graph directly — no copy cost, and both sides of an identity
    comparison that copy the *same* original get the same iteration
    order, so fingerprints stay comparable either way.
    """
    if any(e.kind in (CUT, REPAIR) for e in events):
        return graph.copy()
    return graph


@dataclass
class FaultReport:
    """Outcome of one :meth:`FaultInjector.cut` / :meth:`~FaultInjector.
    repair` call.

    Attributes
    ----------
    kind:
        ``"cut"`` or ``"repair"``.
    arc:
        The fibre the event acted on.
    stranded:
        Requests newly torn down by this event (cuts only), sorted.
    restored:
        Requests re-admitted during this event — newly stranded ones and
        survivors of earlier cuts alike.
    still_stranded:
        Every request stranded after this event (the injector's full
        registry, not just this event's casualties), sorted.
    retries:
        Extra restoration rounds used beyond the first re-admission.
    defrag_moves:
        Moves committed by the restoration backoff passes.
    reverted:
        Requests moved back onto their pre-cut route (repairs with
        ``revert_on_repair`` only).
    """

    kind: str
    arc: Arc
    stranded: List[int] = field(default_factory=list)
    restored: List[int] = field(default_factory=list)
    still_stranded: List[int] = field(default_factory=list)
    retries: int = 0
    defrag_moves: int = 0
    reverted: List[int] = field(default_factory=list)


class FaultInjector(Instrumented):
    """Cut and repair fibres on a live :class:`~repro.online.simulator.
    OnlineEngine`, restoring stranded lightpaths within a bounded budget.

    Publishes ``faults.*`` counters into the engine's metrics registry
    and, when the engine carries a tracer, wraps every fault event in a
    ``cut`` / ``repair`` span with a nested ``restore`` span per
    restoration drive (the batched re-admissions and backoff defrag
    passes inside emit their own spans through the engine).

    Parameters
    ----------
    engine:
        The engine to operate on (its graph is mutated in place).
    restoration:
        Attempt the mass re-route at cut time.  ``False`` models a
        network without a restoration plane: stranded lightpaths stay
        down until the fibre is repaired.
    retries:
        Extra restoration rounds per fault event, each preceded by a
        defrag pass (see module docstring).
    move_budget:
        ``max_moves`` for each restoration defrag pass.
    revert_on_repair:
        Offer rerouted lightpaths their original route back at repair
        time (strict-improvement moves only).
    order:
        Walk order for the restoration defrag passes.

    The defaults are :class:`~repro.online.simulator.EngineConfig`'s
    ``restoration`` / ``restore_*`` / ``revert_on_repair`` knobs.
    """

    def __init__(self, engine: OnlineEngine,
                 restoration: bool = EngineConfig.restoration,
                 retries: int = EngineConfig.restore_retries,
                 move_budget: Optional[int] = EngineConfig.restore_move_budget,
                 revert_on_repair: bool = EngineConfig.revert_on_repair,
                 order: str = EngineConfig.restore_order) -> None:
        if retries < 0:
            raise FaultError("retries must be >= 0")
        self._obs_init("faults", engine.metrics)
        self._m_cuts = self._obs_counter("cuts")
        self._m_repairs = self._obs_counter("repairs")
        self._m_stranded = self._obs_counter("stranded")
        self._m_restored = self._obs_counter("restored")
        self._m_reverted = self._obs_counter("reverted")
        self._m_retries = self._obs_counter("restore_retries")
        self.engine = engine
        self.restoration = restoration
        self.retries = retries
        self.move_budget = move_budget
        self.revert_on_repair = revert_on_repair
        self.order = order
        self._cut: Dict[Arc, bool] = {}             # insertion-ordered set
        self._stranded: Dict[int, Dipath] = {}      # rid -> pre-cut route
        self._rerouted: Dict[int, Dipath] = {}      # rid -> pre-cut route

    @classmethod
    def configured(cls, engine: OnlineEngine,
                   config: EngineConfig) -> "FaultInjector":
        """The injector ``config``'s restoration knobs describe."""
        return cls(engine, restoration=config.restoration,
                   retries=config.restore_retries,
                   move_budget=config.restore_move_budget,
                   revert_on_repair=config.revert_on_repair,
                   order=config.restore_order)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def cut_arcs(self) -> List[Arc]:
        """Currently-cut fibres, in cut order."""
        return list(self._cut)

    def stranded(self) -> List[int]:
        """Requests currently down, sorted by ``request_id``."""
        return sorted(self._stranded)

    def rerouted(self) -> List[int]:
        """Restored requests currently running on a detour, sorted."""
        return sorted(self._rerouted)

    # ------------------------------------------------------------------ #
    # fault events
    # ------------------------------------------------------------------ #
    def cut(self, arc: Arc) -> FaultReport:
        """Cut one directed fibre; tear down and (optionally) restore."""
        arc = (arc[0], arc[1])
        if arc in self._cut:
            raise FaultError(f"fibre {arc!r} is already cut")
        engine = self.engine
        if not engine.graph.has_arc(*arc):
            raise FaultError(f"fibre {arc!r} is not in the topology")
        tracer = engine.tracer
        if tracer is None:
            return self._do_cut(arc)
        with tracer.span("cut", arc=f"{arc[0]}->{arc[1]}") as span:
            report = self._do_cut(arc)
            span.tags["stranded"] = len(report.stranded)
            span.tags["restored"] = len(report.restored)
        return report

    def _do_cut(self, arc: Arc) -> FaultReport:
        engine = self.engine
        self._m_cuts.inc()
        report = FaultReport(kind="cut", arc=arc)
        family = engine.family
        if family.load_of_arc(arc):
            rid_of = {idx: rid for rid, idx in engine.vertex_of.items()}
            victims = sorted(rid_of[idx] for idx in family.members_on_arc(arc))
        else:
            victims = []
        # tear down first (wavelength released, dipath out of the conflict
        # graph — shard tracker and colour index see an ordinary removal),
        # then take the arc out of the topology
        for rid in victims:
            self._stranded[rid] = family[engine.vertex_of[rid]]
            engine.depart(rid)
            report.stranded.append(rid)
        self._m_stranded.inc(len(report.stranded))
        engine.graph.remove_arc(*arc)   # routers drop pairs routed over it
        self._cut[arc] = True
        if self.restoration:
            self._restore(report, self.retries)
        report.still_stranded = self.stranded()
        return report

    def repair(self, arc: Arc) -> FaultReport:
        """Repair one cut fibre; retry stranded, optionally revert."""
        arc = (arc[0], arc[1])
        if arc not in self._cut:
            raise FaultError(f"fibre {arc!r} is not cut")
        tracer = self.engine.tracer
        if tracer is None:
            return self._do_repair(arc)
        with tracer.span("repair", arc=f"{arc[0]}->{arc[1]}") as span:
            report = self._do_repair(arc)
            span.tags["restored"] = len(report.restored)
            span.tags["reverted"] = len(report.reverted)
        return report

    def _do_repair(self, arc: Arc) -> FaultReport:
        self._m_repairs.inc()
        del self._cut[arc]
        self.engine.graph.add_arc(*arc)  # routers drop pairs it can reroute
        report = FaultReport(kind="repair", arc=arc)
        # repair always retries: in the restoration=False baseline this
        # is the only path that brings a stranded lightpath back (without
        # the defrag backoff — that is the restoration plane's machinery)
        self._restore(report, self.retries if self.restoration else 0,
                      backoff=self.restoration)
        if self.revert_on_repair:
            self._revert(report)
        report.still_stranded = self.stranded()
        return report

    def forget(self, request_id: int) -> None:
        """Drop a request from the stranded/rerouted registries.

        Call when a stranded request departs (holding time expired while
        down) so a later repair does not resurrect it, or when a rerouted
        one departs so reversion stops considering it.
        """
        self._stranded.pop(request_id, None)
        self._rerouted.pop(request_id, None)

    # ------------------------------------------------------------------ #
    # restoration machinery
    # ------------------------------------------------------------------ #
    def _restore(self, report: FaultReport, retries: int,
                 backoff: bool = True) -> None:
        """Bounded mass re-route of everything currently stranded."""
        tracer = self.engine.tracer
        if tracer is None:
            return self._do_restore(report, retries, backoff)
        with tracer.span("restore", pending=len(self._stranded)) as span:
            self._do_restore(report, retries, backoff)
            span.tags["restored"] = len(report.restored)
            span.tags["retries"] = report.retries

    def _do_restore(self, report: FaultReport, retries: int,
                    backoff: bool = True) -> None:
        engine = self.engine
        for attempt in range(retries + 1):
            pending = self.stranded()
            if not pending:
                break
            if attempt > 0:
                if not backoff:         # pragma: no cover - defensive
                    break
                passed = engine.defrag(order=self.order,
                                       max_moves=self.move_budget)
                report.defrag_moves += len(passed.moves)
                if not passed.moves:
                    # a fruitless pass cannot change the admission
                    # decisions — further retries would repeat them
                    break
                report.retries = attempt
                self._m_retries.inc()
            arrivals = [
                Event(0.0, ARRIVAL, rid,
                      request=Request(self._stranded[rid].source,
                                      self._stranded[rid].target))
                for rid in pending]
            reasons = engine.admit_batch(arrivals, policy="greedy")
            for rid in pending:
                if reasons[rid] is None:
                    original = self._stranded.pop(rid)
                    if engine.family[engine.vertex_of[rid]] != original:
                        self._rerouted[rid] = original
                    report.restored.append(rid)
                    self._m_restored.inc()

    def _revert(self, report: FaultReport) -> None:
        """Offer each detoured lightpath its original route back."""
        engine = self.engine
        for rid in sorted(self._rerouted):
            original = self._rerouted[rid]
            if not original.is_valid_in(engine.graph):
                continue                # part of its fibre is still cut
            idx = engine.vertex_of.get(rid)
            if idx is None:             # pragma: no cover - forget() races
                self._rerouted.pop(rid)
                continue
            passed = DefragPass(
                engine.conflict, engine.assigner,
                candidates=lambda i, cur, o=original: [o],
                members=[idx], max_moves=1,
                metrics=engine.metrics).run()
            if not passed.moves:
                continue                # reverting would not improve things
            move = passed.moves[0]
            if move.new_index != move.index:    # pragma: no cover
                engine.vertex_of[rid] = move.new_index
            if move.new_route == original:
                report.reverted.append(rid)
                self._m_reverted.inc()
                self._rerouted.pop(rid)
