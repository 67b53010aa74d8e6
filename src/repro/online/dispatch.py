"""The one event core behind the trace loop and the service.

:func:`~repro.online.simulator.simulate_online` feeds a sorted trace and
:class:`~repro.service.RwaService` feeds its drained queue into the same
:class:`Dispatcher`, which decides every op on an
:class:`~repro.online.simulator.OnlineEngine` (or a journalling
:class:`~repro.online.persistence.DurableEngine`) and keeps the books.
The simulator and the service therefore make the same decisions and
publish the same ``result.*`` metrics because they run the same code,
not because a gate compares two copies of it.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..exceptions import AuditError, SimulationError
from .defrag import DefragReport
from .events import ARRIVAL, CUT, DEPARTURE, REPAIR
from .faults import FaultInjector, FaultReport
from .simulator import (FIBRE_CUT, NO_ROUTE, NO_WAVELENGTH, SHED,
                        AdmissionGuard, EngineConfig, OnlineEngine,
                        OnlineResult)
from .transaction import BATCH_POLICIES

if TYPE_CHECKING:                                   # pragma: no cover
    from .persistence import DurableEngine

__all__ = ["DEFRAG", "Dispatcher"]

#: Op kind of an on-demand defragmentation pass (the service's
#: ``request_defrag``; traces carry none).
DEFRAG = "defrag"


class Dispatcher:
    """Ops in, decisions and an :class:`~repro.online.simulator.
    OnlineResult` out.

    An *op* is anything with :class:`~repro.online.events.Event`'s
    attributes (``kind``, ``time``, ``request_id``, ``request``,
    ``dipath``, ``arc``); the service's queued ops add ``tenant`` (the
    guard bucket) and, on :data:`DEFRAG` ops, ``order`` / ``max_moves``.
    The caller owns the clock: it hands over :meth:`groups` of
    time-ordered ops one at a time through :meth:`dispatch`.  The
    dispatcher owns everything else:

    * **Grouping.**  Under a ``batch_policy`` each run of equal-time
      arrivals is one burst, admitted atomically through ``admit_batch``,
      and each run of equal-time departures is one group, torn down
      through ``depart_batch`` (one journal record on a durable backend).
      A trigger a group crosses fires once, after the whole group.
    * **Shedding.**  The optional :class:`~repro.online.simulator.
      AdmissionGuard` charges each arrival its work (``k_candidates``
      under speculation, ``1`` otherwise) before any routing work and
      records refusals as :data:`~repro.online.simulator.SHED`.
    * **Dispatch** of admissions, bursts, departures, cuts, repairs and
      defrag passes to the backend; a durable backend journals each.
    * **Triggers.**  ``defrag_on_block`` defragments on a
      ``no_wavelength`` rejection and retries once if the pass moved
      anything; ``defrag_every`` / ``defrag_utilization`` run passes
      every N ops / on crossing a utilisation threshold from below;
      ``audit_every`` runs :meth:`OnlineEngine.audit` every N ops and at
      :meth:`result`.  Triggered passes walk in ``config.restore_order``.
    * **Faults.**  The :class:`~repro.online.faults.FaultInjector` is
      built on the first fault op: its construction registers
      ``faults.*`` counters, and a fault-free run's metrics snapshot
      must not carry them.  A durable backend owns its injector and
      journals cuts and repairs itself.
    * **Bookkeeping.**  ``accepted`` / ``blocked`` / ``rejections`` hold
      every arrival's current outcome, with live ``result.accepted`` /
      ``result.blocked`` / ``result.blocked.<reason>`` counters that
      always equal them — fault reconciliation moves both together —
      and departures feed the ``result.holding_time`` histogram.
      :meth:`result` settles the rest.

    Parameters
    ----------
    engine, config:
        The live engine and the :class:`~repro.online.simulator.
        EngineConfig` it was built from (the restoration knobs configure
        the injector).
    durable:
        The :class:`~repro.online.persistence.DurableEngine` wrapping
        ``engine``, when every op must be journalled.
    batch_policy:
        One of :data:`~repro.online.transaction.BATCH_POLICIES`, or
        ``None`` to admit arrivals one by one.
    work_budget, burst, queue_depth, tenants:
        :class:`~repro.online.simulator.AdmissionGuard` configuration;
        any of them set turns the guard on.
    screen:
        ``op -> bool``, asked for each arrival before the guard: ``True``
        means the caller has already answered the op (the service's
        retry and deadline checks), so it is neither charged nor decided.
    defrag_every, defrag_on_block, defrag_utilization, defrag_max_moves,
    audit_every:
        The triggers above; see :func:`~repro.online.simulator.
        simulate_online`.
    """

    def __init__(self, engine: OnlineEngine, config: EngineConfig, *,
                 durable: Optional["DurableEngine"] = None,
                 batch_policy: Optional[str] = None,
                 work_budget: Optional[float] = None,
                 burst: Optional[float] = None,
                 queue_depth: Optional[int] = None,
                 tenants: Optional[Dict[str, float]] = None,
                 screen: Optional[Callable[[object], bool]] = None,
                 defrag_every: Optional[int] = None,
                 defrag_on_block: bool = False,
                 defrag_utilization: Optional[float] = None,
                 defrag_max_moves: Optional[int] = None,
                 audit_every: Optional[int] = None) -> None:
        if batch_policy is not None and batch_policy not in BATCH_POLICIES:
            raise ValueError(f"unknown batch policy {batch_policy!r}; "
                             f"expected one of {BATCH_POLICIES}")
        if defrag_every is not None and defrag_every < 1:
            raise ValueError("defrag_every must be >= 1")
        if defrag_utilization is not None and \
                not 0.0 < defrag_utilization <= 1.0:
            raise ValueError("defrag_utilization must be in (0, 1]")
        if audit_every is not None and audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        registry = engine.metrics
        self.engine = engine
        self.config = config
        self.batch_policy = batch_policy
        self.guard: Optional[AdmissionGuard] = None
        if work_budget is not None or burst is not None or \
                queue_depth is not None or tenants:
            self.guard = AdmissionGuard(
                work_budget=work_budget, burst=burst,
                queue_depth=queue_depth, tenants=tenants, metrics=registry)
        self._cost = float(config.k_candidates) if config.speculative \
            else 1.0
        self._durable = durable
        self._backend = engine if durable is None else durable
        self._screen = screen
        self._defrag_every = defrag_every
        self._defrag_on_block = defrag_on_block
        self._defrag_utilization = defrag_utilization
        self._defrag_max_moves = defrag_max_moves
        self._audit_every = audit_every
        self._triggered = defrag_every is not None or \
            audit_every is not None or defrag_utilization is not None
        self._processed = 0
        self._above_threshold = False
        self._injector: Optional[FaultInjector] = None
        self.cuts = 0
        self.repairs = 0
        self.stranded = 0
        self.restored = 0
        # A recovered engine carries its active lightpaths into this
        # fresh bookkeeping epoch: they count as accepted, in admission
        # order (empty for a fresh engine).
        self.accepted: List[int] = list(engine.vertex_of)
        self.blocked: List[int] = []
        self.rejections: Dict[int, str] = {}
        self._admitted_at: Dict[int, float] = {}
        self._registry = registry
        self._holding = registry.histogram(
            "result.holding_time", (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0))
        self._m_accepted = registry.counter("result.accepted")
        self._m_blocked = registry.counter("result.blocked")
        self._m_reason = {
            reason: registry.counter(f"result.blocked.{reason}")
            for reason in (NO_ROUTE, NO_WAVELENGTH, SHED, FIBRE_CUT)}
        self._m_accepted.set(len(self.accepted))
        self._m_blocked.set(0)
        for counter in self._m_reason.values():
            counter.set(0)

    # ------------------------------------------------------------------ #
    # ops in
    # ------------------------------------------------------------------ #
    def groups(self, ops: Sequence) -> Iterator[Sequence]:
        """Split time-ordered ops into dispatch groups: a run of
        equal-time arrivals or departures under a ``batch_policy``, else
        one op each."""
        if self.batch_policy is None:
            for op in ops:
                yield (op,)
            return
        index, count = 0, len(ops)
        while index < count:
            op = ops[index]
            end = index + 1
            kind = op.kind
            if kind == ARRIVAL or kind == DEPARTURE:
                while end < count and ops[end].kind == kind and \
                        ops[end].time == op.time:
                    end += 1
            yield ops[index:end]
            index = end

    def dispatch(self, group: Sequence) -> List[Tuple[object, object]]:
        """Decide one group; return ``(op, outcome)`` in decision order.

        Outcomes are an arrival's rejection reason (``None`` =
        admitted), a departure's ``held`` flag, a fault's
        :class:`~repro.online.faults.FaultReport` or a defrag pass's
        :class:`~repro.online.defrag.DefragReport`.  Arrivals the
        ``screen`` answered are left out.
        """
        op = group[0]
        kind = op.kind
        if kind == ARRIVAL:
            decided = self._arrivals(group)
        elif kind == DEPARTURE:
            if len(group) == 1:
                decided = [(op, self._departed(
                    op, self._backend.depart(op.request_id)))]
            else:
                held = self._backend.depart_batch(
                    [member.request_id for member in group])
                decided = [(member, self._departed(member, flag))
                           for member, flag in zip(group, held)]
        elif kind == CUT or kind == REPAIR:
            decided = [(op, self._fault(op))]
        elif kind == DEFRAG:
            decided = [(op, self._backend.defrag(order=op.order,
                                                 max_moves=op.max_moves))]
        else:
            raise SimulationError(f"unknown event kind {kind!r}")
        if self._triggered:
            self._triggers(len(group))
        return decided

    def record(self, op, reason: Optional[str]) -> None:
        """Book one arrival's decision (``None`` = admitted).

        Reasons beyond the four standard ones (the service's
        ``expired``) get their ``result.blocked.<reason>`` counter on
        first use, so a run without them publishes exactly the
        standard set.
        """
        rid = op.request_id
        if reason is None:
            self.accepted.append(rid)
            self._admitted_at[rid] = op.time
            self._m_accepted.inc()
            return
        self.blocked.append(rid)
        self.rejections[rid] = reason
        self._m_blocked.inc()
        counter = self._m_reason.get(reason)
        if counter is None:
            counter = self._m_reason[reason] = self._registry.counter(
                f"result.blocked.{reason}")
            counter.set(0)
        counter.inc()

    # ------------------------------------------------------------------ #
    # per-kind paths
    # ------------------------------------------------------------------ #
    def _arrivals(self, group: Sequence) -> List[Tuple[object, object]]:
        decided: List[Tuple[object, object]] = []
        screen, guard = self._screen, self.guard
        if screen is None and guard is None:
            kept = group
        else:
            kept = []
            for op in group:
                if screen is not None and screen(op):
                    continue
                if guard is not None and not guard.admits(
                        op.time, self._cost, getattr(op, "tenant", None)):
                    tracer = self.engine.tracer
                    if tracer is not None:
                        tracer.event("shed", rid=op.request_id)
                    self.record(op, SHED)
                    decided.append((op, SHED))
                else:
                    kept.append(op)
        if len(group) > 1:
            admit_batch = self._backend.admit_batch
            reasons = admit_batch(kept, policy=self.batch_policy) \
                if kept else {}
            if self._defrag_on_block and NO_WAVELENGTH in reasons.values() \
                    and self._defrag().moves:
                # the pass moved something: give the spectrum-blocked part
                # of the burst one more shot under the same policy
                reasons.update(admit_batch(
                    [op for op in kept
                     if reasons[op.request_id] == NO_WAVELENGTH],
                    policy=self.batch_policy))
            for op in kept:
                reason = reasons[op.request_id]
                self.record(op, reason)
                decided.append((op, reason))
        elif kept:
            op = kept[0]
            backend = self._backend
            reason = backend.admit(op.request_id, request=op.request,
                                   dipath=op.dipath)
            if reason == NO_WAVELENGTH and self._defrag_on_block and \
                    self._defrag().moves:
                # a fruitless pass cannot change the decision, so only a
                # pass that moved something earns a second attempt
                reason = backend.admit(op.request_id, request=op.request,
                                       dipath=op.dipath)
            self.record(op, reason)
            decided.append((op, reason))
        return decided

    def _departed(self, op, held: bool) -> bool:
        """Book one departure the backend has decided."""
        rid = op.request_id
        t0 = self._admitted_at.pop(rid, None)
        if held and t0 is not None:
            self._holding.observe(op.time - t0)
        if self._injector is not None:
            # a departed request must never be resurrected by a later
            # repair (a durable depart already forgets; forget is
            # idempotent)
            self._injector.forget(rid)
        return held

    def _fault(self, op) -> FaultReport:
        if op.arc is None:
            raise SimulationError(
                f"fault event at time {op.time} carries no arc")
        if self._injector is None:
            self._injector = (FaultInjector.configured(self.engine,
                                                       self.config)
                              if self._durable is None
                              else self._durable.injector)
        faults = self._injector if self._durable is None else self._durable
        if op.kind == CUT:
            self.cuts += 1
            report = faults.cut(op.arc)
        else:
            self.repairs += 1
            report = faults.repair(op.arc)
        self._reconcile(report)
        return report

    def _reconcile(self, report: FaultReport) -> None:
        """Fold a fault report into the decision containers and counters.

        Requests restored by this event leave ``blocked`` (their
        :data:`~repro.online.simulator.FIBRE_CUT` rejection is erased);
        newly-stranded-and-unrestored ones move from ``accepted`` to
        ``blocked``.  The lists end up in final-decision order.

        Tolerant of a restarted bookkeeping epoch: after a crash-restart
        the containers start from the recovered engine's *active*
        lightpaths, while the injector's stranded set — rebuilt from the
        journal — still spans the crash.  A rid stranded or restored
        across the boundary may therefore be missing from the
        containers; the moves below skip what is absent instead of
        corrupting what is present.
        """
        self.stranded += len(report.stranded)
        self.restored += len(report.restored)
        rejections, m_cut = self.rejections, self._m_reason[FIBRE_CUT]
        for rid in report.restored:
            if rejections.get(rid) == FIBRE_CUT:
                del rejections[rid]
                self.blocked.remove(rid)
                self._m_blocked.inc(-1)
                m_cut.inc(-1)
                self.accepted.append(rid)
                self._m_accepted.inc()
            elif rid not in self.accepted:
                # stranded by a pre-crash incarnation, restored here
                self.accepted.append(rid)
                self._m_accepted.inc()
        for rid in report.still_stranded:
            if rid not in rejections:
                if rid in self.accepted:
                    self.accepted.remove(rid)
                    self._m_accepted.inc(-1)
                self.blocked.append(rid)
                rejections[rid] = FIBRE_CUT
                self._m_blocked.inc()
                m_cut.inc()

    # ------------------------------------------------------------------ #
    # triggers
    # ------------------------------------------------------------------ #
    def _defrag(self) -> DefragReport:
        return self._backend.defrag(order=self.config.restore_order,
                                    max_moves=self._defrag_max_moves)

    def _triggers(self, size: int) -> None:
        processed = self._processed = self._processed + size
        every = self._defrag_every
        if every is not None and processed % every < size:
            self._defrag()
        every = self._audit_every
        if every is not None and processed % every < size:
            self._audit(f"after {processed} events")
        threshold = self._defrag_utilization
        if threshold is not None:
            engine = self.engine
            above = engine.assigner.colors_in_use() >= \
                threshold * engine.assigner.wavelengths
            if above and not self._above_threshold:
                self._defrag()
            self._above_threshold = above

    def _audit(self, when: str) -> None:
        violations = self.engine.audit()
        if violations:
            raise AuditError(f"engine audit failed {when}", violations)

    # ------------------------------------------------------------------ #
    # result out
    # ------------------------------------------------------------------ #
    def result(self) -> OnlineResult:
        """The run so far as an :class:`~repro.online.simulator.
        OnlineResult` (no timeline), with the live engine attached as
        ``result.engine``.

        Runs the closing audit under ``audit_every`` and publishes the
        closing ``result.*`` metrics before taking the snapshot.
        """
        if self._audit_every is not None:
            self._audit("at the end of the trace")
        engine, config = self.engine, self.config
        assigner = engine.assigner
        result = OnlineResult(
            accepted=list(self.accepted), blocked=list(self.blocked),
            rejections=dict(self.rejections),
            wavelengths_available=assigner.wavelengths,
            wavelengths_used=assigner.colors_ever_used(),
            routing=config.routing, policy=config.policy,
            speculative=config.speculative,
            kempe_repairs=assigner.kempe_repairs,
            batch_policy=self.batch_policy,
            defrag_passes=engine.defrag_passes,
            defrag_moves=engine.defrag_moves,
            wavelengths_reclaimed=engine.wavelengths_reclaimed,
            fibre_cuts=self.cuts, fibre_repairs=self.repairs,
            lightpaths_stranded=self.stranded,
            lightpaths_restored=self.restored)
        registry = self._registry
        registry.counter("result.kempe_repairs").set(result.kempe_repairs)
        registry.gauge("result.wavelengths_used").set(result.wavelengths_used)
        registry.gauge("result.active_at_end").set(engine.active)
        result.metrics = registry.snapshot()
        # The live engine rides along as a plain attribute — deliberately
        # NOT a dataclass field, so dataclasses.asdict() serialization and
        # result equality comparisons (used by the differential suites)
        # ignore it.  Identity harnesses fingerprint it via
        # repro.online.persistence.engine_fingerprint.
        result.engine = engine
        return result
