"""RWA-as-a-service: an asyncio front-end over the online engine.

:class:`RwaService` owns one :class:`~repro.online.simulator.OnlineEngine`
(or, with a journal path, a
:class:`~repro.online.persistence.DurableEngine`) and funnels every state
transition through a single FIFO admission queue drained by one consumer
task.  That single-writer discipline is what makes the service safe to
share between coroutines without locks, and it is also what makes it
*auditable*: the decisions the service makes are exactly the decisions
:func:`~repro.online.simulator.simulate_online` makes on the same ordered
trace — :func:`serve_trace` replays a trace through a service and the E19
gate asserts the engine fingerprints match bit for bit.

Three design points carry the identity contract:

* **Ordering.**  The queue is FIFO and the event loop is single-threaded,
  so requests are decided in submission order — the submission order *is*
  the trace order.
* **Coalescing.**  The drain task grabs everything queued at a scheduling
  point and, under a ``batch_policy``, admits consecutive equal-deadline
  arrivals as one atomic burst through ``admit_batch`` — the same static
  grouping rule ``simulate_online`` applies to a pre-sorted trace.  A
  trace enqueued in one go (as :func:`serve_trace` does) therefore
  coalesces into the identical bursts.
* **Coherent reads.**  Processing a drained batch never awaits, so every
  read API (:meth:`RwaService.utilisation`, :meth:`RwaService.shard_map`,
  :meth:`RwaService.blocking_stats`, :meth:`RwaService.metrics_snapshot`)
  observes the engine *between* batches — a consistent snapshot — without
  ever stalling admission behind a lock.

Load shedding is per-tenant: the service passes each submission's tenant
to an :class:`~repro.online.simulator.AdmissionGuard` built with
``tenants`` weights, so a flooding tenant exhausts only its own
weighted-fair share of the work budget while a quiet tenant's bucket
stays full (the starvation test pins this down).

Wall-clock submit→decision latency is sampled per arrival into a plain
list (never into the metrics registry — the registry stays deterministic)
and summarised by :meth:`RwaService.latency_stats`.

Fibre faults are first-class queued operations: :meth:`RwaService.cut`
and :meth:`RwaService.repair` enqueue ``cut``/``repair`` ops that run
through the same :class:`~repro.online.faults.FaultWiring` helper the
trace loop uses, so `FaultInjector` restoration, ``FIBRE_CUT``
accounting and metrics output stay decision- and fingerprint-identical
between :func:`serve_trace` and :func:`simulate_online` on fault-bearing
traces (the E21 gate).  Within a drained batch, ops sharing a timestamp
are stably reordered by the events.py tie-break (departure < repair <
cut < arrival) — a no-op for ``sort_events``-ordered traces, and the
deterministic convention for live submissions racing a coalesced burst.
:meth:`RwaService.schedule_maintenance` plans a cut+repair pair per arc:
the cut pre-emptively drains the fibre (tear-down + mass re-route by the
restoration plane empties it at window start) and the repair closes the
window.

Client-side resilience: :meth:`RwaService.submit` takes ``timeout=``
(wall-clock cap on the caller's wait — :class:`~repro.exceptions.
TimedOut`, the op is still decided exactly once) and ``deadline=``
(event-time expiry — :class:`~repro.exceptions.Expired`, the arrival is
dropped before any routing work and partitioned under
``result.blocked.expired``).  ``retry=True`` resubmissions of an
already-decided ``request_id`` are answered from the service's decision
log — the idempotency contract :class:`~repro.service.client.
RetryingClient` builds on.
"""

from __future__ import annotations

import asyncio
import bisect
import time as _time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._typing import Arc
from ..dipaths import Dipath, Request
from ..exceptions import Expired, ServiceError, SimulationError, TimedOut
from ..graphs import DiGraph
from ..obs import MetricsRegistry, Tracer
from ..online.events import ARRIVAL, CUT, DEPARTURE, REPAIR, Event
from ..online.faults import FaultReport, FaultWiring, fault_surface
from ..online.simulator import (AdmissionGuard, FIBRE_CUT, NO_ROUTE,
                                NO_WAVELENGTH, OnlineResult, SHED)
from ..online.persistence import DurableEngine, engine_fingerprint
from ..online.simulator import OnlineEngine
from ..online.transaction import BATCH_POLICIES

__all__ = ["EXPIRED", "RwaService", "serve_trace", "aserve_trace"]

#: Rejection reason for arrivals whose event-time deadline had passed
#: before processing — dropped pre-routing, partitioned like the other
#: reasons under ``result.blocked.expired``.
EXPIRED = "expired"

# queue-op kinds (internal)
_ARRIVAL = "arrival"
_DEPART = "depart"
_DEFRAG = "defrag"
_CUT = "cut"
_REPAIR = "repair"
_STOP = "stop"

#: Processing rank of ops sharing a timestamp — the service-side mirror
#: of ``repro.online.events._KIND_RANK``: capacity-freeing ops first
#: (departures, then repairs), cuts next, arrivals and defrag last, so
#: capacity freed or restored at ``t`` serves arrivals at ``t`` and an
#: arrival never routes over a fibre cut at the same instant.
_OP_RANK = {_DEPART: 0, _REPAIR: 1, _CUT: 2}


def _op_rank(op: "_Op") -> int:
    return _OP_RANK.get(op.kind, 3)


def _retrieve_quietly(future: "asyncio.Future") -> None:
    """Mark an abandoned future's outcome as retrieved.

    After a :class:`~repro.exceptions.TimedOut` the submitter stops
    awaiting, but the op is still decided; retrieving a late exception
    (e.g. ``Expired``) here keeps asyncio from logging it as never
    consumed.
    """
    if not future.cancelled():
        future.exception()


class _Op:
    """One queued operation plus its completion future."""

    __slots__ = ("kind", "time", "request_id", "request", "dipath",
                 "tenant", "order", "max_moves", "arc", "deadline",
                 "retry", "future", "submitted", "scheduled")

    def __init__(self, kind: str, time: float, future,
                 request_id: Optional[int] = None,
                 request: Optional[Request] = None,
                 dipath: Optional[Dipath] = None,
                 tenant: Optional[str] = None,
                 order: str = "highest_wavelength",
                 max_moves: Optional[int] = None,
                 arc: Optional[Arc] = None,
                 deadline: Optional[float] = None,
                 retry: bool = False) -> None:
        self.kind = kind
        self.time = time
        self.request_id = request_id
        self.request = request
        self.dipath = dipath
        self.tenant = tenant
        self.order = order
        self.max_moves = max_moves
        self.arc = arc
        self.deadline = deadline
        self.retry = retry
        self.future = future
        self.submitted = _time.perf_counter()
        # True for planned maintenance ops living in RwaService._scheduled
        # rather than the FIFO queue — the supervisor re-plans (rather
        # than re-queues) these across a crash-restart
        self.scheduled = False


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list.

    Pinned edge cases: an empty list yields ``0.0`` for every ``q``; a
    single sample is every percentile of itself; ``q=0.0`` is the
    minimum and ``q=1.0`` the maximum (the rank clamps keep any ``q`` in
    ``[0, 1]`` inside the list).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


class RwaService:
    """Async admission service around one online RWA engine.

    Parameters mirror :func:`~repro.online.simulator.simulate_online`'s
    engine/guard knobs, plus the service-specific ones:

    batch_policy:
        When set (one of
        :data:`~repro.online.transaction.BATCH_POLICIES`), consecutive
        queued arrivals sharing a deadline (``time``) are admitted as one
        atomic burst through ``admit_batch``.  ``None`` admits one by one.
    work_budget, burst, queue_depth, tenants:
        :class:`~repro.online.simulator.AdmissionGuard` configuration
        (any of the first three set turns the guard on); ``tenants``
        (``name -> weight``) gives every declared tenant its own
        weighted-fair-share token bucket, and the ``tenant=`` argument of
        :meth:`submit` selects the bucket per request.
    journal_path:
        When set, the service runs on a
        :class:`~repro.online.persistence.DurableEngine` journalling to
        this path (``snapshot_every`` / ``fsync`` pass through), so a
        crashed service recovers to the exact pre-crash engine via
        :func:`repro.online.persistence.recover`.  Each drained batch is
        group-committed: its records are synced together, and its
        futures resolve only after that sync.  Shed arrivals never
        reach the engine and are deliberately *not* journalled — quota
        refusal is a front-door policy, not engine state.
    max_pending:
        Bound on the admission queue; when full, :meth:`submit` applies
        backpressure (awaits a slot) and :meth:`submit_nowait` raises
        ``asyncio.QueueFull``.  ``None`` = unbounded.
    restoration, restore_retries, restore_move_budget, revert_on_repair,
    restore_order:
        Fault-restoration knobs, exactly
        :func:`~repro.online.simulator.simulate_online`'s: they
        configure the lazily-built
        :class:`~repro.online.faults.FaultInjector` behind
        :meth:`cut`/:meth:`repair` (or pass through to the
        :class:`DurableEngine` when journalling).
    crash_after_n_ops:
        Test-only chaos hook: the consumer task raises a
        :class:`ServiceError` *between* ops once this many have been
        applied, killing itself with the remaining futures unresolved —
        the failure mode :class:`~repro.service.supervisor.
        ServiceSupervisor` recovers from.  ``None`` (the default) never
        crashes.
    metrics, tracer, profile:
        Shared observability hooks, handed to the engine (see
        :mod:`repro.obs`).  Decision-neutral as always.
    """

    def __init__(self, graph: DiGraph, wavelengths: int,
                 routing: str = "shortest", policy: str = "first_fit",
                 kempe_repair: bool = False, seed: Optional[int] = None,
                 k_candidates: int = 4, speculative: bool = False,
                 sharded: bool = False,
                 batch_policy: Optional[str] = None,
                 work_budget: Optional[float] = None,
                 burst: Optional[float] = None,
                 queue_depth: Optional[int] = None,
                 tenants: Optional[Dict[str, float]] = None,
                 journal_path: Optional[str] = None,
                 snapshot_every: Optional[int] = None,
                 fsync: bool = False,
                 max_pending: Optional[int] = None,
                 restoration: bool = True,
                 restore_retries: int = 2,
                 restore_move_budget: Optional[int] = None,
                 revert_on_repair: bool = False,
                 restore_order: str = "highest_wavelength",
                 crash_after_n_ops: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 profile=None,
                 _durable: Optional[DurableEngine] = None) -> None:
        if batch_policy is not None and batch_policy not in BATCH_POLICIES:
            raise ValueError(f"unknown batch policy {batch_policy!r}; "
                             f"expected one of {BATCH_POLICIES}")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if restore_retries < 0:
            raise ValueError("restore_retries must be >= 0")
        if crash_after_n_ops is not None and crash_after_n_ops < 0:
            raise ValueError("crash_after_n_ops must be >= 0")
        self._durable: Optional[DurableEngine] = None
        if _durable is not None:
            # adopt an existing (typically recovered) durable engine —
            # the from_durable() path; engine-level kwargs were read back
            # from its genesis record by the caller
            if journal_path is not None:
                raise ValueError("pass either journal_path or _durable, "
                                 "not both")
            self._durable = _durable
            self._engine = _durable.engine
        elif journal_path is not None:
            if profile is not None:
                raise ValueError("profile is not supported on a durable "
                                 "service; attach it via tracer instead")
            self._durable = DurableEngine(
                graph, journal_path, wavelengths, routing=routing,
                policy=policy, kempe_repair=kempe_repair, seed=seed,
                k_candidates=k_candidates, speculative=speculative,
                sharded=sharded, snapshot_every=snapshot_every,
                restoration=restoration, restore_retries=restore_retries,
                restore_move_budget=restore_move_budget,
                revert_on_repair=revert_on_repair,
                restore_order=restore_order,
                fsync=fsync, metrics=metrics, tracer=tracer)
            self._engine = self._durable.engine
        else:
            self._engine = OnlineEngine(
                graph, wavelengths, routing=routing, policy=policy,
                kempe_repair=kempe_repair, seed=seed,
                k_candidates=k_candidates, speculative=speculative,
                sharded=sharded, metrics=metrics, tracer=tracer,
                profile=profile)
        registry = self._engine.metrics
        self._registry = registry
        self._tracer = self._engine.tracer
        self._wavelengths = wavelengths
        self._routing = routing
        self._policy = policy
        self._batch_policy = batch_policy
        self._speculative = speculative
        self._arrival_cost = float(k_candidates) if speculative else 1.0
        self._guard: Optional[AdmissionGuard] = None
        if work_budget is not None or queue_depth is not None or tenants:
            self._guard = AdmissionGuard(
                work_budget=work_budget, burst=burst,
                queue_depth=queue_depth, tenants=tenants, metrics=registry)
        elif burst is not None:
            raise ValueError("burst needs a work_budget")
        self._max_pending = max_pending
        self._queue: Optional[asyncio.Queue] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped = False
        self._last_time = float("-inf")
        self._admitted_at: Dict[int, float] = {}
        self._latencies: List[float] = []
        # decision bookkeeping, same shape simulate_online keeps
        self._accepted: List[int] = []
        self._blocked: List[int] = []
        self._rejections: Dict[int, str] = {}
        # every arrival's final outcome (None = admitted), kept forever:
        # the decision log that answers retry=True resubmissions without
        # a second engine decision
        self._decision: Dict[int, Optional[str]] = {}
        # A recovered engine carries its active lightpaths across a
        # crash even though the service-level bookkeeping above starts a
        # fresh epoch.  Seed the containers from the engine's admission
        # log (vertex_of iterates still-active requests in admission
        # order; empty for a fresh engine) so retry answers and fault
        # reconciliation see pre-crash admissions.
        for rid in self._engine.vertex_of:
            self._accepted.append(rid)
            self._decision[rid] = None
        # planned (future-time) maintenance ops, kept sorted by
        # (time, rank) and released into the stream by _process
        self._scheduled: List[_Op] = []
        self._current_batch: Optional[List[_Op]] = None
        # outcomes of the durable batch being decided, settled once its
        # journal records are synced (None outside a durable batch)
        self._held: Optional[List[tuple]] = None
        self._crash_after = crash_after_n_ops
        self._ops_done = 0
        self._faults = FaultWiring(
            self._engine, self._accepted, self._blocked, self._rejections,
            restoration=restoration, retries=restore_retries,
            move_budget=restore_move_budget,
            revert_on_repair=revert_on_repair, order=restore_order,
            durable=self._durable)
        self._holding = registry.histogram(
            "result.holding_time", (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0))
        self._m_accepted = registry.counter("result.accepted")
        self._m_blocked = registry.counter("result.blocked")
        self._m_reason = {
            reason: registry.counter(f"result.blocked.{reason}")
            for reason in (NO_ROUTE, NO_WAVELENGTH, SHED, FIBRE_CUT)}

    @classmethod
    def from_durable(cls, durable: DurableEngine,
                     **service_kwargs) -> "RwaService":
        """Wrap an existing (typically freshly recovered) durable engine.

        Every engine-level knob (wavelengths, routing, policy, seed,
        speculation, sharding, restoration configuration) is read back
        from the journal's genesis record, so the wrapped service is
        configured exactly as the engine was journalled —
        ``service_kwargs`` carries only the service-level knobs
        (``batch_policy``, guard configuration, ``max_pending``,
        ``crash_after_n_ops``).  Observability hooks already live on the
        recovered engine, so ``metrics``/``tracer``/``profile`` (and the
        journal knobs, owned by ``durable``) are ignored here — as is
        any engine knob, because the genesis record is authoritative:
        callers (the supervisor in particular) may hold one kwargs dict
        that configured the first incarnation and pass it here verbatim.
        """
        genesis = durable.genesis
        for owned in ("metrics", "tracer", "profile", "journal_path",
                      "snapshot_every", "fsync",
                      # genesis-owned engine knobs (set explicitly below)
                      "graph", "wavelengths", "routing", "policy",
                      "kempe_repair", "seed", "k_candidates",
                      "speculative", "sharded", "restoration",
                      "restore_retries", "restore_move_budget",
                      "revert_on_repair", "restore_order"):
            service_kwargs.pop(owned, None)
        return cls(
            durable.engine.graph, genesis["wavelengths"],
            routing=genesis["routing"], policy=genesis["policy"],
            kempe_repair=genesis["kempe_repair"], seed=genesis["seed"],
            k_candidates=genesis["k_candidates"],
            speculative=genesis["speculative"], sharded=genesis["sharded"],
            restoration=genesis["restoration"],
            restore_retries=genesis["restore_retries"],
            restore_move_budget=genesis["restore_move_budget"],
            revert_on_repair=genesis["revert_on_repair"],
            restore_order=genesis["restore_order"],
            _durable=durable, **service_kwargs)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "RwaService":
        """Create the admission queue and the drain task."""
        if self._drain_task is not None or self._stopped:
            raise ServiceError("service already started")
        self._queue = asyncio.Queue(self._max_pending or 0)
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain())
        return self

    async def stop(self) -> None:
        """Drain every queued request, then stop the consumer.

        Idempotent.  Requests enqueued before ``stop`` are decided;
        later submissions raise :class:`~repro.exceptions.ServiceError`.
        A durable service's journal is closed (the engine stays usable
        in memory, e.g. for fingerprinting).

        Stopping a *crashed* service (the consumer task died) raises
        :class:`ServiceError` immediately: there is no consumer left to
        drain the queue, so enqueueing the stop sentinel could block
        forever on a bounded queue — recover via :meth:`take_unfinished`
        or a :class:`~repro.service.supervisor.ServiceSupervisor`
        instead.
        """
        if self._stopped:
            return
        if self._drain_task is None:
            self._stopped = True
            return
        self._stopped = True
        task = self._drain_task
        if task.done() and (task.cancelled() or
                            task.exception() is not None):
            self._drain_task = None
            if self._durable is not None:
                self._durable.close()
            raise ServiceError(
                "cannot stop a crashed service: the consumer task died "
                "with queued ops undecided — collect them via "
                "take_unfinished() (or run under a ServiceSupervisor)"
            ) from (None if task.cancelled() else task.exception())
        loop = asyncio.get_running_loop()
        sentinel = _Op(_STOP, self._last_time, loop.create_future())
        await self._queue.put(sentinel)
        await self._drain_task
        self._drain_task = None
        if self._durable is not None:
            self._durable.close()

    async def __aenter__(self) -> "RwaService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._drain_task is not None and not self._stopped

    @property
    def engine(self) -> OnlineEngine:
        """The live engine (fingerprint it via ``engine_fingerprint``)."""
        return self._engine

    @property
    def durable(self) -> Optional[DurableEngine]:
        """The journalling wrapper, when built with ``journal_path``."""
        return self._durable

    def fingerprint(self) -> Dict[str, Any]:
        """:func:`~repro.online.persistence.engine_fingerprint` of the
        live engine."""
        return engine_fingerprint(self._engine)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def _enqueue_nowait(self, op: _Op) -> "asyncio.Future":
        if self._queue is None or self._stopped:
            raise ServiceError("service is not running (start() it, or "
                               "use 'async with RwaService(...)')")
        self._queue.put_nowait(op)
        return op.future

    def submit_nowait(self, request_id: int,
                      request: Optional[Request] = None,
                      dipath: Optional[Dipath] = None, *,
                      time: Optional[float] = None,
                      tenant: Optional[str] = None,
                      deadline: Optional[float] = None,
                      retry: bool = False) -> "asyncio.Future":
        """Enqueue one arrival without awaiting; returns its future.

        The future resolves to the rejection reason (``None`` =
        admitted), exactly :meth:`OnlineEngine.admit`'s contract.
        ``time`` is the arrival's event-time deadline (defaults to the
        newest deadline seen) — equal-deadline arrivals coalesce into
        one burst under a ``batch_policy``, and the admission guard's
        token buckets refill along this clock.  ``deadline`` is the
        event-time expiry (see :meth:`submit`); ``retry=True`` marks a
        resubmission of an already-submitted ``request_id``, answered
        from the decision log if the engine has decided it.  Raises
        ``asyncio.QueueFull`` when ``max_pending`` is hit.
        """
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        return self._enqueue_nowait(_Op(
            _ARRIVAL, when, loop.create_future(), request_id=request_id,
            request=request, dipath=dipath, tenant=tenant,
            deadline=deadline, retry=retry))

    async def submit(self, request_id: int,
                     request: Optional[Request] = None,
                     dipath: Optional[Dipath] = None, *,
                     time: Optional[float] = None,
                     tenant: Optional[str] = None,
                     deadline: Optional[float] = None,
                     timeout: Optional[float] = None,
                     retry: bool = False) -> Optional[str]:
        """Submit one arrival and await its decision.

        Returns ``None`` (admitted) or the rejection reason
        (:data:`~repro.online.simulator.NO_ROUTE` /
        :data:`~repro.online.simulator.NO_WAVELENGTH` /
        :data:`~repro.online.simulator.SHED`).  With ``max_pending``
        set, a full queue applies backpressure here instead of raising.

        ``deadline`` is an *event-time* expiry: if the service clock has
        passed it by the time the arrival is examined, the arrival is
        dropped before any routing or guard work and the future raises
        :class:`~repro.exceptions.Expired` (rejection reason
        ``"expired"`` in the result/metrics partition).

        ``timeout`` is a *wall-clock* cap on this caller's wait: when it
        elapses first, :class:`~repro.exceptions.TimedOut` is raised but
        the submission stays queued and is still decided exactly once —
        resubmit with ``retry=True`` to be answered from the decision
        log (see :class:`~repro.service.client.RetryingClient`).
        """
        if self._queue is None or self._stopped:
            raise ServiceError("service is not running (start() it, or "
                               "use 'async with RwaService(...)')")
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        op = _Op(_ARRIVAL, when, loop.create_future(),
                 request_id=request_id, request=request, dipath=dipath,
                 tenant=tenant, deadline=deadline, retry=retry)
        await self._queue.put(op)
        if timeout is None:
            return await op.future
        try:
            # shield: a timed-out wait must not cancel the op — the
            # engine still decides it exactly once
            return await asyncio.wait_for(asyncio.shield(op.future),
                                          timeout)
        except asyncio.TimeoutError:
            op.future.add_done_callback(_retrieve_quietly)
            raise TimedOut(request_id, timeout) from None

    def depart_nowait(self, request_id: int, *,
                      time: Optional[float] = None) -> "asyncio.Future":
        """Enqueue one departure; future resolves to ``held`` (bool)."""
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        return self._enqueue_nowait(_Op(
            _DEPART, when, loop.create_future(), request_id=request_id))

    async def depart(self, request_id: int, *,
                     time: Optional[float] = None) -> bool:
        """Release one lightpath and await the engine's acknowledgement."""
        future = self.depart_nowait(request_id, time=time)
        return await future

    async def request_defrag(self, order: str = "highest_wavelength",
                             max_moves: Optional[int] = None):
        """Queue a defragmentation pass; returns its ``DefragReport``.

        The pass runs in admission order like any other op, so it never
        interleaves with a burst.
        """
        loop = asyncio.get_running_loop()
        future = self._enqueue_nowait(_Op(
            _DEFRAG, self._last_time, loop.create_future(),
            order=order, max_moves=max_moves))
        return await future

    def cut_nowait(self, arc: Arc, *,
                   time: Optional[float] = None) -> "asyncio.Future":
        """Enqueue one fibre cut; its future resolves to the
        :class:`~repro.online.faults.FaultReport`.

        Runs in admission order like any other op: lightpaths on the
        fibre are torn down and (with ``restoration``) mass re-rerouted,
        and the accepted/blocked bookkeeping is reconciled exactly as
        :func:`simulate_online` does on a :data:`~repro.online.events.
        CUT` event.  At an equal timestamp the cut is ordered *before*
        coalesced arrivals (and after departures/repairs), per the
        events.py tie-break.
        """
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        return self._enqueue_nowait(_Op(_CUT, when, loop.create_future(),
                                        arc=arc))

    async def cut(self, arc: Arc, *,
                  time: Optional[float] = None) -> FaultReport:
        """Cut one fibre and await its :class:`FaultReport`."""
        return await self.cut_nowait(arc, time=time)

    def repair_nowait(self, arc: Arc, *,
                      time: Optional[float] = None) -> "asyncio.Future":
        """Enqueue one fibre repair; future resolves to its
        :class:`~repro.online.faults.FaultReport` (see
        :meth:`cut_nowait`)."""
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        return self._enqueue_nowait(_Op(_REPAIR, when, loop.create_future(),
                                        arc=arc))

    async def repair(self, arc: Arc, *,
                     time: Optional[float] = None) -> FaultReport:
        """Repair one cut fibre and await its :class:`FaultReport`."""
        return await self.repair_nowait(arc, time=time)

    def schedule_maintenance(
            self, arcs: Sequence[Arc], start: float, duration: float,
    ) -> Tuple[List["asyncio.Future"], List["asyncio.Future"]]:
        """Plan a maintenance window: cut every fibre in ``arcs`` at
        ``start``, repair it at ``start + duration``.

        The ops are *scheduled*, not queued: they sit outside the FIFO
        queue and are released into the stream when the service clock
        reaches them (each runs just before the first queued op whose
        ``(time, rank)`` is past it, or at :meth:`stop` if the stream
        ends first).  The cut edge of the window pre-emptively drains
        the fibre — every lightpath on it is torn down and the
        restoration plane immediately mass re-routes them elsewhere —
        so the fibre is empty for the whole window.  Decision-identical
        to replaying :func:`~repro.online.events.maintenance_events`
        through :func:`simulate_online` (the E21 maintenance gate).

        Returns ``(cut_futures, repair_futures)``, one per arc, each
        resolving to the op's :class:`FaultReport`.
        """
        if self._queue is None or self._stopped:
            raise ServiceError("service is not running (start() it, or "
                               "use 'async with RwaService(...)')")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not arcs:
            raise ValueError("arcs must be non-empty")
        loop = asyncio.get_running_loop()
        cut_futures: List[asyncio.Future] = []
        repair_futures: List[asyncio.Future] = []
        for arc in arcs:
            op = _Op(_CUT, float(start), loop.create_future(), arc=arc)
            self._schedule(op)
            cut_futures.append(op.future)
        for arc in arcs:
            op = _Op(_REPAIR, float(start) + float(duration),
                     loop.create_future(), arc=arc)
            self._schedule(op)
            repair_futures.append(op.future)
        return cut_futures, repair_futures

    def _schedule(self, op: _Op) -> None:
        # bisect.insort is stable for equal keys (inserts to the right),
        # so same-(time, rank) ops keep scheduling order
        op.scheduled = True
        bisect.insort(self._scheduled, op,
                      key=lambda o: (o.time, _op_rank(o)))

    def pending(self) -> int:
        """Operations queued but not yet decided."""
        return 0 if self._queue is None else self._queue.qsize()

    def take_unfinished(self) -> List[_Op]:
        """Collect every unresolved op after a consumer-task death.

        Only meaningful once the drain task has died (it raises
        :class:`ServiceError` while the consumer is alive): returns the
        batch the consumer was holding, everything still queued and any
        un-released scheduled maintenance ops (recognisable by their
        ``scheduled`` flag, so the supervisor re-plans instead of
        re-queueing them) — in original order, with already-decided ops
        (their futures resolved) filtered out.  The service is marked
        stopped; :class:`~repro.service.supervisor.ServiceSupervisor`
        resubmits these to the next incarnation.
        """
        if self._drain_task is not None and not self._drain_task.done():
            raise ServiceError("the consumer task is still alive; "
                               "take_unfinished() is a post-crash API")
        self._stopped = True
        ops = list(self._current_batch or [])
        self._current_batch = None
        if self._queue is not None:
            while True:
                try:
                    ops.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
        ops.extend(self._scheduled)
        self._scheduled = []
        return [op for op in ops
                if op.kind != _STOP and not op.future.done()]

    # ------------------------------------------------------------------ #
    # the drain task
    # ------------------------------------------------------------------ #
    async def _drain(self) -> None:
        queue = self._queue
        while True:
            op = await queue.get()
            ops = [op]
            while True:
                try:
                    ops.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            stop_at = next((i for i, o in enumerate(ops)
                            if o.kind == _STOP), None)
            work = ops if stop_at is None else ops[:stop_at]
            if work:
                # held visibly while processing: if _process raises (the
                # chaos crash hook), take_unfinished() finds the batch's
                # undecided remainder here
                self._current_batch = work
                if self._durable is None:
                    self._process(work)
                else:
                    self._commit(work)
                self._current_batch = None
            if stop_at is not None:
                # the stream is over: release any maintenance ops still
                # scheduled past the last submission, in planned order
                self._flush_scheduled()
                # ops raced in behind the sentinel lose: their futures
                # fail the same way a post-stop submit does
                for straggler in ops[stop_at + 1:]:
                    straggler.future.set_exception(
                        ServiceError("service stopped"))
                ops[stop_at].future.set_result(None)
                for _ in ops:
                    queue.task_done()
                return
            for _ in ops:
                queue.task_done()

    @staticmethod
    def _rank_runs(ops: List[_Op]) -> List[_Op]:
        """Stably reorder each run of equal-time ops by kind rank.

        The events.py tie-break (departure < repair < cut < arrival)
        applied to a drained batch: a no-op on a ``sort_events``-ordered
        trace, and the deterministic convention for live submissions
        whose same-timestamp ops raced into the queue in any order.
        Ops never move across distinct timestamps, so time-regression
        detection is untouched.
        """
        out: List[_Op] = []
        i = 0
        while i < len(ops):
            j = i + 1
            while j < len(ops) and ops[j].time == ops[i].time:
                j += 1
            run = ops[i:j]
            if len(run) > 1:
                run.sort(key=_op_rank)          # stable: FIFO within rank
            out.extend(run)
            i = j
        return out

    def _release_scheduled(self, up_to: _Op) -> None:
        """Run scheduled maintenance ops due before the next queued op."""
        key = (up_to.time, _op_rank(up_to))
        while self._scheduled and \
                (self._scheduled[0].time,
                 _op_rank(self._scheduled[0])) <= key:
            self._run_scheduled(self._scheduled.pop(0))

    def _flush_scheduled(self) -> None:
        while self._scheduled:
            self._run_scheduled(self._scheduled.pop(0))

    def _run_scheduled(self, op: _Op) -> None:
        # scheduled ops are released in (time, rank) order and never
        # ahead of the stream, so the clock only moves forward here
        self._last_time = max(self._last_time, op.time)
        if self._tracer is not None:
            self._tracer.advance(self._last_time)
        try:
            self._process_one(op)
        except Exception as exc:           # noqa: BLE001 - failure is per-op
            self._fail(op.future, exc)

    def _resolve(self, future: "asyncio.Future", result: Any) -> None:
        """Resolve a future now, or when the durable batch has synced."""
        if self._held is None:
            future.set_result(result)
        else:
            self._held.append((future, result, None))

    def _fail(self, future: "asyncio.Future", exc: BaseException) -> None:
        """Fail a future now, or when the durable batch has synced."""
        if self._held is None:
            if not future.done():
                future.set_exception(exc)
        else:
            self._held.append((future, None, exc))

    def _commit(self, ops: List[_Op]) -> None:
        """Decide a drained batch on the durable engine and acknowledge it
        only once its journal records are synced.

        The batch runs inside one :meth:`DurableEngine.group`, so its
        records leave in one write/flush/fsync, and every outcome is held
        until then: no client ever holds a decision the flushed journal
        lacks.  When the chaos hook stops the batch between two ops, the
        applied prefix is still synced and acknowledged before the crash
        propagates.  A failed sync acknowledges nothing and kills the
        drain task with a :class:`ServiceError`; the batch's records may
        be torn or missing, which :func:`~repro.online.persistence.
        recover` handles, so a supervisor restarts from the durable
        prefix.
        """
        durable = self._durable
        held = self._held = []
        with durable.group():
            try:
                self._process(ops)
            finally:
                self._held = None
                try:
                    durable.sync()
                except Exception as exc:   # noqa: BLE001 - any I/O failure
                    raise ServiceError("journal sync failed; the batch "
                                       "is not acknowledged") from exc
                for future, result, error in held:
                    if future.done():
                        continue
                    if error is None:
                        future.set_result(result)
                    else:
                        future.set_exception(error)

    def _process(self, ops: List[_Op]) -> None:
        """Decide a drained batch.  Synchronous on purpose: no await
        happens between the first and last decision, so reads issued
        from other coroutines always observe the engine between
        batches."""
        ops = self._rank_runs(ops)
        index = 0
        while index < len(ops):
            op = ops[index]
            group = [op]
            if self._batch_policy is not None and op.kind == _ARRIVAL:
                j = index + 1
                while j < len(ops) and ops[j].kind == _ARRIVAL and \
                        ops[j].time == op.time:
                    group.append(ops[j])
                    j += 1
            index += len(group)
            if self._crash_after is not None and \
                    self._ops_done >= self._crash_after:
                # chaos hook: die between ops, exactly at a journal
                # record boundary — the unapplied remainder of the batch
                # is what take_unfinished() hands the supervisor
                raise ServiceError(
                    f"injected crash after {self._ops_done} ops")
            if op.time < self._last_time:
                # a retry=True resubmission legitimately carries its
                # *original* time, which later traffic may have passed
                # while the first attempt's decision was in flight —
                # the idempotency contract answers it from the decision
                # log before the time-regression check can reject it
                for member in group:
                    if self._answer_retry(member):
                        continue
                    self._fail(member.future, SimulationError(
                        f"submissions are not time-ordered at request "
                        f"{member.request_id}"))
                continue
            self._release_scheduled(op)
            self._last_time = op.time
            if self._tracer is not None:
                self._tracer.advance(op.time)
            try:
                if len(group) > 1:
                    self._process_burst(group)
                else:
                    self._process_one(op)
            except Exception as exc:       # noqa: BLE001 - failure is per-op
                for member in group:
                    self._fail(member.future, exc)
            self._ops_done += len(group)

    def _reason_counter(self, reason: str):
        counter = self._m_reason.get(reason)
        if counter is None:
            # created lazily (EXPIRED): a deadline-free run's metrics
            # snapshot must stay byte-identical to simulate_online's,
            # which knows only the four standard reasons
            counter = self._registry.counter(f"result.blocked.{reason}")
            self._m_reason[reason] = counter
        return counter

    def _decide(self, op: _Op, reason: Optional[str]) -> None:
        """Record one arrival's final decision and resolve its future."""
        self._decision[op.request_id] = reason
        if reason is None:
            self._accepted.append(op.request_id)
            self._admitted_at[op.request_id] = op.time
            self._m_accepted.inc()
        else:
            self._blocked.append(op.request_id)
            self._rejections[op.request_id] = reason
            self._m_blocked.inc()
            self._reason_counter(reason).inc()
        self._latencies.append(_time.perf_counter() - op.submitted)
        self._resolve(op.future, reason)

    def _answer_retry(self, op: _Op) -> bool:
        """Answer a ``retry=True`` resubmission from the decision log.

        The idempotency half of the retry contract: an already-decided
        ``request_id`` is never decided again — no engine work, no guard
        tokens, no metric increments, just the recorded outcome (or the
        :class:`Expired` it raised the first time).
        """
        if not op.retry or op.request_id not in self._decision:
            return False
        reason = self._decision[op.request_id]
        if reason == EXPIRED:
            self._fail(op.future,
                       Expired(op.request_id, op.deadline, time=op.time))
        else:
            self._resolve(op.future, reason)
        return True

    def _expire(self, op: _Op) -> bool:
        """Drop an arrival whose event-time deadline has passed.

        Checked before the admission guard: an expired arrival consumes
        no guard tokens and triggers no routing work.  It is recorded as
        blocked with the :data:`EXPIRED` reason (its own metrics
        partition) and its future raises :class:`Expired`.
        """
        if op.deadline is None or op.time <= op.deadline:
            return False
        if self._tracer is not None:
            self._tracer.event("expired", rid=op.request_id)
        self._decision[op.request_id] = EXPIRED
        self._blocked.append(op.request_id)
        self._rejections[op.request_id] = EXPIRED
        self._m_blocked.inc()
        self._reason_counter(EXPIRED).inc()
        self._latencies.append(_time.perf_counter() - op.submitted)
        self._fail(op.future,
                   Expired(op.request_id, op.deadline, time=op.time))
        return True

    def _shed(self, op: _Op) -> bool:
        guard = self._guard
        if guard is None or guard.admits(op.time, self._arrival_cost,
                                         tenant=op.tenant):
            return False
        if self._tracer is not None:
            self._tracer.event("shed", rid=op.request_id)
        self._decide(op, SHED)
        return True

    def _process_one(self, op: _Op) -> None:
        if op.kind == _ARRIVAL:
            if self._answer_retry(op) or self._expire(op) or \
                    self._shed(op):
                return
            backend = self._durable or self._engine
            self._decide(op, backend.admit(op.request_id,
                                           request=op.request,
                                           dipath=op.dipath))
        elif op.kind == _DEPART:
            backend = self._durable or self._engine
            held = backend.depart(op.request_id)
            # a departed request must never be resurrected by a later
            # repair (the durable path already forgets inside depart;
            # FaultInjector.forget is idempotent)
            self._faults.forget(op.request_id)
            t0 = self._admitted_at.pop(op.request_id, None)
            if held and t0 is not None:
                self._holding.observe(op.time - t0)
            self._resolve(op.future, held)
        elif op.kind == _CUT or op.kind == _REPAIR:
            if op.arc is None:
                raise SimulationError(
                    f"fault op at time {op.time} carries no arc")
            report = (self._faults.cut(op.arc) if op.kind == _CUT
                      else self._faults.repair(op.arc))
            self._resolve(op.future, report)
        elif op.kind == _DEFRAG:
            backend = self._durable or self._engine
            self._resolve(op.future, backend.defrag(order=op.order,
                                                    max_moves=op.max_moves))
        else:                              # pragma: no cover - internal
            raise ServiceError(f"unknown op kind {op.kind!r}")

    def _process_burst(self, group: List[_Op]) -> None:
        kept = [op for op in group
                if not (self._answer_retry(op) or self._expire(op)
                        or self._shed(op))]
        if not kept:
            return
        events = [Event(time=op.time, kind=ARRIVAL,
                        request_id=op.request_id, request=op.request,
                        dipath=op.dipath) for op in kept]
        backend = self._durable or self._engine
        reasons = backend.admit_batch(events, policy=self._batch_policy)
        for op in kept:
            self._decide(op, reasons[op.request_id])

    # ------------------------------------------------------------------ #
    # reads (coherent snapshots, never queued)
    # ------------------------------------------------------------------ #
    def utilisation(self) -> Dict[str, float]:
        """Live capacity usage between batches."""
        engine = self._engine
        in_use = engine.assigner.colors_in_use()
        return {
            "active": float(engine.active),
            "wavelengths_in_use": float(in_use),
            "wavelengths_available": float(self._wavelengths),
            "utilisation": in_use / self._wavelengths,
            "max_fibre_load": float(engine.family.load()),
        }

    def shard_map(self) -> Dict[int, List[int]]:
        """Live conflict components (see :meth:`OnlineEngine.shard_map`)."""
        return self._engine.shard_map()

    def blocking_stats(self) -> Dict[str, Any]:
        """Decision totals so far, split by reason and by shed tenant."""
        accepted, blocked = len(self._accepted), len(self._blocked)
        total = accepted + blocked
        by_reason: Dict[str, int] = {}
        for reason in self._rejections.values():
            by_reason[reason] = by_reason.get(reason, 0) + 1
        return {
            "accepted": accepted,
            "blocked": blocked,
            "blocking_rate": blocked / total if total else 0.0,
            "by_reason": by_reason,
            "shed_by_tenant": (self._guard.tenant_shed_counts()
                               if self._guard is not None else {}),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Snapshot of the shared metrics registry."""
        return self._registry.snapshot()

    def trace_records(self) -> List[Dict[str, Any]]:
        """Records collected by the attached tracer (empty without one)."""
        return [] if self._tracer is None else self._tracer.records()

    def latency_stats(self) -> Dict[str, float]:
        """Wall-clock submit→decision latency over all decided arrivals.

        Wall-clock numbers live here and only here — they never enter
        the metrics registry, whose deterministic section must be a pure
        function of the trace.
        """
        ordered = sorted(self._latencies)
        count = len(ordered)
        return {
            "count": float(count),
            "mean_s": sum(ordered) / count if count else 0.0,
            "p50_s": _percentile(ordered, 0.50),
            "p99_s": _percentile(ordered, 0.99),
            "max_s": ordered[-1] if ordered else 0.0,
        }

    def result(self) -> OnlineResult:
        """The run so far as an :class:`OnlineResult`.

        Field-for-field comparable with a ``simulate_online`` run over
        the same trace (timeline excluded — the service records none).
        Settles the conflict shards first, exactly as the trace loop
        does before reading its component counters.
        """
        engine = self._engine
        result = OnlineResult(
            accepted=list(self._accepted), blocked=list(self._blocked),
            rejections=dict(self._rejections),
            wavelengths_available=self._wavelengths,
            routing=self._routing, policy=self._policy,
            speculative=self._speculative,
            batch_policy=self._batch_policy, sharded=engine.sharded)
        result.fibre_cuts = self._faults.cuts
        result.fibre_repairs = self._faults.repairs
        result.lightpaths_stranded = self._faults.stranded
        result.lightpaths_restored = self._faults.restored
        result.wavelengths_used = engine.assigner.colors_ever_used()
        result.kempe_repairs = engine.assigner.kempe_repairs
        result.defrag_passes = engine.defrag_passes
        result.defrag_moves = engine.defrag_moves
        result.wavelengths_reclaimed = engine.wavelengths_reclaimed
        engine.conflict.refresh_shards()
        result.component_merges = engine.conflict.component_merges
        result.component_splits = engine.conflict.component_splits
        result.shard_rebuilds = engine.conflict.shard_rebuilds
        registry = self._registry
        # settle the final-outcome counters exactly as the trace loop
        # does: fault reconciliation moves requests between the lists
        # retroactively, so the live increments can overcount
        registry.counter("result.accepted").set(len(self._accepted))
        registry.counter("result.blocked").set(len(self._blocked))
        for reason in self._m_reason:
            registry.counter(f"result.blocked.{reason}").set(
                sum(1 for r in self._rejections.values() if r == reason))
        registry.counter("result.kempe_repairs").set(result.kempe_repairs)
        registry.gauge("result.wavelengths_used").set(
            result.wavelengths_used)
        registry.gauge("result.active_at_end").set(engine.active)
        result.metrics = registry.snapshot()
        result.engine = engine
        return result


async def aserve_trace(graph: DiGraph, events: List[Event],
                       wavelengths: int,
                       tenant_of: Optional[Callable[[Event],
                                                    Optional[str]]] = None,
                       **service_kwargs) -> OnlineResult:
    """Replay an ordered trace through a fresh :class:`RwaService`.

    The whole trace is enqueued before the drain task runs a single op,
    so the service sees exactly the grouping ``simulate_online`` sees —
    this is the decision-identity harness the E19 and E21 gates run.
    Fault events are enqueued as first-class cut/repair ops (on a
    private graph copy, exactly as ``simulate_online`` runs them).
    ``tenant_of`` maps an event to the tenant name submitted with it
    (``None`` = default).
    """
    graph = fault_surface(graph, events)
    service = RwaService(graph, wavelengths, **service_kwargs)
    async with service:
        futures = []
        for event in events:
            if event.kind == ARRIVAL:
                tenant = tenant_of(event) if tenant_of is not None else None
                futures.append(service.submit_nowait(
                    event.request_id, request=event.request,
                    dipath=event.dipath, time=event.time, tenant=tenant))
            elif event.kind == DEPARTURE:
                futures.append(service.depart_nowait(event.request_id,
                                                     time=event.time))
            elif event.kind in (CUT, REPAIR):
                if event.arc is None:
                    raise SimulationError(
                        f"fault event at time {event.time} carries no arc")
                enqueue = (service.cut_nowait if event.kind == CUT
                           else service.repair_nowait)
                futures.append(enqueue(event.arc, time=event.time))
            else:
                raise SimulationError(
                    f"unknown event kind {event.kind!r}")
        # resolve every decision before tearing the service down; any
        # malformed-traffic exception surfaces here
        for future in futures:
            await future
        result = service.result()
    result.latency = service.latency_stats()
    return result


def serve_trace(graph: DiGraph, events: List[Event], wavelengths: int,
                **kwargs) -> OnlineResult:
    """Synchronous wrapper around :func:`aserve_trace` (private loop).

    Returns the service's :meth:`RwaService.result`, with the live
    engine attached as ``result.engine`` and the wall-clock latency
    summary as ``result.latency`` — compare decisions against
    :func:`simulate_online` and fingerprints via
    :func:`~repro.online.persistence.engine_fingerprint`.
    """
    return asyncio.run(aserve_trace(graph, events, wavelengths, **kwargs))
