"""RWA-as-a-service: an asyncio front-end over the online engine.

:class:`RwaService` owns one :class:`~repro.online.simulator.OnlineEngine`
(or, with a journal path, a
:class:`~repro.online.persistence.DurableEngine`) and funnels every state
transition through a single FIFO inbox drained by one consumer task,
which takes the whole inbox in one step.  That single-writer discipline
is what makes the service safe to share between coroutines without
locks, and it is also what makes it *auditable*: the decisions the
service makes are exactly the decisions
:func:`~repro.online.simulator.simulate_online` makes on the same ordered
trace — :func:`serve_trace` replays a trace through a service and the E19
gate asserts the engine fingerprints match bit for bit.

Three design points carry the identity contract:

* **Ordering.**  The inbox is FIFO and the event loop is single-threaded,
  so requests are decided in submission order — the submission order *is*
  the trace order.
* **Coalescing.**  The drain task takes everything queued at a scheduling
  point and, under a ``batch_policy``, admits consecutive equal-deadline
  arrivals as one atomic burst through ``admit_batch`` and tears down
  consecutive equal-time departures as one run through ``depart_batch``
  (one journal record on a durable service) — the same static grouping
  rule ``simulate_online`` applies to a pre-sorted trace.  A trace
  enqueued in one go (as :func:`serve_trace` does) therefore coalesces
  into the identical groups.  A departure run decides exactly what its
  departures would one by one.
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

Every op is decided by the same :class:`~repro.online.dispatch.Dispatcher`
the trace loop feeds: grouping, shedding, admission, departures, fibre
cuts and repairs (:meth:`RwaService.cut` / :meth:`RwaService.repair`
enqueue them as first-class ops), ``FIBRE_CUT`` accounting and the
``result.*`` metrics are one implementation, so :func:`serve_trace` and
:func:`simulate_online` agree by construction (the E19/E21 gates check
it end to end).  What stays here is the front door: the inbox, its
ordering, scheduled maintenance, time-regression / retry / deadline
checks, the chaos hook and the futures.  Within a drained batch, ops
sharing a timestamp are stably reordered by the events.py tie-break
(departure < repair < cut < arrival) — a no-op for
``sort_events``-ordered traces, and the deterministic convention for
live submissions racing a coalesced burst.
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
from ..online.dispatch import DEFRAG, Dispatcher
from ..online.events import (_KIND_RANK, ARRIVAL, CUT, DEPARTURE, REPAIR,
                             Event)
from ..online.faults import FaultReport, fault_surface
from ..online.persistence import DurableEngine, engine_fingerprint
from ..online.simulator import EngineConfig, OnlineEngine, OnlineResult

__all__ = ["EXPIRED", "RwaService", "serve_trace", "aserve_trace"]

#: Rejection reason for arrivals whose event-time deadline had passed
#: before processing — dropped pre-routing, partitioned like the other
#: reasons under ``result.blocked.expired``.
EXPIRED = "expired"

def _op_rank(op: "_Op") -> int:
    """Processing rank among ops sharing a timestamp: the trace order
    (departure < repair < cut < arrival), with defrag ranked as an
    arrival."""
    return _KIND_RANK.get(op.kind, _KIND_RANK[ARRIVAL])


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

    # the arrival fields come first, so the per-op submit and depart
    # paths build an _Op positionally
    def __init__(self, kind: str, time: float, future,
                 request_id: Optional[int] = None,
                 request: Optional[Request] = None,
                 dipath: Optional[Dipath] = None,
                 tenant: Optional[str] = None,
                 deadline: Optional[float] = None,
                 retry: bool = False,
                 order: str = "highest_wavelength",
                 max_moves: Optional[int] = None,
                 arc: Optional[Arc] = None) -> None:
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
        # rather than the FIFO inbox — the supervisor re-plans (rather
        # than re-queues) these across a crash-restart
        self.scheduled = False


_NOT_RUNNING = ("service is not running (start() it, or use "
                "'async with RwaService(...)')")


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

    Parameters:

    batch_policy:
        When set (one of
        :data:`~repro.online.transaction.BATCH_POLICIES`), consecutive
        queued arrivals sharing a deadline (``time``) are admitted as one
        atomic burst through ``admit_batch``, and consecutive queued
        departures sharing a ``time`` go through ``depart_batch``.
        ``None`` decides every op on its own.
    work_budget, burst, queue_depth, tenants:
        :class:`~repro.online.simulator.AdmissionGuard` configuration
        (any of them set turns the guard on); ``tenants``
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
        Bound on the ops waiting in the inbox (the drain task empties it
        whole each time it runs).  When it is full, the awaitable calls
        (:meth:`submit`, :meth:`depart`, :meth:`cut`, :meth:`repair`,
        :meth:`request_defrag`) apply backpressure: each awaits room,
        and waiters enqueue in the order they started waiting.  The
        ``*_nowait`` calls raise ``asyncio.QueueFull`` instead.  ``None``
        = unbounded.
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
    **knobs:
        The engine knobs of :class:`~repro.online.simulator.EngineConfig`.
    """

    def __init__(self, graph: DiGraph, wavelengths: int, *,
                 batch_policy: Optional[str] = None,
                 work_budget: Optional[float] = None,
                 burst: Optional[float] = None,
                 queue_depth: Optional[int] = None,
                 tenants: Optional[Dict[str, float]] = None,
                 journal_path: Optional[str] = None,
                 snapshot_every: Optional[int] = None,
                 fsync: bool = False,
                 max_pending: Optional[int] = None,
                 crash_after_n_ops: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 profile=None,
                 _durable: Optional[DurableEngine] = None,
                 **knobs) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if crash_after_n_ops is not None and crash_after_n_ops < 0:
            raise ValueError("crash_after_n_ops must be >= 0")
        config = EngineConfig(**knobs)
        if _durable is not None:
            # adopt an existing (typically recovered) durable engine —
            # the from_durable() path: its genesis record owns the engine
            # knobs and its journal the journal knobs, so ``knobs`` only
            # had to be valid
            journal_path = None
        elif journal_path is not None:
            if profile is not None:
                raise ValueError("profile is not supported on a durable "
                                 "service; attach it via tracer instead")
            _durable = DurableEngine(
                graph, journal_path, wavelengths,
                snapshot_every=snapshot_every, fsync=fsync,
                metrics=metrics, tracer=tracer, **knobs)
        self._durable = _durable
        if _durable is None:
            self._engine = config.build(graph, wavelengths, metrics=metrics,
                                        tracer=tracer, profile=profile)
        else:
            config, self._engine = _durable.config, _durable.engine
        try:
            self._dispatch = Dispatcher(
                self._engine, config, durable=_durable,
                batch_policy=batch_policy, work_budget=work_budget,
                burst=burst, queue_depth=queue_depth, tenants=tenants,
                screen=self._screen)
        except ValueError:
            if journal_path is not None:
                _durable.close()        # opened above: don't leak it
            raise
        self._registry = self._engine.metrics
        self._tracer = self._engine.tracer
        self._wavelengths = wavelengths
        self._bound = float("inf") if max_pending is None else max_pending
        # the FIFO inbox the drain task takes whole.  _filled wakes the
        # drain when an op lands in an empty inbox (or the service
        # stops); _room wakes the callers waiting for a full inbox to be
        # taken.  Events, so each waiter awaits its own future and
        # cancelling one waiter leaves the others waiting.
        self._inbox: List[_Op] = []
        self._filled = asyncio.Event()
        self._room = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped = False
        self._last_time = float("-inf")
        self._latencies: List[float] = []
        # every arrival's first outcome (None = admitted), kept forever:
        # the decision log that answers retry=True resubmissions without
        # a second engine decision.  A recovered engine's active
        # lightpaths were admitted by an earlier incarnation.
        self._decision: Dict[int, Optional[str]] = dict.fromkeys(
            self._engine.vertex_of)
        # planned (future-time) maintenance ops, kept sorted by
        # (time, rank) and released into the stream by _process
        self._scheduled: List[_Op] = []
        self._current_batch: Optional[List[_Op]] = None
        # outcomes of the durable batch being decided, settled once its
        # journal records are synced (None outside a durable batch)
        self._held: Optional[List[tuple]] = None
        self._crash_after = crash_after_n_ops
        self._ops_done = 0

    @classmethod
    def from_durable(cls, durable: DurableEngine,
                     **service_kwargs) -> "RwaService":
        """Wrap an existing (typically freshly recovered) durable engine.

        The engine configuration comes from the journal's genesis record
        (:attr:`DurableEngine.config`) and the observability hooks
        already live on the recovered engine, so only the service-level
        keywords (``batch_policy``, guard configuration, ``max_pending``,
        ``crash_after_n_ops``) take effect.  Engine knobs (which must
        still be valid names), ``metrics`` / ``tracer`` / ``profile``
        and the journal knobs are accepted and ignored: callers (the
        supervisor in particular) may hold one kwargs dict that
        configured the first incarnation and pass it here verbatim.
        """
        return cls(durable.engine.graph, durable.genesis["wavelengths"],
                   _durable=durable, **service_kwargs)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "RwaService":
        """Start the drain task."""
        if self._drain_task is not None or self._stopped:
            raise ServiceError("service already started")
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain())
        return self

    async def stop(self) -> None:
        """Drain every queued request, then stop the consumer.

        Idempotent.  Requests enqueued before ``stop`` are decided;
        later submissions raise :class:`~repro.exceptions.ServiceError`.
        A durable service's journal is closed (the engine stays usable
        in memory, e.g. for fingerprinting).

        A call still awaiting room when ``stop`` is called (see
        ``max_pending``) was not enqueued, and raises
        :class:`ServiceError` too.

        Stopping a *crashed* service (the consumer task died) raises
        :class:`ServiceError` immediately: there is no consumer left to
        drain the inbox — recover via :meth:`take_unfinished` or a
        :class:`~repro.service.supervisor.ServiceSupervisor` instead.
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
        self._filled.set()
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
    def _check_running(self) -> None:
        if self._drain_task is None or self._stopped:
            raise ServiceError(_NOT_RUNNING)

    def _enqueue_nowait(self, op: _Op) -> "asyncio.Future":
        # the check of _check_running, inline: this runs once per op
        if self._drain_task is None or self._stopped:
            raise ServiceError(_NOT_RUNNING)
        inbox = self._inbox
        if len(inbox) >= self._bound:
            raise asyncio.QueueFull
        inbox.append(op)
        if len(inbox) == 1:
            # the drain only ever waits on an empty inbox
            self._filled.set()
        return op.future

    async def _await_room(self) -> None:
        """Wait until the inbox has room for one more op.

        The backpressure of every awaitable call under ``max_pending``:
        the drain task sets ``_room`` when it takes the inbox, and the
        waiters wake in the order they started waiting.
        """
        self._check_running()
        while len(self._inbox) >= self._bound:
            self._room.clear()
            await self._room.wait()

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
            ARRIVAL, when, loop.create_future(), request_id, request, dipath,
            tenant, deadline, retry))

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
        set, a full inbox applies backpressure here instead of raising.

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
        self._check_running()
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        # built before any wait for room, as the latency clock starts here
        op = _Op(ARRIVAL, when, loop.create_future(), request_id, request,
                 dipath, tenant, deadline, retry)
        await self._await_room()
        future = self._enqueue_nowait(op)
        if timeout is None:
            return await future
        try:
            # shield: a timed-out wait must not cancel the op — the
            # engine still decides it exactly once
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            future.add_done_callback(_retrieve_quietly)
            raise TimedOut(request_id, timeout) from None

    def depart_nowait(self, request_id: int, *,
                      time: Optional[float] = None) -> "asyncio.Future":
        """Enqueue one departure; future resolves to ``held`` (bool)."""
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        return self._enqueue_nowait(_Op(
            DEPARTURE, when, loop.create_future(), request_id))

    async def depart(self, request_id: int, *,
                     time: Optional[float] = None) -> bool:
        """Release one lightpath and await the engine's acknowledgement."""
        await self._await_room()
        return await self.depart_nowait(request_id, time=time)

    async def request_defrag(self, order: str = "highest_wavelength",
                             max_moves: Optional[int] = None):
        """Queue a defragmentation pass; returns its ``DefragReport``.

        The pass runs in admission order like any other op, so it never
        interleaves with a burst.
        """
        await self._await_room()
        loop = asyncio.get_running_loop()
        return await self._enqueue_nowait(_Op(
            DEFRAG, self._last_time, loop.create_future(),
            order=order, max_moves=max_moves))

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
        return self._enqueue_nowait(_Op(CUT, when, loop.create_future(),
                                        arc=arc))

    async def cut(self, arc: Arc, *,
                  time: Optional[float] = None) -> FaultReport:
        """Cut one fibre and await its :class:`FaultReport`."""
        await self._await_room()
        return await self.cut_nowait(arc, time=time)

    def repair_nowait(self, arc: Arc, *,
                      time: Optional[float] = None) -> "asyncio.Future":
        """Enqueue one fibre repair; future resolves to its
        :class:`~repro.online.faults.FaultReport` (see
        :meth:`cut_nowait`)."""
        loop = asyncio.get_running_loop()
        when = time if time is not None else max(self._last_time, 0.0)
        return self._enqueue_nowait(_Op(REPAIR, when, loop.create_future(),
                                        arc=arc))

    async def repair(self, arc: Arc, *,
                     time: Optional[float] = None) -> FaultReport:
        """Repair one cut fibre and await its :class:`FaultReport`."""
        await self._await_room()
        return await self.repair_nowait(arc, time=time)

    def schedule_maintenance(
            self, arcs: Sequence[Arc], start: float, duration: float,
    ) -> Tuple[List["asyncio.Future"], List["asyncio.Future"]]:
        """Plan a maintenance window: cut every fibre in ``arcs`` at
        ``start``, repair it at ``start + duration``.

        The ops are *scheduled*, not queued: they sit outside the FIFO
        inbox and are released into the stream when the service clock
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
        self._check_running()
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not arcs:
            raise ValueError("arcs must be non-empty")
        loop = asyncio.get_running_loop()
        cut_futures: List[asyncio.Future] = []
        repair_futures: List[asyncio.Future] = []
        for arc in arcs:
            op = _Op(CUT, float(start), loop.create_future(), arc=arc)
            self._schedule(op)
            cut_futures.append(op.future)
        for arc in arcs:
            op = _Op(REPAIR, float(start) + float(duration),
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
        """Operations in the inbox, not yet taken by the drain task."""
        return len(self._inbox)

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
        ops.extend(self._inbox)
        self._inbox = []
        self._room.set()        # callers awaiting room are refused now
        ops.extend(self._scheduled)
        self._scheduled = []
        return [op for op in ops if not op.future.done()]

    # ------------------------------------------------------------------ #
    # the drain task
    # ------------------------------------------------------------------ #
    async def _take(self) -> List[_Op]:
        """Wait for the inbox to fill, then take it whole in one step.

        Returns ``[]`` only once the service is stopping and the inbox
        is empty.  Taking the inbox sets the room the awaitable calls
        wait for under ``max_pending``.
        """
        while not self._inbox and not self._stopped:
            self._filled.clear()
            await self._filled.wait()
        ops, self._inbox = self._inbox, []
        self._room.set()
        return ops

    async def _drain(self) -> None:
        try:
            while True:
                ops = await self._take()
                if not ops:
                    # the stream is over: release any maintenance ops
                    # still scheduled past the last submission, in
                    # planned order
                    self._flush_scheduled()
                    return
                # held visibly while processing: if _process raises (the
                # chaos crash hook), take_unfinished() finds the batch's
                # undecided remainder here
                self._current_batch = ops
                if self._durable is None:
                    self._process(ops)
                else:
                    self._commit(ops)
                self._current_batch = None
        finally:
            # wake callers still awaiting room: after a stop they are
            # refused, after a crash they re-check the inbox
            self._room.set()

    @staticmethod
    def _rank_runs(ops: List[_Op]) -> List[_Op]:
        """Stably reorder each run of equal-time ops by kind rank.

        The events.py tie-break (departure < repair < cut < arrival)
        applied to a drained batch: a no-op on a ``sort_events``-ordered
        trace, and the deterministic convention for live submissions
        whose same-timestamp ops raced into the inbox in any order.
        Ops never move across distinct timestamps, so time-regression
        detection is untouched.  A batch already in that order (the
        usual case) comes back as the same list after one scan.
        """
        rank_of, arrival = _KIND_RANK.get, _KIND_RANK[ARRIVAL]
        last_time, last_rank = None, 0
        for op in ops:
            rank = rank_of(op.kind, arrival)
            if rank < last_rank and op.time == last_time:
                break
            last_time, last_rank = op.time, rank
        else:
            return ops
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
        self._apply([op])

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
        for group in self._dispatch.groups(self._rank_runs(ops)):
            op = group[0]
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
            if self._scheduled:
                self._release_scheduled(op)
            self._last_time = op.time
            if self._tracer is not None:
                self._tracer.advance(op.time)
            self._apply(group)
            self._ops_done += len(group)

    def _apply(self, group: List[_Op]) -> None:
        """Dispatch one group and settle its futures; a failure fails
        only this group's futures."""
        try:
            decided = self._dispatch.dispatch(group)
        except Exception as exc:           # noqa: BLE001 - failure is per-op
            for member in group:
                self._fail(member.future, exc)
            return
        for op, outcome in decided:
            if op.kind == ARRIVAL:
                self._decision[op.request_id] = outcome
                self._latencies.append(_time.perf_counter() - op.submitted)
            self._resolve(op.future, outcome)

    def _screen(self, op: _Op) -> bool:
        """The dispatcher's front-door check on each arrival: answer a
        retry from the decision log, or drop an expired one."""
        return (op.retry and self._answer_retry(op)) or \
            (op.deadline is not None and self._expire(op))

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
        self._dispatch.record(op, EXPIRED)
        self._latencies.append(_time.perf_counter() - op.submitted)
        self._fail(op.future,
                   Expired(op.request_id, op.deadline, time=op.time))
        return True

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
        dispatch = self._dispatch
        accepted, blocked = len(dispatch.accepted), len(dispatch.blocked)
        total = accepted + blocked
        by_reason: Dict[str, int] = {}
        for reason in dispatch.rejections.values():
            by_reason[reason] = by_reason.get(reason, 0) + 1
        return {
            "accepted": accepted,
            "blocked": blocked,
            "blocking_rate": blocked / total if total else 0.0,
            "by_reason": by_reason,
            "shed_by_tenant": (dispatch.guard.tenant_shed_counts()
                               if dispatch.guard is not None else {}),
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
        """The run so far as an :class:`OnlineResult`, from the
        dispatcher both front-ends share: field-for-field comparable
        with a ``simulate_online`` run over the same trace (timeline
        excluded — the service records none)."""
        return self._dispatch.result()


async def aserve_trace(graph: DiGraph, events: List[Event],
                       wavelengths: int,
                       tenant_of: Optional[Callable[[Event],
                                                    Optional[str]]] = None,
                       **service_kwargs) -> OnlineResult:
    """Replay an ordered trace through a fresh :class:`RwaService`.

    The whole trace is enqueued before the drain task runs a single op,
    so the service sees exactly the grouping ``simulate_online`` sees —
    this is the decision-identity harness the E19 and E21 gates run.
    Every event becomes one queued op — fault events first-class
    cut/repair ops on a private graph copy, exactly as
    ``simulate_online`` runs them — and a malformed one fails its own
    future, raised here.
    ``tenant_of`` maps an event to the tenant name submitted with it
    (``None`` = default).
    """
    graph = fault_surface(graph, events)
    service = RwaService(graph, wavelengths, **service_kwargs)
    async with service:
        loop = asyncio.get_running_loop()
        futures = [service._enqueue_nowait(_Op(
            event.kind, event.time, loop.create_future(),
            request_id=event.request_id, request=event.request,
            dipath=event.dipath, arc=event.arc,
            tenant=(tenant_of(event) if tenant_of is not None
                    and event.kind == ARRIVAL else None)))
            for event in events]
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
