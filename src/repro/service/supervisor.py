"""Supervised crash-restart for the durable RWA service.

:class:`ServiceSupervisor` runs a journal-backed :class:`~repro.service.
RwaService` and watches its consumer task.  A healthy service never
needs it; the value is in the failure path:

1. **Detection.**  The supervisor awaits the drain task.  A clean return
   (:meth:`RwaService.stop`) ends supervision; an exception — in tests
   injected deterministically via the ``crash_after_n_ops`` hook, which
   dies *between* ops, i.e. at a journal record boundary, or a failed
   journal sync — triggers the restart protocol.
2. **Restart.**  The crashed incarnation's unresolved ops are collected
   (:meth:`RwaService.take_unfinished`: the batch the consumer held,
   everything still queued, un-released maintenance ops), its journal
   file handle is closed, and a fresh incarnation is built by
   :func:`~repro.online.persistence.recover` +
   :meth:`RwaService.from_durable` — the recovered engine is
   bit-identical to the pre-crash engine at its last synced batch,
   because an op's future resolves only once its batch's records are
   synced; the ops of a batch whose sync failed stay unresolved and
   are resubmitted.
3. **Re-resolution.**  The unresolved ops are resubmitted to the new
   incarnation in original order with ``retry=True``, and each original
   future is chained to its replacement — a caller that was awaiting
   across the crash transparently receives the decision the restarted
   engine makes (or its typed :class:`~repro.exceptions.Expired`).
   Because the crash falls between ops, no op is half-applied: the
   journal replays exactly the applied prefix and the resubmitted suffix
   continues it, so the final :func:`~repro.online.persistence.
   engine_fingerprint` **converges to the uncrashed run's** — the E21
   chaos gate fuzzes this over random crash offsets.
4. **Give-up.**  When ``max_restarts`` is exhausted, every unresolved
   future fails with a typed :class:`~repro.exceptions.ServiceError`
   instead of hanging forever.

What does *not* survive a crash: admission-guard token-bucket levels
(the guard is front-door policy, deliberately not journalled — a
restarted guard starts with full buckets) and wall-clock latency
samples.  Fingerprint convergence is therefore stated for guardless
services; with a guard, decisions after a restart may legitimately
differ from an uncrashed run's exactly as they would between two
services started at different times.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..exceptions import ServiceError, TimedOut
from ..graphs import DiGraph
from ..online.events import ARRIVAL
from ..online.persistence import recover
from .service import RwaService, _Op, _retrieve_quietly

__all__ = ["ServiceSupervisor"]


def _chain(source: "asyncio.Future", target: "asyncio.Future") -> None:
    """Forward one future's outcome to another (a pre-crash future a
    caller may still be awaiting)."""
    def _copy(done: "asyncio.Future") -> None:
        if target.done():
            return
        if done.cancelled():
            target.cancel()
        elif done.exception() is not None:
            target.set_exception(done.exception())
        else:
            target.set_result(done.result())
    source.add_done_callback(_copy)


class ServiceSupervisor:
    """Run a durable :class:`RwaService`, restarting it on consumer death.

    Parameters
    ----------
    graph, wavelengths:
        Passed to the first incarnation (later incarnations rebuild the
        topology from the journal's genesis record).
    journal_path:
        The journal every incarnation appends to — the durable thread of
        identity across crashes.
    max_restarts:
        Restart budget; once exhausted, unresolved futures fail with a
        typed :class:`ServiceError` instead of restarting again.
    crash_after_n_ops:
        Test-only chaos hook, applied to the **first** incarnation only
        (so one injected crash exercises exactly one restart).
    service_kwargs:
        Remaining :class:`RwaService` keywords — engine knobs for the
        first incarnation plus service-level knobs (``batch_policy``,
        guard configuration, ...) applied to every incarnation.
        Restarted incarnations read the engine knobs back from the
        journal's genesis record (:meth:`RwaService.from_durable`
        ignores the copies held here), so one kwargs dict safely
        configures every incarnation.
    """

    def __init__(self, graph: DiGraph, wavelengths: int, *,
                 journal_path: str, max_restarts: int = 3,
                 crash_after_n_ops: Optional[int] = None,
                 **service_kwargs) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self._graph = graph
        self._wavelengths = wavelengths
        self._journal_path = journal_path
        self._max_restarts = max_restarts
        self._crash_after = crash_after_n_ops
        self._kwargs = dict(service_kwargs)
        self._service: Optional[RwaService] = None
        self._watcher: Optional[asyncio.Task] = None
        self._restarts = 0
        self._failed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ServiceSupervisor":
        if self._service is not None:
            raise ServiceError("supervisor already started")
        service = RwaService(self._graph, self._wavelengths,
                             journal_path=self._journal_path,
                             crash_after_n_ops=self._crash_after,
                             **self._kwargs)
        await service.start()
        self._service = service
        self._watcher = asyncio.get_running_loop().create_task(
            self._watch())
        return self

    async def stop(self) -> None:
        """Stop supervision, then drain and stop the live incarnation."""
        if self._watcher is not None:
            self._watcher.cancel()
            try:
                await self._watcher
            except asyncio.CancelledError:
                pass
            self._watcher = None
        service = self._service
        if service is None:
            return
        task = service._drain_task
        if task is not None and task.done() and \
                task.exception() is not None:
            # crashed and past the restart budget: the journal is
            # already closed and every future already failed
            return
        await service.stop()

    async def __aenter__(self) -> "ServiceSupervisor":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def service(self) -> Optional[RwaService]:
        """The live incarnation (changes identity across restarts)."""
        return self._service

    @property
    def restarts(self) -> int:
        """Restarts performed so far."""
        return self._restarts

    @property
    def failed(self) -> bool:
        """Whether the restart budget was exhausted."""
        return self._failed

    # ------------------------------------------------------------------ #
    # submission proxies (route to the live incarnation)
    # ------------------------------------------------------------------ #
    def submit_nowait(self, request_id, request=None, dipath=None, *,
                      time=None, tenant=None, deadline=None,
                      retry=False) -> "asyncio.Future":
        """:meth:`RwaService.submit_nowait` on the live incarnation.

        The returned future survives a crash-restart: if this op was
        unresolved when the consumer died, the supervisor resubmits it
        and chains the replacement's outcome back into this future.
        """
        return self._service.submit_nowait(
            request_id, request=request, dipath=dipath, time=time,
            tenant=tenant, deadline=deadline, retry=retry)

    async def submit(self, request_id, request=None, dipath=None, *,
                     time=None, tenant=None, deadline=None,
                     timeout=None, retry=False):
        """:meth:`RwaService.submit` across crash-restarts."""
        future = self.submit_nowait(request_id, request=request,
                                    dipath=dipath, time=time,
                                    tenant=tenant, deadline=deadline,
                                    retry=retry)
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            future.add_done_callback(_retrieve_quietly)
            raise TimedOut(request_id, timeout) from None

    def depart_nowait(self, request_id, *, time=None) -> "asyncio.Future":
        return self._service.depart_nowait(request_id, time=time)

    async def depart(self, request_id, *, time=None) -> bool:
        return await self.depart_nowait(request_id, time=time)

    def cut_nowait(self, arc, *, time=None) -> "asyncio.Future":
        return self._service.cut_nowait(arc, time=time)

    def repair_nowait(self, arc, *, time=None) -> "asyncio.Future":
        return self._service.repair_nowait(arc, time=time)

    def schedule_maintenance(self, arcs, start, duration):
        return self._service.schedule_maintenance(arcs, start, duration)

    # ------------------------------------------------------------------ #
    # the watcher
    # ------------------------------------------------------------------ #
    async def _watch(self) -> None:
        while True:
            task = self._service._drain_task
            if task is None:                 # pragma: no cover - defensive
                return
            try:
                await asyncio.shield(task)
                return                       # clean stop
            except asyncio.CancelledError:
                if task.done() and task.exception() is not None:
                    pass                     # crash raced our cancellation
                else:
                    raise
            except Exception:                # noqa: BLE001 - any crash
                pass
            await self._restart()
            if self._failed:
                return

    async def _restart(self) -> None:
        crashed = self._service
        pending: list = []
        try:
            pending = crashed.take_unfinished()
            if crashed.durable is not None:
                crashed.durable.close()
            if self._restarts >= self._max_restarts:
                self._failed = True
                for op in pending:
                    op.future.set_exception(ServiceError(
                        f"service crashed and the restart budget "
                        f"({self._max_restarts}) is exhausted; "
                        f"op {op.kind!r} (request {op.request_id}) was "
                        f"not applied"))
                return
            self._restarts += 1
            durable = recover(self._journal_path,
                              metrics=self._kwargs.get("metrics"),
                              tracer=self._kwargs.get("tracer"))
            service = RwaService.from_durable(durable, **self._kwargs)
            await service.start()
            self._service = service
            # Resubmit in original order.  An op's future resolves once
            # its batch is synced, so synced ops are filtered out; the
            # ops of a batch whose sync failed are all still here.
            # retry=True answers any of them the recovered engine already
            # admitted, and matters when the same request_id appears
            # twice among the unresolved ops (an original plus a client
            # retry) — the new incarnation decides it once.
            for op in pending:
                self._resubmit(service, op)
        except Exception as exc:        # noqa: BLE001 - a failed restart
            # (unreadable journal, re-queue overflow, ...) must fail the
            # waiters typed instead of killing _watch with them hanging
            self._failed = True
            for op in pending:
                if not op.future.done():
                    op.future.set_exception(ServiceError(
                        f"restart failed ({exc!r}); op {op.kind!r} "
                        f"(request {op.request_id}) was not applied"))

    def _resubmit(self, service: RwaService, op: _Op) -> None:
        replacement = _Op(op.kind, op.time,
                          asyncio.get_running_loop().create_future(),
                          request_id=op.request_id, request=op.request,
                          dipath=op.dipath, tenant=op.tenant,
                          order=op.order, max_moves=op.max_moves,
                          arc=op.arc, deadline=op.deadline,
                          retry=op.kind == ARRIVAL)
        if op.scheduled:
            # an un-released maintenance op: re-plan it on the new
            # incarnation instead of queueing it — queueing would run
            # it immediately, dragging the service clock forward to the
            # window time and failing every earlier queued submission
            # on the time-regression check
            service._schedule(replacement)
        else:
            service._enqueue_nowait(replacement)
        _chain(replacement.future, op.future)
