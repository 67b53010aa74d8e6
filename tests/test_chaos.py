"""Chaos-hardening: crash-restart convergence, live faults, client resilience.

The PR-10 contracts pinned here:

* **Supervised crash-restart.**  A journal-backed service killed between
  ops (the deterministic ``crash_after_n_ops`` hook) is restarted by
  :class:`~repro.service.ServiceSupervisor` from its journal; in-flight
  futures are re-resolved by the new incarnation, and the final
  :func:`~repro.online.persistence.engine_fingerprint` **converges to
  the uncrashed supervised run's** — fuzzed over crash offsets.  The
  uncrashed supervised run itself makes decisions identical to
  :func:`~repro.online.simulator.simulate_online`; its fingerprint is
  compared durable-to-durable because a :class:`DurableEngine`
  canonicalizes adjacency-set iteration order from its genesis record
  (decision-neutral here, but a legitimate fingerprint component — see
  ``engine_fingerprint``'s docstring).
* **Maintenance windows.**  :meth:`RwaService.schedule_maintenance` is
  decision- and fingerprint-identical to replaying
  :func:`~repro.online.events.maintenance_events` through the simulator.
* **Equal-time ordering.**  Ops racing into the queue with one timestamp
  are processed in the events.py tie-break order (departure < repair <
  cut < arrival), so a scrambled live submission matches the
  ``sort_events`` oracle.
* **Client resilience.**  ``submit(timeout=)`` raises a typed
  :class:`~repro.exceptions.TimedOut` while the op is still decided
  exactly once; ``deadline=`` expiry raises :class:`~repro.exceptions.
  Expired` pre-routing under its own ``result.blocked.expired``
  partition; ``retry=True`` resubmissions are answered from the decision
  log; :class:`~repro.service.RetryingClient` drives the loop with a
  deterministic seeded backoff schedule.
"""

from __future__ import annotations

import asyncio
from dataclasses import fields

import pytest

from repro.analysis.recovery import _hot_arcs
from repro.dipaths.requests import Request
from repro.exceptions import (Expired, ServiceError, SimulationError,
                              TimedOut)
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.graphs.digraph import DiGraph
from repro.online.events import (ARRIVAL, CUT, DEPARTURE, REPAIR, Event,
                                 cut_event, maintenance_events, poisson_trace,
                                 repair_event, sort_events)
from repro.online.persistence import engine_fingerprint, recover
from repro.online.simulator import (NO_WAVELENGTH, EngineConfig,
                                    simulate_online)
from repro.service import (EXPIRED, RetryingClient, RwaService,
                           ServiceSupervisor)
from repro.service.service import _percentile

pytestmark = pytest.mark.chaos


# --------------------------------------------------------------------------- #
# workloads and drivers
# --------------------------------------------------------------------------- #
def _fault_workload(num_requests=40, seed=3, arrival_rate=5.0):
    """A Poisson trace with one genuinely-stranding cut and its repair."""
    graph = multi_region_topology(regions=2, region_size=10,
                                  arc_probability=0.22, coupling=2, seed=seed)
    pool = multi_region_traffic(graph, num_requests, inter_fraction=0.3,
                                seed=seed + 1)
    trace = poisson_trace(pool, num_requests, arrival_rate=arrival_rate,
                          mean_holding=2.0, seed=seed + 2)
    horizon = max(event.time for event in trace)
    hot = _hot_arcs(graph, pool.pairs(), 1)[0]
    events = sort_events(trace + [
        cut_event(0.4 * horizon, hot, fault_id=10 ** 6),
        repair_event(0.75 * horizon, hot, fault_id=10 ** 6)])
    return graph, events


def _enqueue_trace(target, events):
    """Enqueue a sorted trace through the nowait proxies, in order."""
    futures = []
    for event in events:
        if event.kind == ARRIVAL:
            futures.append(target.submit_nowait(
                event.request_id, request=event.request, time=event.time))
        elif event.kind == DEPARTURE:
            futures.append(target.depart_nowait(event.request_id,
                                                time=event.time))
        elif event.kind == CUT:
            futures.append(target.cut_nowait(event.arc, time=event.time))
        elif event.kind == REPAIR:
            futures.append(target.repair_nowait(event.arc, time=event.time))
    return futures


def _run_supervised(graph, events, wavelengths, journal_path, *,
                    crash_after=None, max_restarts=3):
    """One full supervised replay; returns (fingerprint, result, restarts)."""
    async def go():
        supervisor = ServiceSupervisor(graph.copy(), wavelengths,
                                       journal_path=str(journal_path),
                                       max_restarts=max_restarts,
                                       crash_after_n_ops=crash_after)
        async with supervisor:
            futures = _enqueue_trace(supervisor, events)
            for future in futures:
                await future
            fingerprint = engine_fingerprint(supervisor.service.engine)
            result = supervisor.service.result()
            return fingerprint, result, supervisor.restarts
    return asyncio.run(go())


def _decisions(result):
    return (result.accepted, result.blocked, result.rejections,
            result.wavelengths_used)


def _diamond() -> DiGraph:
    graph = DiGraph()
    for v in range(4):
        graph.add_vertex(v)
    graph.add_arcs([(0, 1), (1, 3), (0, 2), (2, 3)])
    return graph


# --------------------------------------------------------------------------- #
# supervised crash-restart
# --------------------------------------------------------------------------- #
def test_supervisor_converges_over_crash_offsets(tmp_path):
    """Crashed-and-restarted runs reach the uncrashed run's fingerprint."""
    graph, events = _fault_workload(num_requests=40)
    reference_fp, reference, restarts = _run_supervised(
        graph, events, 6, tmp_path / "uncrashed.jsonl")
    assert restarts == 0

    for offset in (1, 13, 37, 61):
        assert offset < len(events)
        fingerprint, _, restarts = _run_supervised(
            graph, events, 6, tmp_path / f"crash-{offset}.jsonl",
            crash_after=offset)
        assert restarts == 1
        assert fingerprint == reference_fp

    # the uncrashed supervised run decides exactly as the trace loop;
    # fingerprints are compared durable-to-durable above because the
    # durable engine canonicalizes adjacency iteration from genesis
    oracle = simulate_online(graph, events, 6, record_timeline=False)
    assert _decisions(reference) == _decisions(oracle)
    assert reference.fibre_cuts == oracle.fibre_cuts == 1
    assert reference.lightpaths_stranded == oracle.lightpaths_stranded
    assert reference.lightpaths_restored == oracle.lightpaths_restored


def test_supervisor_restart_budget_exhausted_fails_typed(tmp_path):
    """Past the budget, every unresolved future fails with ServiceError."""
    graph, events = _fault_workload(num_requests=20)

    async def go():
        supervisor = ServiceSupervisor(graph.copy(), 6,
                                       journal_path=str(tmp_path / "j.jsonl"),
                                       max_restarts=0, crash_after_n_ops=5)
        async with supervisor:
            futures = _enqueue_trace(supervisor, events)
            outcomes = await asyncio.gather(*futures,
                                            return_exceptions=True)
            return supervisor, outcomes

    supervisor, outcomes = asyncio.run(go())
    assert supervisor.failed
    assert supervisor.restarts == 0
    failed = [o for o in outcomes if isinstance(o, ServiceError)]
    assert failed and all("restart budget" in str(exc) and "not applied"
                          in str(exc) for exc in failed)
    # the ops applied before the crash were decided normally
    assert len(failed) < len(outcomes)


def test_supervisor_restart_with_engine_knobs(tmp_path):
    """Engine knobs passed to the supervisor survive a crash-restart.

    The supervisor hands one kwargs dict to every incarnation; on
    restart ``from_durable`` must ignore the engine-knob entries (the
    journal's genesis record is authoritative) instead of raising a
    duplicate-keyword TypeError that would kill the watcher with every
    in-flight future hanging.  The second input sets every
    ``EngineConfig`` field to a non-default value: each must survive
    genesis -> ``recover()`` -> ``from_durable`` -> restart.
    """
    graph, events = _fault_workload(num_requests=30)
    every_knob = dict(routing="k_shortest", policy="least_used",
                      kempe_repair=True, seed=7, k_candidates=3,
                      speculative=True, restoration=False,
                      restore_retries=1, restore_move_budget=5,
                      revert_on_repair=True, restore_order="longest_route")
    defaults = EngineConfig()
    assert sorted(every_knob) == sorted(f.name for f in fields(EngineConfig))
    assert all(value != getattr(defaults, name)
               for name, value in every_knob.items())

    async def go(path, crash_after, knobs):
        supervisor = ServiceSupervisor(graph.copy(), 6,
                                       journal_path=str(path),
                                       crash_after_n_ops=crash_after,
                                       **knobs)
        async with supervisor:
            futures = _enqueue_trace(supervisor, events)
            await asyncio.wait_for(asyncio.gather(*futures), timeout=60.0)
            return (engine_fingerprint(supervisor.service.engine),
                    supervisor.restarts, supervisor.service.durable.config)

    for name, knobs in (("some", dict(routing="shortest", policy="first_fit",
                                      seed=11, restoration=True,
                                      restore_retries=3)),
                        ("every", every_knob)):
        reference_fp, restarts, _ = asyncio.run(
            go(tmp_path / f"{name}-ref.jsonl", None, knobs))
        assert restarts == 0
        journal = tmp_path / f"{name}-crash.jsonl"
        fingerprint, restarts, config = asyncio.run(go(journal, 7, knobs))
        assert restarts == 1
        assert fingerprint == reference_fp
        assert config == EngineConfig(**knobs)
        recovered = recover(str(journal))
        recovered.close()
        assert recovered.config == config
        # without any knobs, from_durable still takes the genesis config
        bare = RwaService.from_durable(recovered).result()
        assert (bare.routing, bare.policy, bare.speculative) \
            == (config.routing, config.policy, config.speculative)


def test_fault_reconcile_moves_live_result_counters():
    """A cut moves the live ``result.*`` counters along with the
    decision containers, without waiting for ``result()``."""
    graph = DiGraph()
    graph.add_arc(0, 2)
    graph.add_arc(1, 0)
    graph.add_arc(2, 3)

    async def scenario():
        async with RwaService(graph, 4, restoration=False) as service:
            for rid, source in enumerate((0, 1, 0)):
                assert await service.submit(
                    rid, request=Request(source, 3), time=float(rid)) is None
            report = await service.cut((0, 2), time=5.0)
            return (report, service.blocking_stats(),
                    service.metrics_snapshot()["counters"])

    report, stats, counters = asyncio.run(scenario())
    assert report.stranded == [0, 1, 2]
    assert stats["accepted"] == 0 and stats["blocked"] == 3
    assert stats["by_reason"] == {"fibre_cut": 3}
    assert counters["result.accepted"] == 0
    assert counters["result.blocked"] == 3
    assert counters["result.blocked.fibre_cut"] == 3


def test_supervisor_restart_failure_fails_futures_typed(tmp_path,
                                                        monkeypatch):
    """A restart that itself fails (unreadable journal) resolves every
    pending future with a typed ServiceError instead of hanging them."""
    graph, events = _fault_workload(num_requests=20)

    def unreadable(*args, **kwargs):
        raise OSError("journal unreadable")

    monkeypatch.setattr("repro.service.supervisor.recover", unreadable)

    async def go():
        supervisor = ServiceSupervisor(graph.copy(), 6,
                                       journal_path=str(tmp_path / "j.jsonl"),
                                       max_restarts=3, crash_after_n_ops=5)
        async with supervisor:
            futures = _enqueue_trace(supervisor, events)
            outcomes = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True),
                timeout=30.0)
            return supervisor, outcomes

    supervisor, outcomes = asyncio.run(go())
    assert supervisor.failed
    failed = [o for o in outcomes if isinstance(o, ServiceError)]
    assert failed and all("restart failed" in str(exc) and "not applied"
                          in str(exc) for exc in failed)
    # the ops applied before the crash were decided normally
    assert len(failed) < len(outcomes)


# --------------------------------------------------------------------------- #
# maintenance windows and equal-time ordering
# --------------------------------------------------------------------------- #
def test_maintenance_window_matches_event_oracle():
    """schedule_maintenance == maintenance_events through the simulator."""
    graph = multi_region_topology(regions=2, region_size=10,
                                  arc_probability=0.22, coupling=2, seed=5)
    pool = multi_region_traffic(graph, 40, inter_fraction=0.3, seed=6)
    trace = poisson_trace(pool, 40, arrival_rate=5.0, mean_holding=2.0,
                          seed=7)
    horizon = max(event.time for event in trace)
    arcs = _hot_arcs(graph, pool.pairs(), 2)
    start, duration = 0.35 * horizon, 0.3 * horizon

    async def go():
        service = RwaService(graph.copy(), 6)
        async with service:
            cut_futs, repair_futs = service.schedule_maintenance(
                arcs, start, duration)
            futures = _enqueue_trace(service, trace)
            for future in futures:
                await future
            result = service.result()
        for future in cut_futs + repair_futs:
            assert future.done() and future.exception() is None
        return result

    served = asyncio.run(go())
    oracle = simulate_online(
        graph, sort_events(trace + maintenance_events(arcs, start, duration,
                                                      fault_id=10 ** 6)),
        6, record_timeline=False)
    assert _decisions(served) == _decisions(oracle)
    assert served.fibre_cuts == oracle.fibre_cuts == len(arcs)
    assert served.fibre_repairs == oracle.fibre_repairs == len(arcs)
    assert engine_fingerprint(served.engine) == \
        engine_fingerprint(oracle.engine)


def test_supervisor_replans_pending_maintenance(tmp_path):
    """Maintenance still pending at the crash is re-*planned*, not run.

    Un-released scheduled ops handed over by ``take_unfinished`` must
    re-enter the restarted incarnation's schedule (released when the
    stream reaches the window), not its queue — queueing would execute
    the window immediately, dragging the clock to the window time and
    failing all earlier traffic on the time-regression check.
    """
    graph = multi_region_topology(regions=2, region_size=10,
                                  arc_probability=0.22, coupling=2, seed=5)
    pool = multi_region_traffic(graph, 40, inter_fraction=0.3, seed=6)
    trace = poisson_trace(pool, 40, arrival_rate=5.0, mean_holding=2.0,
                          seed=7)
    horizon = max(event.time for event in trace)
    arcs = _hot_arcs(graph, pool.pairs(), 2)
    start, duration = 0.5 * horizon, 0.3 * horizon

    async def go(path, crash_after):
        supervisor = ServiceSupervisor(graph.copy(), 6,
                                       journal_path=str(path),
                                       crash_after_n_ops=crash_after)
        async with supervisor:
            cut_futs, repair_futs = supervisor.schedule_maintenance(
                arcs, start, duration)
            futures = _enqueue_trace(supervisor, trace)
            await asyncio.wait_for(asyncio.gather(*futures), timeout=60.0)
            reports = await asyncio.wait_for(
                asyncio.gather(*cut_futs, *repair_futs), timeout=60.0)
            assert all(report is not None for report in reports)
            fingerprint = engine_fingerprint(supervisor.service.engine)
            result = supervisor.service.result()
            return fingerprint, result, supervisor.restarts

    reference_fp, reference, restarts = asyncio.run(
        go(tmp_path / "uncrashed.jsonl", None))
    assert restarts == 0
    # crash well before the window opens, while it is still scheduled
    fingerprint, crashed, restarts = asyncio.run(
        go(tmp_path / "crashed.jsonl", 5))
    assert restarts == 1
    assert fingerprint == reference_fp
    assert _decisions(crashed) == _decisions(reference)
    assert crashed.fibre_cuts == reference.fibre_cuts == len(arcs)
    assert crashed.fibre_repairs == reference.fibre_repairs == len(arcs)


def test_maintenance_window_validation():
    async def go():
        async with RwaService(_diamond(), 2) as service:
            with pytest.raises(ValueError):
                service.schedule_maintenance([(0, 1)], 1.0, 0.0)
            with pytest.raises(ValueError):
                service.schedule_maintenance([], 1.0, 2.0)
    asyncio.run(go())


def test_equal_time_ops_reorder_by_rank():
    """Scrambled same-timestamp ops match the sort_events oracle.

    With one wavelength, request 1 at t=1.0 is admitted only if request
    0's departure at the same instant is processed first — the service
    must apply the departure < repair < cut < arrival tie-break to a
    batch that was enqueued arrival-first.
    """
    events = [Event(0.0, ARRIVAL, 0, request=Request(0, 3)),
              Event(1.0, ARRIVAL, 1, request=Request(0, 3)),
              Event(1.0, DEPARTURE, 0)]
    oracle = simulate_online(_diamond(), sort_events(events), 1,
                             routing="shortest", record_timeline=False)
    assert oracle.accepted == [0, 1]        # the reorder genuinely matters

    async def go(scrambled):
        async with RwaService(_diamond(), 1, routing="shortest") as service:
            futures = _enqueue_trace(service, scrambled)
            for future in futures:
                await future
            return service.result()

    served = asyncio.run(go(events))        # arrival 1 enqueued before depart
    assert _decisions(served) == _decisions(oracle)
    assert engine_fingerprint(served.engine) == \
        engine_fingerprint(oracle.engine)


def test_equal_time_cut_precedes_arrival():
    """A cut racing a same-instant arrival is applied first."""
    events = [Event(0.0, ARRIVAL, 0, request=Request(0, 3)),
              Event(1.0, ARRIVAL, 1, request=Request(0, 3)),
              Event(1.0, CUT, 10 ** 6, arc=(0, 1))]
    oracle = simulate_online(_diamond(), sort_events(events), 2,
                             routing="shortest", record_timeline=False)

    async def go():
        service = RwaService(_diamond().copy(), 2, routing="shortest")
        async with service:
            futures = _enqueue_trace(service, events)  # arrival-first order
            for future in futures:
                await future
            return service.result()

    served = asyncio.run(go())
    assert _decisions(served) == _decisions(oracle)
    assert engine_fingerprint(served.engine) == \
        engine_fingerprint(oracle.engine)


# --------------------------------------------------------------------------- #
# timeouts, deadlines, retries
# --------------------------------------------------------------------------- #
def _gated_service(service):
    """Hold the drain task back from the inbox until the returned gate is
    set (call it after ``start()``, before the loop runs the drain)."""
    gate = asyncio.Event()
    take = service._take

    async def gated_take():
        await gate.wait()
        return await take()

    service._take = gated_take
    return gate


def test_submit_timeout_is_typed_and_decided_once():
    async def go():
        service = RwaService(_diamond(), 2)
        await service.start()
        gate = _gated_service(service)
        with pytest.raises(TimedOut) as excinfo:
            await service.submit(0, request=Request(0, 3), time=0.0,
                                 timeout=0.01)
        assert excinfo.value.request_id == 0
        assert isinstance(excinfo.value, TimeoutError)   # asyncio-compatible
        assert isinstance(excinfo.value, ServiceError)
        gate.set()
        # the original op is still queued and decided exactly once; the
        # retry is answered from the decision log
        decision = await service.submit(0, request=Request(0, 3), time=0.0,
                                        retry=True)
        assert decision is None
        result = service.result()
        await service.stop()
        return result

    result = asyncio.run(go())
    assert result.accepted == [0]
    assert result.metrics["counters"]["result.accepted"] == 1


def test_deadline_expiry_is_typed_and_partitioned():
    async def go():
        async with RwaService(_diamond(), 2) as service:
            assert await service.submit(0, request=Request(0, 3),
                                        time=0.0) is None
            with pytest.raises(Expired) as excinfo:
                await service.submit(1, request=Request(0, 3), time=5.0,
                                     deadline=1.0)
            assert excinfo.value.request_id == 1
            assert excinfo.value.deadline == 1.0
            assert excinfo.value.time == 5.0
            # expired retries are answered from the log, typed again
            with pytest.raises(Expired):
                await service.submit(1, request=Request(0, 3), time=5.0,
                                     deadline=1.0, retry=True)
            return service.result(), service.engine.active
    result, active = asyncio.run(go())
    assert result.rejections == {1: EXPIRED}
    assert result.blocked == [1]
    assert active == 1                       # the engine never saw request 1
    counters = result.metrics["counters"]
    assert counters["result.blocked.expired"] == 1
    assert counters["result.blocked"] == 1


def test_retry_answered_after_clock_advance():
    """A retry carrying its original time beats the regression check.

    ``retry=True`` resubmissions legitimately arrive after later
    traffic advanced the service clock past their original ``time`` —
    they must be answered from the decision log, not rejected by the
    time-regression check the first fresh submission would hit.
    """
    async def go():
        async with RwaService(_diamond(), 2) as service:
            assert await service.submit(0, request=Request(0, 3),
                                        time=0.0) is None
            with pytest.raises(Expired):
                await service.submit(1, request=Request(0, 3), time=2.0,
                                     deadline=1.0)
            assert await service.submit(2, request=Request(0, 3),
                                        time=5.0) is None
            # the clock sits at 5.0; both retries carry their old times
            assert await service.submit(0, request=Request(0, 3),
                                        time=0.0, retry=True) is None
            with pytest.raises(Expired):
                await service.submit(1, request=Request(0, 3), time=2.0,
                                     deadline=1.0, retry=True)
            # a *fresh* out-of-order submission still fails typed
            with pytest.raises(SimulationError):
                await service.submit(3, request=Request(0, 3), time=1.0)
            return service.result()
    result = asyncio.run(go())
    assert result.accepted == [0, 2]
    assert result.rejections == {1: EXPIRED}
    assert result.metrics["counters"]["result.accepted"] == 2


def test_stop_after_crash_fails_fast():
    """stop() on a crashed service raises typed instead of hanging.

    With ``max_pending`` set and the queue refilled after the consumer
    died, the old stop() blocked forever putting its sentinel; without
    a bound it re-raised the raw crash.  Either way the API now fails
    fast and leaves the leftovers recoverable via take_unfinished().
    """
    async def go():
        service = RwaService(_diamond(), 2, max_pending=1,
                             crash_after_n_ops=0)
        await service.start()
        service.submit_nowait(0, request=Request(0, 3), time=0.0)
        while not service._drain_task.done():
            await asyncio.sleep(0)
        # refill the bounded queue: a sentinel put would block forever
        service.submit_nowait(1, request=Request(0, 3), time=0.0)
        with pytest.raises(ServiceError) as excinfo:
            await asyncio.wait_for(service.stop(), timeout=5.0)
        assert "crashed" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ServiceError)
        leftovers = service.take_unfinished()
        assert {op.request_id for op in leftovers} == {0, 1}
    asyncio.run(go())


def test_expired_counter_is_lazy_for_snapshot_identity():
    """A deadline-free run's metrics know nothing of the expired reason."""
    graph, events = _fault_workload(num_requests=20)
    from repro.service import serve_trace
    served = serve_trace(graph, events, 6)
    reference = simulate_online(graph, events, 6, record_timeline=False)
    assert "result.blocked.expired" not in served.metrics["counters"]
    assert served.metrics == reference.metrics


def test_retrying_client_backoff_schedule_is_deterministic():
    a = RetryingClient(object(), seed=99, base_delay=0.01, max_delay=0.25)
    b = RetryingClient(object(), seed=99, base_delay=0.01, max_delay=0.25)
    schedule_a = [a.backoff_delay(i) for i in range(8)]
    schedule_b = [b.backoff_delay(i) for i in range(8)]
    assert schedule_a == schedule_b
    for index, delay in enumerate(schedule_a):
        cap = min(0.25, 0.01 * 2 ** index)
        assert 0.5 * cap <= delay < cap
    other = RetryingClient(object(), seed=100, base_delay=0.01,
                           max_delay=0.25)
    assert [other.backoff_delay(i) for i in range(8)] != schedule_a


def test_retrying_client_validation():
    with pytest.raises(ValueError):
        RetryingClient(object(), timeout=0.0)
    with pytest.raises(ValueError):
        RetryingClient(object(), max_attempts=0)
    with pytest.raises(ValueError):
        RetryingClient(object(), base_delay=0.2, max_delay=0.1)


def test_retrying_client_retries_until_decided():
    async def go():
        service = RwaService(_diamond(), 2)
        await service.start()
        gate = _gated_service(service)
        client = RetryingClient(service, timeout=0.02, max_attempts=4,
                                base_delay=0.001, max_delay=0.005, seed=7)
        task = asyncio.get_running_loop().create_task(
            client.submit(0, request=Request(0, 3), time=0.0))
        while client.timeouts < 1:
            await asyncio.sleep(0.001)
        gate.set()
        decision = await task
        result = service.result()
        await service.stop()
        return client, decision, result

    client, decision, result = asyncio.run(go())
    assert decision is None
    assert client.timeouts >= 1
    assert client.attempts == client.timeouts + 1
    assert client.retries == client.attempts - 1
    # N racing attempts cost exactly one engine decision
    assert result.accepted == [0]
    assert result.metrics["counters"]["result.accepted"] == 1


def test_retrying_client_exhausts_and_reraises():
    async def go():
        service = RwaService(_diamond(), 2)
        await service.start()
        gate = _gated_service(service)       # stays shut through every attempt
        client = RetryingClient(service, timeout=0.005, max_attempts=2,
                                base_delay=0.001, max_delay=0.002, seed=1)
        with pytest.raises(TimedOut):
            await client.submit(0, request=Request(0, 3), time=0.0)
        assert client.attempts == 2
        assert client.timeouts == 2
        gate.set()                           # let stop() drain the leftovers
        await service.stop()
        return service.result()

    result = asyncio.run(go())
    # both abandoned attempts resolved to one engine decision
    assert result.accepted == [0]
    assert result.metrics["counters"]["result.accepted"] == 1


# --------------------------------------------------------------------------- #
# latency statistics edge cases (satellite: _percentile hardening)
# --------------------------------------------------------------------------- #
def test_percentile_edge_cases():
    assert _percentile([], 0.0) == 0.0
    assert _percentile([], 0.5) == 0.0
    assert _percentile([], 1.0) == 0.0
    assert _percentile([4.2], 0.0) == 4.2    # a single sample is every
    assert _percentile([4.2], 0.5) == 4.2    # percentile of itself
    assert _percentile([4.2], 0.99) == 4.2
    assert _percentile([4.2], 1.0) == 4.2
    assert _percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0     # minimum
    assert _percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0     # maximum
    assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        _percentile([1.0], -0.01)
    with pytest.raises(ValueError):
        _percentile([1.0], 1.01)


def test_latency_stats_zero_and_single_sample():
    service = RwaService(_diamond(), 2)
    stats = service.latency_stats()
    assert stats == {"count": 0.0, "mean_s": 0.0, "p50_s": 0.0,
                     "p99_s": 0.0, "max_s": 0.0}
    service._latencies.append(0.25)
    stats = service.latency_stats()
    assert stats["count"] == 1.0
    assert stats["mean_s"] == stats["p50_s"] == stats["p99_s"] == \
        stats["max_s"] == 0.25
