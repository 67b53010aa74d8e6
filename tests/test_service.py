"""RWA service: trace-loop identity, tenant quotas, lifecycle, reads.

The headline contracts (marker ``service``):

* :class:`repro.service.RwaService` makes **bit-identical** decisions to
  :func:`repro.online.simulator.simulate_online` on the same ordered
  trace, fingerprints included (:func:`repro.service.serve_trace` is the
  replay harness);
* per-tenant quotas are starvation-free — a flooding tenant exhausts
  only its own weighted-fair share and the per-tenant shed counters
  partition the ``guard.shed`` total exactly;
* a durable service's journal recovers to the exact live engine, and
  it group-commits: one sync per drained batch, every acknowledged
  decision already in the flushed journal, the same bytes an op-by-op
  :class:`~repro.online.persistence.DurableEngine` writes;
* reads issued against a backlogged service observe coherent
  between-batch snapshots and never stall admission.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import pytest

from repro.analysis.bench_service import flash_crowd_trace
from repro.dipaths.requests import Request
from repro.dipaths.dipath import Dipath
from repro.exceptions import (
    RecoveryError,
    ServiceError,
    SimulationError,
    VertexNotFoundError,
)
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.graphs.digraph import DiGraph
from repro.online.dispatch import DEFRAG
from repro.online.events import (ARRIVAL, CUT, DEPARTURE, Event, cut_event,
                                 poisson_trace, repair_event, sort_events)
from repro.online.persistence import (
    DurableEngine,
    engine_fingerprint,
    read_journal,
    recover,
)
from repro.online.simulator import (
    DEFAULT_TENANT,
    NO_ROUTE,
    SHED,
    AdmissionGuard,
    simulate_online,
)
from repro.service import RwaService, ServiceSupervisor, serve_trace
from repro.service.service import _Op

from test_chaos import _gated_service

pytestmark = pytest.mark.service


def _workload(num_requests=140, seed_topo=7, seed_traffic=8, seed_trace=9,
              arrival_rate=6.0):
    graph = multi_region_topology(regions=2, region_size=14,
                                  arc_probability=0.2, coupling=2,
                                  seed=seed_topo)
    pool = multi_region_traffic(graph, num_requests, inter_fraction=0.2,
                                seed=seed_traffic)
    trace = poisson_trace(pool, num_requests, arrival_rate=arrival_rate,
                          mean_holding=2.0, seed=seed_trace)
    return graph, pool, trace


def _decisions(result):
    return (result.accepted, result.blocked, result.rejections)


def _line_graph():
    graph = DiGraph()
    for v in range(4):
        graph.add_vertex(v)
    for v in range(3):
        graph.add_arc(v, v + 1)
    return graph


# --------------------------------------------------------------------------- #
# decision identity with the trace loop
# --------------------------------------------------------------------------- #
class TestTraceLoopIdentity:
    @pytest.mark.parametrize("svc_kwargs,sim_kwargs", [
        ({}, {}),
        ({"batch_policy": "best_prefix"}, {"batch_policy": "best_prefix"}),
        ({"batch_policy": "greedy", "work_budget": 4.0, "queue_depth": 6},
         {"batch_policy": "greedy", "shed_work_budget": 4.0,
          "shed_queue_depth": 6}),
        # the retired ``sharded=True`` spelling, accepted by both
        ({"sharded": True}, {"sharded": True}),
        ({"routing": "k_shortest", "speculative": True, "work_budget": 9.0},
         {"routing": "k_shortest", "speculative": True,
          "shed_work_budget": 9.0}),
    ])
    def test_decisions_and_fingerprint_match(self, svc_kwargs, sim_kwargs):
        graph, _, trace = _workload()
        reference = simulate_online(graph, trace, 8, record_timeline=False,
                                    **sim_kwargs)
        served = serve_trace(graph, trace, 8, **svc_kwargs)
        assert _decisions(served) == _decisions(reference)
        assert engine_fingerprint(served.engine) \
            == engine_fingerprint(reference.engine)

    def test_result_fields_match_trace_loop(self):
        graph, _, trace = _workload()
        reference = simulate_online(graph, trace, 6, record_timeline=False,
                                    batch_policy="all_or_nothing")
        served = serve_trace(graph, trace, 6,
                             batch_policy="all_or_nothing")
        for field in ("wavelengths_used", "kempe_repairs", "defrag_passes",
                      "component_merges", "component_splits",
                      "shard_rebuilds", "batch_policy", "policy",
                      "routing"):
            assert getattr(served, field) == getattr(reference, field), field

    def test_deterministic_metrics_match_trace_loop(self):
        graph, _, trace = _workload()
        reference = simulate_online(graph, trace, 8, record_timeline=False,
                                    batch_policy="best_prefix")
        served = serve_trace(graph, trace, 8, batch_policy="best_prefix")
        canonical = [json.dumps({k: v for k, v in r.metrics.items()
                                 if k != "diagnostics"}, sort_keys=True)
                     for r in (served, reference)]
        assert canonical[0] == canonical[1]

    def test_serve_trace_latency_summary(self):
        graph, _, trace = _workload(num_requests=40)
        served = serve_trace(graph, trace, 8)
        arrivals = sum(1 for e in trace if e.kind == ARRIVAL)
        assert served.latency["count"] == float(arrivals)
        assert 0.0 <= served.latency["p50_s"] <= served.latency["p99_s"] \
            <= served.latency["max_s"]

    def test_serve_trace_accepts_fault_events(self):
        """A fault-bearing trace replays through the service loop and
        stays decision-identical to the simulator oracle (the E21
        contract; the chaos suite fuzzes it harder)."""
        graph, _, trace = _workload(num_requests=60)
        arc = next(iter(graph.arcs()))
        horizon = max(e.time for e in trace)
        trace = sort_events(trace +
                            [cut_event(0.4 * horizon, arc, fault_id=10_000),
                             repair_event(0.7 * horizon, arc,
                                          fault_id=10_000)])
        reference = simulate_online(graph, trace, 8, record_timeline=False)
        served = serve_trace(graph, trace, 8)
        assert served.fibre_cuts == reference.fibre_cuts == 1
        assert served.fibre_repairs == reference.fibre_repairs == 1
        assert served.lightpaths_stranded == reference.lightpaths_stranded
        assert served.lightpaths_restored == reference.lightpaths_restored
        for field in ("accepted", "blocked", "rejections",
                      "wavelengths_used"):
            assert getattr(served, field) == getattr(reference, field), field
        assert engine_fingerprint(served.engine) == \
            engine_fingerprint(reference.engine)


# --------------------------------------------------------------------------- #
# per-tenant quotas: starvation-freedom and shed accounting
# --------------------------------------------------------------------------- #
class TestTenantQuotas:
    def _run_flood_vs_quiet(self, bursts=30, flood_per_burst=12):
        """One quiet arrival rides every flood burst; returns outcomes."""
        graph, pool, _ = _workload()
        pairs = pool.pairs()

        async def scenario():
            service = RwaService(graph, 8, work_budget=6.0, burst=12.0,
                                 tenants={"flood": 1.0, "quiet": 1.0})
            reasons = {"flood": [], "quiet": []}
            async with service:
                rid = 0
                for tick in range(bursts):
                    for _ in range(flood_per_burst):
                        s, t = pairs[rid % len(pairs)]
                        reasons["flood"].append(await service.submit(
                            rid, request=Request(s, t), time=float(tick),
                            tenant="flood"))
                        rid += 1
                    s, t = pairs[rid % len(pairs)]
                    reasons["quiet"].append(await service.submit(
                        rid, request=Request(s, t), time=float(tick),
                        tenant="quiet"))
                    rid += 1
                return reasons, service.blocking_stats(), \
                    service.metrics_snapshot()

        return asyncio.run(scenario())

    def test_flooding_tenant_cannot_starve_quiet_one(self):
        reasons, stats, _ = self._run_flood_vs_quiet()
        flood_shed = sum(1 for r in reasons["flood"] if r == SHED)
        quiet_shed = sum(1 for r in reasons["quiet"] if r == SHED)
        # the flood runs far past its fair share and pays for it ...
        assert flood_shed > 0
        # ... while the quiet tenant, arriving under its own share,
        # is never shed — the flood cannot reach its bucket
        assert quiet_shed == 0

    def test_tenant_shed_counters_partition_the_total(self):
        reasons, stats, snapshot = self._run_flood_vs_quiet()
        shed_total = snapshot["counters"]["guard.shed"]
        by_tenant = stats["shed_by_tenant"]
        assert sum(by_tenant.values()) == shed_total
        assert by_tenant["flood"] == sum(1 for r in reasons["flood"]
                                         if r == SHED)
        diag = snapshot["diagnostics"]["counters"]
        assert diag["guard.tenant.flood.shed"] == by_tenant["flood"]
        assert "guard.tenant.quiet.shed" not in diag   # lazily created

    def test_guard_single_bucket_mode_unchanged(self):
        """Without tenants= the guard is the old global token bucket."""
        legacy = AdmissionGuard(work_budget=2.0, burst=4.0)
        outcomes = [legacy.admits(0.0) for _ in range(6)]
        assert outcomes == [True] * 4 + [False] * 2
        assert legacy.shed_count == 2
        assert legacy.tenants() == [DEFAULT_TENANT]
        assert legacy.tenant_shed_counts() == {DEFAULT_TENANT: 2}

    def test_guard_undeclared_tenant_draws_from_default_bucket(self):
        guard = AdmissionGuard(work_budget=3.0, burst=3.0,
                               tenants={"a": 2.0})
        # weights: a=2, default=1 -> default bucket holds burst 3/3 = 1
        assert guard.admits(0.0, tenant="mystery") is True
        assert guard.admits(0.0, tenant="mystery") is False
        # the shed is accounted to the *named* tenant, not "default"
        assert guard.tenant_shed_counts() == {"mystery": 1}
        assert guard.tokens_available("a") == 2.0   # untouched

    def test_guard_weight_validation(self):
        with pytest.raises(ValueError, match="positive weight"):
            AdmissionGuard(work_budget=1.0, tenants={"bad": 0.0})

    def test_guard_queue_depth_is_per_tenant(self):
        guard = AdmissionGuard(queue_depth=1,
                               tenants={"a": 1.0, "b": 1.0})
        assert guard.admits(0.0, tenant="a") is True
        assert guard.admits(0.0, tenant="b") is True   # b's own depth
        assert guard.admits(0.0, tenant="a") is False  # a's second


# --------------------------------------------------------------------------- #
# durable service
# --------------------------------------------------------------------------- #
class TestDurableService:
    def test_journal_recovers_to_live_fingerprint(self, tmp_path):
        graph, _, trace = _workload(num_requests=100)
        path = tmp_path / "service.jsonl"
        served = serve_trace(graph, trace, 8, journal_path=str(path),
                             snapshot_every=32, batch_policy="best_prefix")
        recovered = recover(str(path))
        assert recovered.fingerprint() == engine_fingerprint(served.engine)
        recovered.close()

    def test_shed_arrivals_are_not_journalled(self, tmp_path):
        """Quota refusal is front-door policy, not engine state."""
        graph, _, trace = _workload()
        path = tmp_path / "guarded.jsonl"
        served = serve_trace(graph, trace, 8, journal_path=str(path),
                             work_budget=3.0, queue_depth=4)
        shed = set(served.blocked_shed)
        assert shed    # the guard fired
        journalled = {record["rid"] for record in read_journal(str(path))
                      if record.get("type") == "admit"}
        assert journalled.isdisjoint(shed)
        # recovery replays only engine decisions and still matches
        recovered = recover(str(path))
        assert recovered.fingerprint() == engine_fingerprint(served.engine)
        recovered.close()


    @pytest.mark.parametrize("arrival", [dict(dipath=Dipath([0, 1, 7])),
                                         dict(dipath=Dipath([5, 6])),
                                         dict(request=Request(0, 9)),
                                         dict(request=Request(0, 9),
                                              dipath=Dipath([0, 1, 2]))])
    def test_arrival_off_the_topology_fails_only_its_future(self, tmp_path,
                                                            arrival):
        """An arrival naming a vertex the topology lacks fails its own
        future with VertexNotFoundError: nothing is journalled, the engine
        is untouched and the service keeps serving."""
        graph = DiGraph()
        graph.add_arcs([(0, 1), (1, 2)])
        path = tmp_path / "service.jsonl"

        async def scenario():
            async with RwaService(graph, 2, journal_path=str(path)) as svc:
                assert await svc.submit(0, dipath=Dipath([0, 1, 2]),
                                        time=0.0) is None
                journal, before = path.read_bytes(), svc.fingerprint()
                with pytest.raises(VertexNotFoundError):
                    await svc.submit(1, time=1.0, **arrival)
                assert path.read_bytes() == journal
                assert svc.fingerprint() == before
                assert await svc.submit(2, request=Request(1, 2),
                                        time=2.0) is None
                return svc.fingerprint()

        live = asyncio.run(scenario())
        recovered = recover(str(path))
        recovered.close()
        assert recovered.fingerprint() == live

    def test_pre_routed_dipath_over_an_absent_arc_is_no_route(self,
                                                              tmp_path):
        """A pre-routed dipath over an arc the topology never had, or
        over a cut one, resolves to NO_ROUTE with the engine untouched;
        the refusal is journalled and recovery reproduces it."""
        graph = DiGraph()
        graph.add_arcs([(0, 1), (1, 2)])
        path = tmp_path / "service.jsonl"

        async def scenario():
            async with RwaService(graph, 2, journal_path=str(path),
                                  batch_policy="best_prefix") as svc:
                assert await svc.submit(0, dipath=Dipath([0, 1]),
                                        time=0.0) is None
                before = svc.fingerprint()
                assert await svc.submit(1, dipath=Dipath([2, 1]),
                                        time=1.0) == NO_ROUTE
                assert svc.fingerprint() == before
                await svc.cut((1, 2), time=2.0)
                outcomes = await asyncio.gather(
                    svc.submit(2, dipath=Dipath([0, 1, 2]), time=3.0),
                    svc.submit(3, dipath=Dipath([0, 1]), time=3.0))
                assert outcomes == [NO_ROUTE, None]
                assert svc.blocking_stats()["by_reason"] == {NO_ROUTE: 2}
                return svc.fingerprint()

        live = asyncio.run(scenario())
        admits, _ = _journal_outcomes(str(path))
        assert admits == {0: None, 1: NO_ROUTE, 2: NO_ROUTE, 3: None}
        recovered = recover(str(path))
        recovered.close()
        assert recovered.fingerprint() == live


# --------------------------------------------------------------------------- #
# group commit: acknowledged implies flushed
# --------------------------------------------------------------------------- #
def _flash_crowd(bursts=10, burst_size=8, holding=2.5):
    graph = multi_region_topology(regions=2, region_size=12,
                                  arc_probability=0.2, coupling=2, seed=5)
    pool = multi_region_traffic(graph, bursts * burst_size,
                                inter_fraction=0.25, seed=6)
    return graph, flash_crowd_trace(pool.pairs(), bursts, burst_size,
                                    spacing=1.0, holding=holding)


def _waves(events):
    """The trace split into runs of equal timestamp."""
    return [list(w) for _, w in itertools.groupby(events,
                                                   key=lambda e: e.time)]


def _enqueue(target, wave):
    return [target.submit_nowait(e.request_id, request=e.request,
                                 time=e.time)
            if e.kind == ARRIVAL
            else target.depart_nowait(e.request_id, time=e.time)
            for e in wave]


async def _serve_in_waves(target, events):
    """Enqueue one wave per loop turn, so each drains as its own batch."""
    futures = []
    for wave in _waves(events):
        futures += _enqueue(target, wave)
        await asyncio.sleep(0)
    await asyncio.gather(*futures)
    return futures


def _journal_outcomes(path: str):
    """request id -> journalled outcome, for every admit and depart."""
    admits, departs = {}, {}
    for record in read_journal(path):
        if record["type"] == "admit":
            admits[record["rid"]] = record["outcome"]
        elif record["type"] == "admit_batch":
            admits.update((int(r), o) for r, o in record["outcome"].items())
        elif record["type"] == "depart":
            departs[record["rid"]] = record["outcome"]
        elif record["type"] == "depart_batch":
            departs.update(zip(record["rids"], record["held"]))
    return admits, departs


class FailingStream:
    """A journal stream whose writes fail like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, s):
        raise OSError(28, "No space left on device")

    def flush(self):
        self._fh.flush()

    def close(self):
        self._fh.close()

    @property
    def closed(self):
        return self._fh.closed


class TestGroupCommit:
    def test_acknowledged_decisions_are_in_the_flushed_journal(self,
                                                               tmp_path):
        """Every acknowledged write is readable from the bytes on disk.

        A done-callback on each future copies the journal file the
        moment the client sees the decision; recovering that copy must
        hold every decision acknowledged so far.
        """
        graph, events = _flash_crowd()
        path = tmp_path / "service.jsonl"
        copies = []

        async def scenario():
            service = RwaService(graph, 8, journal_path=str(path),
                                 batch_policy="best_prefix",
                                 snapshot_every=16)
            acked = {}

            def on_done(event, future):
                acked[event.request_id, event.kind] = future.result()
                copies.append((path.read_bytes(), dict(acked)))

            async with service:
                futures = []
                for wave in _waves(events):
                    for event, future in zip(wave, _enqueue(service, wave)):
                        future.add_done_callback(
                            lambda f, e=event: on_done(e, f))
                        futures.append(future)
                    await asyncio.sleep(0)
                await asyncio.gather(*futures)
                await asyncio.sleep(0)

        asyncio.run(scenario())
        assert len(copies) == len(events)
        copy = tmp_path / "copy.jsonl"
        for data, acked in copies[::7] + copies[-1:]:
            copy.write_bytes(data)
            admits, departs = _journal_outcomes(str(copy))
            for (rid, kind), outcome in acked.items():
                journalled = admits if kind == ARRIVAL else departs
                assert journalled[rid] == outcome
            recover(str(copy)).close()

    def test_fsync_once_per_drained_batch(self, tmp_path, monkeypatch):
        import repro.online.persistence as persistence

        calls = []
        monkeypatch.setattr(persistence.os, "fsync", calls.append)
        # each burst but the last three shares its timestamp with the
        # departures of the burst three before it, so a drained batch
        # carries an admit_batch and a depart_batch record
        graph, events = _flash_crowd(holding=3.0)

        async def scenario():
            service = RwaService(graph, 8, journal_path=str(tmp_path / "s"),
                                 batch_policy="best_prefix", fsync=True)
            batches = []
            process = service._process
            service._process = lambda ops: (batches.append(len(ops)),
                                            process(ops))
            async with service:
                await _serve_in_waves(service, events)
            return batches, service.durable.records

        batches, records = asyncio.run(scenario())
        assert batches and all(batches)
        # the genesis record is synced by the constructor, outside a batch
        assert len(calls) == 1 + len(batches)
        assert len(batches) < records - 1

        calls.clear()
        durable = DurableEngine(graph, str(tmp_path / "bare.jsonl"), 8,
                                fsync=True)
        for wave in _waves(events)[:6]:
            for event in wave:
                if event.kind == ARRIVAL:
                    durable.admit(event.request_id, request=event.request)
                else:
                    durable.depart(event.request_id)
        durable.close()
        assert len(calls) == durable.records      # autocommit: one per op

    def test_framing_identical_to_op_by_op_engine(self, tmp_path):
        """The grouped journal is byte-for-byte the autocommit journal."""
        graph, events = _flash_crowd()
        served = tmp_path / "served.jsonl"
        serve_trace(graph, events, 8, journal_path=str(served),
                    batch_policy="best_prefix", snapshot_every=16)
        bare = DurableEngine(graph, str(tmp_path / "bare.jsonl"), 8,
                             snapshot_every=16)
        for _, group in itertools.groupby(events,
                                          key=lambda e: (e.time, e.kind)):
            group = list(group)
            if group[0].kind == DEPARTURE:
                bare.depart_batch([event.request_id for event in group])
            elif len(group) > 1:
                bare.admit_batch(group, policy="best_prefix")
            else:
                bare.admit(group[0].request_id, request=group[0].request)
        bare.close()
        data = served.read_bytes()
        assert data.count(b'"type":"snapshot"') >= 2
        assert data == (tmp_path / "bare.jsonl").read_bytes()

        # every snapshot is an integrity gate on a from-genesis replay,
        # comparing encoded states; a tampered one must fail it
        def replay_from_genesis(records):
            replica = DurableEngine._resume(records[0],
                                            str(tmp_path / "replica.jsonl"))
            try:
                for index, record in enumerate(records[1:], 1):
                    replica._replay(record, index)
            finally:
                replica.close()

        replay_from_genesis(read_journal(str(served)))
        records = read_journal(str(served))
        index = next(i for i, record in enumerate(records)
                     if record["type"] == "snapshot")
        records[index]["state"]["free_slots"].append(10 ** 6)
        with pytest.raises(RecoveryError, match="snapshot") as excinfo:
            replay_from_genesis(records)
        assert excinfo.value.record == index

    def test_failed_sync_acknowledges_nothing(self, tmp_path):
        graph, events = _flash_crowd()
        waves = _waves(events)
        path = tmp_path / "service.jsonl"

        async def scenario():
            service = RwaService(graph, 8, journal_path=str(path),
                                 batch_policy="best_prefix")
            await service.start()
            for wave in waves[:3]:
                await asyncio.gather(*_enqueue(service, wave))
            durable = service.durable
            synced = durable.records
            durable._file = FailingStream(durable._file)
            futures = _enqueue(service, waves[3])
            with pytest.raises(ServiceError, match="sync") as excinfo:
                await asyncio.wait_for(service._drain_task, timeout=30.0)
            assert isinstance(excinfo.value.__cause__, OSError)
            assert not any(future.done() for future in futures)
            assert [op.future for op in service.take_unfinished()] == futures
            durable.close()
            return synced

        synced = asyncio.run(scenario())
        recovered = recover(str(path))
        recovered.close()
        assert recovered.records == synced

    def test_supervisor_restarts_after_failed_sync(self, tmp_path):
        """A sync failure is a crash the supervisor recovers from: the
        unacknowledged batch is resubmitted onto the durable prefix and
        the run converges to the uncrashed one."""
        graph, events = _flash_crowd()

        async def scenario(path, fail_at):
            supervisor = ServiceSupervisor(graph.copy(), 8,
                                           journal_path=str(path),
                                           batch_policy="best_prefix")
            async with supervisor:
                futures = []
                for number, wave in enumerate(_waves(events)):
                    if number == fail_at:
                        durable = supervisor.service.durable
                        durable._file = FailingStream(durable._file)
                    futures += _enqueue(supervisor, wave)
                    await asyncio.sleep(0)
                outcomes = await asyncio.wait_for(asyncio.gather(*futures),
                                                  timeout=60.0)
                return (outcomes, supervisor.restarts,
                        engine_fingerprint(supervisor.service.engine))

        reference = asyncio.run(scenario(tmp_path / "ref.jsonl", None))
        crashed = asyncio.run(scenario(tmp_path / "crash.jsonl", 4))
        assert reference[1] == 0 and crashed[1] == 1
        assert crashed[0] == reference[0]
        assert crashed[2] == reference[2]


# --------------------------------------------------------------------------- #
# service lifecycle + live reads
# --------------------------------------------------------------------------- #
class TestServiceLifecycle:
    def test_submit_requires_running_service(self):
        graph = _line_graph()

        async def scenario():
            service = RwaService(graph, 2)
            with pytest.raises(ServiceError):
                await service.submit(0, request=Request(0, 3))
            async with service:
                assert await service.submit(0, request=Request(0, 3)) is None
            with pytest.raises(ServiceError):
                await service.submit(1, request=Request(0, 3))
            with pytest.raises(ServiceError):
                await service.start()

        asyncio.run(scenario())

    def test_stop_drains_pending_submissions(self):
        graph = _line_graph()

        async def scenario():
            service = RwaService(graph, 2)
            await service.start()
            futures = [service.submit_nowait(rid, request=Request(0, 3),
                                             time=float(rid))
                       for rid in range(3)]
            await service.stop()
            return [f.result() for f in futures]

        assert asyncio.run(scenario()) == [None, None, "no_wavelength"]

    def test_submit_nowait_raises_queue_full_at_max_pending(self):
        graph = _line_graph()

        async def scenario():
            async with RwaService(graph, 2, max_pending=2) as service:
                # the drain task has not run yet: both ops wait in the inbox
                futures = [service.submit_nowait(rid, request=Request(0, 3),
                                                 time=0.0)
                           for rid in range(2)]
                with pytest.raises(asyncio.QueueFull):
                    service.submit_nowait(2, request=Request(0, 3), time=0.0)
                with pytest.raises(asyncio.QueueFull):
                    service.depart_nowait(0, time=1.0)
                assert service.pending() == 2
                decided = [await future for future in futures]
                assert service.pending() == 0
                # the drain took the inbox: there is room again
                assert await service.submit(2, request=Request(0, 3),
                                            time=1.0) == "no_wavelength"
                return decided

        assert asyncio.run(scenario()) == [None, None]

    def test_submit_awaits_room_and_keeps_submission_order(self):
        """Ten concurrent submits through an inbox of three: the late ones
        wait for room, none is refused, and each decision comes back in
        submission order."""
        graph = _line_graph()

        async def scenario():
            finished, seen = [], []
            async with RwaService(graph, 2, max_pending=3) as service:
                async def one(rid):
                    seen.append(service.pending())
                    reason = await service.submit(rid, request=Request(0, 3),
                                                  time=0.0)
                    finished.append(rid)
                    return reason

                reasons = await asyncio.gather(*(one(rid)
                                                 for rid in range(10)))
                stats = service.blocking_stats()
            return reasons, finished, seen, stats

        reasons, finished, seen, stats = asyncio.run(scenario())
        assert reasons == [None, None] + ["no_wavelength"] * 8
        assert finished == list(range(10))
        assert max(seen) == 3                 # the inbox filled up ...
        assert stats["accepted"] + stats["blocked"] == 10   # ... none lost

    def test_pending_counts_queued_ops(self):
        graph = _line_graph()

        async def scenario():
            service = RwaService(graph, 2)
            assert service.pending() == 0
            await service.start()
            service.submit_nowait(0, request=Request(0, 3), time=0.0)
            service.depart_nowait(0, time=1.0)
            service.cut_nowait((0, 1), time=2.0)
            counted = service.pending()
            await service.stop()
            return counted, service.pending()

        assert asyncio.run(scenario()) == (3, 0)

    def test_a_submit_awaiting_room_at_stop_is_refused(self):
        graph = _line_graph()

        async def scenario():
            service = RwaService(graph, 2, max_pending=1)
            await service.start()
            await asyncio.sleep(0)            # the drain waits for work
            late = asyncio.ensure_future(
                service.submit(1, request=Request(0, 3), time=0.0))
            first = service.submit_nowait(0, request=Request(0, 3), time=0.0)
            # ``late`` finds the inbox full and awaits room; the drain
            # then takes ``first``
            await asyncio.sleep(0)
            assert not late.done()
            await service.stop()
            with pytest.raises(ServiceError):
                await late
            return first.result()

        assert asyncio.run(scenario()) is None

    def test_cancelling_one_submit_awaiting_room_spares_the_others(self):
        """Each caller waiting for room waits on its own: cancelling one
        neither cancels the others nor poisons later submits."""
        graph = _line_graph()

        async def scenario():
            service = RwaService(graph, 2, max_pending=1)
            await service.start()
            gate = _gated_service(service)
            first = service.submit_nowait(0, request=Request(0, 3), time=0.0)
            cancelled = asyncio.ensure_future(
                service.submit(1, request=Request(0, 3), time=0.0))
            kept = asyncio.ensure_future(
                service.submit(2, request=Request(0, 3), time=0.0))
            await asyncio.sleep(0)            # both await room
            assert not cancelled.done() and not kept.done()
            cancelled.cancel()
            await asyncio.sleep(0)
            assert cancelled.cancelled() and not kept.done()
            # a submit arriving at the still-full inbox waits as well
            late = asyncio.ensure_future(
                service.submit(3, request=Request(0, 3), time=0.0))
            await asyncio.sleep(0)
            assert not late.done()
            gate.set()
            decisions = [await first, await kept, await late]
            result = service.result()
            await service.stop()
            return decisions, result

        decisions, result = asyncio.run(scenario())
        assert decisions == [None, None, "no_wavelength"]
        assert result.accepted == [0, 2]
        assert result.rejections == {3: "no_wavelength"}

    def test_awaitable_depart_cut_repair_await_room(self):
        """Under ``max_pending`` every awaitable call applies
        backpressure as ``submit`` does; only ``*_nowait`` raises."""
        graph = _line_graph()

        async def scenario():
            service = RwaService(graph, 2, max_pending=1)
            await service.start()
            gate = _gated_service(service)
            first = service.submit_nowait(0, request=Request(0, 3), time=0.0)
            calls = [asyncio.ensure_future(coro) for coro in (
                service.depart(0, time=1.0),
                service.cut((0, 1), time=2.0),
                service.repair((0, 1), time=3.0),
                service.request_defrag())]
            await asyncio.sleep(0)
            assert service.pending() == 1
            assert not any(call.done() for call in calls)
            gate.set()
            outcomes = [await first] + [await call for call in calls]
            await service.stop()
            return outcomes

        admitted, held, cut, repair, defrag = asyncio.run(scenario())
        assert admitted is None and held is True
        assert cut.arc == (0, 1) and repair.arc == (0, 1)
        assert defrag is not None

    def test_malformed_traffic_fails_only_its_future(self):
        """A duplicate arrival or a time-travelling one poisons nothing."""
        graph = _line_graph()

        async def scenario():
            async with RwaService(graph, 3) as service:
                assert await service.submit(
                    0, request=Request(0, 3), time=1.0) is None
                with pytest.raises(SimulationError, match="duplicate"):
                    await service.submit(0, request=Request(0, 3), time=2.0)
                with pytest.raises(SimulationError, match="time-ordered"):
                    await service.submit(1, request=Request(0, 3), time=0.5)
                # the service keeps serving after both failures
                assert await service.submit(
                    2, request=Request(0, 3), time=3.0) is None
                assert await service.depart(0, time=4.0) is True
                return service.blocking_stats()

        stats = asyncio.run(scenario())
        assert stats["accepted"] == 2 and stats["blocked"] == 0

    def test_reads_between_batches_are_coherent(self):
        """Reads against a backlog see post-batch state, not mid-burst."""
        graph, pool, _ = _workload()
        pairs = pool.pairs()

        async def scenario():
            observations = []
            async with RwaService(graph, 8,
                                  batch_policy="best_prefix") as service:
                for rid in range(60):
                    s, t = pairs[rid % len(pairs)]
                    service.submit_nowait(rid, request=Request(s, t),
                                          time=float(rid // 12))
                backlog = service.pending()
                while service.pending():
                    stats = service.blocking_stats()
                    util = service.utilisation()
                    # every observation balances: decisions so far equal
                    # accepted + blocked, and utilisation is a consistent
                    # snapshot of the engine between bursts
                    observations.append((stats["accepted"],
                                         stats["blocked"],
                                         util["active"]))
                    await asyncio.sleep(0)
                final = service.blocking_stats()
                shard_map = service.shard_map()
            return backlog, observations, final, shard_map

        backlog, observations, final, shard_map = asyncio.run(scenario())
        assert backlog > 0
        assert final["accepted"] + final["blocked"] == 60
        for accepted, blocked, active in observations:
            assert accepted + blocked <= 60
            assert active <= accepted
        members = [m for shard in shard_map.values() for m in shard]
        assert len(members) == len(set(members))

    def test_request_defrag_runs_in_admission_order(self):
        graph, pool, _ = _workload()
        pairs = pool.pairs()

        async def scenario():
            async with RwaService(graph, 8) as service:
                for rid in range(24):
                    s, t = pairs[rid % len(pairs)]
                    await service.submit(rid, request=Request(s, t),
                                         time=float(rid))
                report = await service.request_defrag(max_moves=4)
                return report, service.engine.defrag_passes

        report, passes = asyncio.run(scenario())
        assert passes == 1
        assert len(report.moves) <= 4

    def test_latency_stats_cover_every_decision(self):
        graph, _, trace = _workload(num_requests=30)
        served = serve_trace(graph, trace, 8)
        arrivals = sum(1 for e in trace if e.kind == ARRIVAL)
        assert served.latency["count"] == float(arrivals)

    def test_rejects_unknown_batch_policy(self):
        with pytest.raises(ValueError, match="batch policy"):
            RwaService(_line_graph(), 2, batch_policy="nonsense")

    def test_rejects_burst_without_budget(self):
        with pytest.raises(ValueError, match="work_budget"):
            RwaService(_line_graph(), 2, burst=4.0)


# --------------------------------------------------------------------------- #
# E19 gate wiring (cheap smoke; the full replay is bench-marked)
# --------------------------------------------------------------------------- #
class TestRankRuns:
    """``RwaService._rank_runs``: the events.py tie-break applied to one
    drained batch, run by run of equal timestamps."""

    @staticmethod
    def ops(*spec):
        return [_Op(kind, time, None, request_id=n)
                for n, (kind, time) in enumerate(spec)]

    def test_a_batch_in_rank_order_comes_back_as_the_same_list(self):
        ops = self.ops((DEPARTURE, 1.0), (CUT, 1.0), (ARRIVAL, 1.0),
                       (DEFRAG, 1.0), (ARRIVAL, 2.0), (DEPARTURE, 3.0))
        assert RwaService._rank_runs(ops) is ops

    def test_equal_time_ops_are_ranked_fifo_within_a_rank(self):
        ops = self.ops((ARRIVAL, 1.0), (DEPARTURE, 1.0), (DEFRAG, 1.0),
                       (CUT, 1.0), (DEPARTURE, 1.0), (ARRIVAL, 1.0))
        ranked = RwaService._rank_runs(ops)
        assert [op.request_id for op in ranked] == [1, 4, 3, 0, 2, 5]
        assert [op.request_id for op in ops] == [0, 1, 2, 3, 4, 5]

    def test_ops_never_cross_distinct_timestamps(self):
        # the 1.0 run regresses in time; each run is ranked in place
        ops = self.ops((ARRIVAL, 2.0), (DEPARTURE, 2.0), (ARRIVAL, 1.0),
                       (DEPARTURE, 1.0), (ARRIVAL, 2.0), (DEPARTURE, 2.0))
        ranked = RwaService._rank_runs(ops)
        assert [op.request_id for op in ranked] == [1, 0, 3, 2, 5, 4]
        assert [op.time for op in ranked] == [2.0, 2.0, 1.0, 1.0, 2.0, 2.0]


class TestE19Smoke:
    def test_smoke_mode_validates_the_gate_wiring(self):
        """One warm-up-free replay per scenario; identity facts still gate."""
        from repro.analysis.suites import SUITES, problems

        suite = SUITES["service"]
        records = suite.run(smoke=True)
        assert {r["kind"] for r in records} == set(suite.kinds)
        assert problems(suite, records) == []
