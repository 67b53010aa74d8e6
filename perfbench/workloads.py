"""The benchmark's workloads and the passes that drive them.

Every workload is one fixed network and demand pool plus an arrival
process drawn from the run's seed.  The topology and the pool of
requests it serves are pinned per workload (their generator seeds are
constants below), so runs on different seeds measure the same network
and the same demand and differ in which requests arrive, when, and for
how long.  Drawing the topology or the pool from the run's seed made
the cost per op swing by a quarter to a third between seeds: the cost
of a request depends heavily on its endpoint pair, and no bound can
absorb that.

Everything here reaches ``repro`` through its public API: the
generators build the inputs, :class:`repro.service.RwaService` and
:func:`repro.online.simulate_online` run them.  The engine knobs are
pinned in one dict per workload and never derived at run time; so is
each workload's offered rate for the open-loop passes.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dipaths import Request
from repro.generators import multi_region_topology, multi_region_traffic
from repro.online import (ARRIVAL, CUT, DEPARTURE, Event,
                          engine_fingerprint, poisson_trace, simulate_online,
                          sort_events)
from repro.online.events import maintenance_events
from repro.online.faults import fault_surface
from repro.service import RwaService

#: Fewest decision latencies a run's p99 is taken from: at least ten
#: must lie beyond it.
MIN_LATENCY_SAMPLES = 1000
#: Fewest rounds (set-up, saturated pass, open-loop pass) per run.
MIN_ROUNDS = 6
#: Ops per timed chunk of a saturated service pass (about a tenth of a
#: second); the core's speed is measured between chunks.
SATURATED_CHUNK_OPS = 3000
#: Seconds of offered load per timed chunk of an open-loop pass.
OPEN_LOOP_CHUNK_S = 0.1
#: Seed of the fault workload's fixed maintenance plan.
MAINTENANCE_SEED = 20260404
#: A pass whose generator lateness p99 exceeds this did not hold its
#: schedule; if no pass of a run holds it, the run's latency is
#: unresolved.
LATE_LIMIT_MS = 5.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a pinned network, traffic and knobs."""

    name: str
    #: ``multi_region_topology`` and ``multi_region_traffic`` arguments.
    topology: Dict[str, object]
    pool: Dict[str, object]
    #: ``(graph, pool, rng) -> events``: the seeded arrival process.
    traffic: Callable[[object, object, random.Random], List[Event]]
    wavelengths: int
    #: Engine knobs shared by the service and the simulator oracle.
    engine: Dict[str, object]
    #: Service-only knobs (batching, journal).
    service: Dict[str, object] = field(default_factory=dict)
    #: ``simulate_online``-only knobs of the saturated pass.
    simulator: Dict[str, object] = field(default_factory=dict)
    #: ``"service"``: the saturated pass enqueues the whole trace into
    #: the service before draining it; ``"simulator"``: it is one
    #: ``simulate_online`` call.
    saturated: str = "service"
    durable: bool = False
    #: Offered rate of the open-loop passes, in trace ops per second of
    #: the reference core (see ``calibrate.py``).  Frozen when the
    #: benchmark was defined, at 20-40 % of the workload's saturated rate
    #: so that queueing does not amplify the machine's own noise; never
    #: recomputed at run time.
    offered_ops_per_s: float = 1000.0
    #: Rate of the reader coroutine polling the service's read API
    #: during open-loop passes (0 = no reader).
    reader_hz: float = 0.0
    #: Traces per run, each drawn from the run's seed; rounds take turns
    #: on them.  More where the cost per op differs more between draws.
    traces: int = 3

    @staticmethod
    def open_loop_events(events: List[Event]) -> List[Event]:
        """The ops an open-loop pass sends: the trace minus fibre cuts
        and repairs.  A cut's restoration holds the single loop for up
        to ~50 ms, so with faults the latency tail measures which fibres
        the seed's traffic happened to load, not the program."""
        return [e for e in events if e.kind in (ARRIVAL, DEPARTURE)]

    def inputs(self, seed: int):
        """``(graph, events)`` for ``seed``; the same seed, the same inputs."""
        graph = multi_region_topology(**self.topology)
        pool = multi_region_traffic(graph, **self.pool)
        return graph, self.traffic(graph, pool, random.Random(seed))


def trace_seeds(seed: int, count: int) -> List[int]:
    """Seeds of a run's ``count`` traces; distinct runs' seeds give
    disjoint sets."""
    return [seed * count + i for i in range(count)]


def _until_last_arrival(events: List[Event]) -> List[Event]:
    """Drop the departures after the last arrival.

    The lightpaths still up when the trace ends leave a non-empty final
    state, so the end-of-run audit and fingerprint checks compare real
    state rather than an empty engine.
    """
    last = max(i for i, e in enumerate(events) if e.kind == ARRIVAL)
    return events[:last + 1]


def _steady_traffic(graph, pool, rng: random.Random) -> List[Event]:
    trace = poisson_trace(pool, 4000, arrival_rate=1.0, mean_holding=300.0,
                          seed=rng.randrange(2 ** 30))
    return _until_last_arrival(trace)


def _flash_traffic(graph, pool, rng: random.Random, bursts: int = 150,
                   burst_size: int = 40) -> List[Event]:
    """Equal-timestamp waves of ``burst_size`` arrivals drawn from the
    pool, each holding 2.5 time units (the E19 flash-crowd shape)."""
    pairs = pool.pairs()
    events = []
    for rid in range(bursts * burst_size):
        source, target = rng.choice(pairs)
        now = float(rid // burst_size)
        events.append(Event(now, ARRIVAL, rid,
                            request=Request(source, target)))
        events.append(Event(now + 2.5, DEPARTURE, rid))
    return _until_last_arrival(sort_events(events))


def _faulty_traffic(graph, pool, rng: random.Random) -> List[Event]:
    """Poisson traffic plus maintenance windows cutting two fibres.

    A window opens every 100 time units and lasts 30, so windows never
    overlap and every fibre is repaired before the last arrival.  The
    maintenance plan (which fibres, when) is fixed like the network: a
    cut's restoration cost depends heavily on which fibre it hits, and
    drawing the fibres from the run's seed doubled the spread between
    seeds.
    """
    trace = _until_last_arrival(poisson_trace(
        pool, 800, arrival_rate=1.0, mean_holding=30.0,
        seed=rng.randrange(2 ** 30)))
    arcs = sorted(graph.arcs(), key=repr)
    plan = random.Random(MAINTENANCE_SEED)
    events = list(trace)
    start, fault_id = 50.0, 0
    while start + 30.0 < trace[-1].time:
        events.extend(maintenance_events(plan.sample(arcs, 2), start, 30.0,
                                         fault_id=fault_id))
        start += 100.0
        fault_id += 2
    return sort_events(events)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady-memory",
        topology=dict(regions=4, region_size=40, arc_probability=0.12,
                      coupling=2, seed=20260401),
        pool=dict(num_requests=2000, inter_fraction=0.1, seed=20260411),
        traffic=_steady_traffic,
        wavelengths=16,
        engine=dict(routing="shortest", policy="first_fit", sharded=True,
                    speculative=False),
        offered_ops_per_s=10000.0,
        reader_hz=50.0,
    ),
    Workload(
        name="flash-crowd-durable",
        topology=dict(regions=2, region_size=16, arc_probability=0.18,
                      coupling=2, seed=20260402),
        pool=dict(num_requests=2000, inter_fraction=0.25, seed=20260412),
        traffic=_flash_traffic,
        wavelengths=16,
        engine=dict(routing="shortest", policy="first_fit", sharded=True,
                    speculative=False),
        service=dict(batch_policy="best_prefix", snapshot_every=500),
        simulator=dict(batch_policy="best_prefix"),
        durable=True,
        offered_ops_per_s=12000.0,
    ),
    Workload(
        name="speculative-faults-sim",
        topology=dict(regions=4, region_size=30, arc_probability=0.12,
                      coupling=3, seed=20260403),
        pool=dict(num_requests=4000, inter_fraction=0.3, seed=20260413),
        traffic=_faulty_traffic,
        wavelengths=16,
        engine=dict(routing="k_shortest", policy="first_fit", sharded=True,
                    speculative=True, k_candidates=4),
        simulator=dict(defrag_on_block=True),
        saturated="simulator",
        offered_ops_per_s=2500.0,
        traces=12,
    ),
)}


# --------------------------------------------------------------------- #
# outcomes
# --------------------------------------------------------------------- #
def decisions(result) -> tuple:
    """The decision-bearing projection of an ``OnlineResult``."""
    return (result.accepted, result.blocked, result.rejections,
            result.wavelengths_used)


@dataclass(frozen=True)
class Reference:
    """What the oracle decided on one trace, and the peak load ``π``."""

    decisions: tuple
    fingerprint: Dict[str, object]
    pi: int


def reference(workload: Workload, graph, events,
              saturated: bool) -> Reference:
    """Run ``simulate_online`` on the same trace: the correctness oracle.

    ``saturated=True`` gives the oracle of the saturated pass (simulator
    knobs included); ``False`` that of the open-loop service passes,
    over the ops they send.
    ``π`` is the highest fibre load anywhere in the oracle's timeline.
    """
    knobs = dict(workload.engine)
    if saturated or workload.saturated == "service":
        knobs.update(workload.simulator)
    if not saturated:
        events = workload.open_loop_events(events)
    result = simulate_online(graph, events, workload.wavelengths,
                             record_timeline=True, **knobs)
    return Reference(
        decisions(result), engine_fingerprint(result.engine),
        int(max(sample["max_fibre_load"] for sample in result.timeline)))


# --------------------------------------------------------------------- #
# service plumbing
# --------------------------------------------------------------------- #
def new_service(workload: Workload, graph, events,
                journal: Optional[str]) -> RwaService:
    kwargs = dict(workload.engine)
    kwargs.update(workload.service)
    if workload.durable:
        kwargs["journal_path"] = journal
    return RwaService(fault_surface(graph, events), workload.wavelengths,
                      **kwargs)


def submit(service: RwaService, event: Event):
    """Enqueue one trace op without awaiting; returns its future."""
    if event.kind == ARRIVAL:
        return service.submit_nowait(event.request_id, request=event.request,
                                     dipath=event.dipath, time=event.time)
    if event.kind == DEPARTURE:
        return service.depart_nowait(event.request_id, time=event.time)
    if event.kind == CUT:
        return service.cut_nowait(event.arc, time=event.time)
    return service.repair_nowait(event.arc, time=event.time)


async def _setup(workload: Workload, seed: int,
                 journal: Optional[str]) -> float:
    start = time.perf_counter()
    graph, events = workload.inputs(seed)
    service = new_service(workload, graph, events, journal)
    await service.start()
    elapsed = time.perf_counter() - start
    await service.stop()
    return elapsed


def setup_time(workload: Workload, seed: int,
               journal: Optional[str]) -> float:
    """Wall time of building the inputs and starting the service."""
    gc.collect()
    return asyncio.run(_setup(workload, seed, journal))


@dataclass
class PassResult:
    """One pass over the trace: its wall time, outcome and live service."""

    wall: float
    ops: int
    failed: int
    result: object
    service: Optional[RwaService] = None
    open_loop: Optional["OpenLoopStats"] = None
    #: ``(ops, wall, factor, held)`` per timed chunk of a saturated pass
    #: (see :class:`calibrate.Speed`).
    chunks: List[tuple] = field(default_factory=list)


# --------------------------------------------------------------------- #
# saturated passes
# --------------------------------------------------------------------- #
def chunks(events: List[Event], size: int) -> List[List[Event]]:
    """Consecutive runs of at least ``size`` events (the last may be
    shorter), cut only where the event time changes, so that an
    equal-timestamp burst is never split."""
    parts: List[List[Event]] = [[]]
    for event in events:
        part = parts[-1]
        if len(part) >= size and event.time != part[-1].time:
            parts.append([])
        parts[-1].append(event)
    return parts


def _no_speed() -> tuple:
    return 1.0, True


async def _saturated_service(workload: Workload, graph, events,
                             journal: Optional[str], tracer,
                             speed) -> PassResult:
    service = new_service(workload, graph, events, journal)
    await service.start()
    if tracer is not None:
        tracer.wrap_service(service)
    # each chunk is enqueued whole before it drains; the next is enqueued
    # once the service is idle and the core's speed has been measured
    parts = ([events] if speed is None
             else chunks(events, SATURATED_CHUNK_OPS))
    segment = _no_speed if speed is None else speed.segment
    failed = 0
    timed = []
    for part in parts:
        start = time.perf_counter()
        futures = [submit(service, event) for event in part]
        for future in futures:
            try:
                await future
            except Exception:   # noqa: BLE001 - a failed op is counted
                failed += 1
        wall = time.perf_counter() - start
        timed.append((len(part), wall) + segment())
    result = service.result()
    await service.stop()
    return PassResult(sum(c[1] for c in timed), len(events), failed, result,
                      service, chunks=timed)


def saturated_pass(workload: Workload, graph, events,
                   journal: Optional[str], tracer=None,
                   speed=None) -> PassResult:
    """Decide the whole trace as fast as possible.

    With a :class:`calibrate.Speed`, a service pass is timed in chunks
    with the core's speed measured between them; a simulator pass is
    one chunk.
    """
    gc.collect()
    if workload.saturated == "simulator":
        knobs = dict(workload.engine)
        knobs.update(workload.simulator)
        start = time.perf_counter()
        result = simulate_online(graph, events, workload.wavelengths,
                                 record_timeline=False, **knobs)
        wall = time.perf_counter() - start
        segment = _no_speed if speed is None else speed.segment
        return PassResult(wall, len(events), 0, result,
                          chunks=[(len(events), wall) + segment()])
    return asyncio.run(_saturated_service(workload, graph, events, journal,
                                          tracer, speed))


# --------------------------------------------------------------------- #
# open-loop passes
# --------------------------------------------------------------------- #
@dataclass
class OpenLoopStats:
    """Per-op timings of one open-loop pass, in seconds."""

    latency: List[float]        # scheduled send -> future resolved
    decide: List[float]         # the same, arrivals only
    late: List[float]           # scheduled send -> actually submitted
    due: List[float]            # absolute perf_counter of each send
    resolved: List[float]       # absolute perf_counter of each resolution
    # traced passes only, per tick that submitted something:
    ticks: List[tuple]          # (submit end, first op, end op)
    pending: List[int]          # service.pending() after the submits
    # passes timed with a speed only: the decision latencies of the
    # arrivals of the chunks that held one speed and their schedule,
    # scaled to the reference core, and (ops, factor, held, on time) per
    # chunk
    scaled: List[float] = field(default_factory=list)
    chunks: List[tuple] = field(default_factory=list)


def schedule(events: List[Event], rate: float) -> List[float]:
    """Send offsets: event times scaled to ``rate`` ops per second.

    Ops sharing an event time share a send time, so a flash crowd's
    equal-timestamp burst lands in one tick and coalesces as it does in
    the saturated pass.
    """
    first, last = events[0].time, events[-1].time
    scale = len(events) / rate / (last - first)
    return [(event.time - first) * scale for event in events]


async def _reader(service: RwaService, period: float) -> None:
    while True:
        await asyncio.sleep(period)
        service.utilisation()
        service.blocking_stats()
        service.metrics_snapshot()


async def _open_loop(workload: Workload, graph, events,
                     journal: Optional[str], tracer, speed) -> PassResult:
    events = workload.open_loop_events(events)
    service = new_service(workload, graph, events, journal)
    await service.start()
    if tracer is not None:
        tracer.wrap_service(service)
    offsets = schedule(events, workload.offered_ops_per_s)
    n = len(events)
    latency = [0.0] * n
    resolved = [0.0] * n
    late = [0.0] * n
    due = [0.0] * n
    ticks: List[tuple] = []
    pending: List[int] = []
    scaled: List[float] = []
    timed: List[tuple] = []
    failed = 0
    clock = time.perf_counter

    def on_done(index: int, future) -> None:
        nonlocal failed
        now = clock()
        resolved[index] = now
        latency[index] = now - due[index]
        if future.cancelled() or future.exception() is not None:
            failed += 1

    # the schedule is sent in chunks; between two, once every op sent is
    # decided, the core's speed is measured and the next chunk is offered
    # at the workload's rate times that speed
    if speed is None:
        bounds = [(0, n)]
    else:
        size = max(1, int(workload.offered_ops_per_s * OPEN_LOOP_CHUNK_S))
        bounds, first = [], 0
        for part in chunks(events, size):
            bounds.append((first, first + len(part)))
            first += len(part)
    begin = clock()
    for first, end in bounds:
        relative = 1.0 if speed is None else speed.now()
        # the reader starts with each chunk, so that no read it missed
        # while the kernel ran lands on the chunk's first ops
        reader = None
        if workload.reader_hz:
            reader = asyncio.get_running_loop().create_task(
                _reader(service, 1.0 / (workload.reader_hz * relative)))
        origin = clock() + 0.002 - offsets[first] / relative
        futures = []
        index = first
        while index < end:
            now = clock()
            tick = index
            while index < end and origin + offsets[index] / relative <= now:
                due[index] = origin + offsets[index] / relative
                late[index] = now - due[index]
                future = submit(service, events[index])
                future.add_done_callback(lambda f, i=index: on_done(i, f))
                futures.append(future)
                index += 1
            if index > tick and tracer is not None:
                ticks.append((clock(), tick, index))
                pending.append(service.pending())
            if index < end:
                # one tick = one turn of the event loop: a timer tick
                # would be at least the selector's 1 ms granularity, which
                # would dominate the latency being measured
                await asyncio.sleep(0)
        for future in futures:
            try:
                await future
            except Exception:   # noqa: BLE001 - counted in on_done
                pass
        # the done-callbacks of the last batch run one loop turn later
        await asyncio.sleep(0)
        if reader is not None:
            reader.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reader
        if speed is not None:
            factor, held = speed.segment()
            on_time = percentile(late[first:end], 0.99) * 1e3 <= LATE_LIMIT_MS
            if held and on_time:
                scaled.extend(latency[i] * factor for i in range(first, end)
                              if events[i].kind == ARRIVAL)
            timed.append((end - first, factor, held, on_time))
    result = service.result()
    await service.stop()
    decide = [latency[i] for i, event in enumerate(events)
              if event.kind == ARRIVAL]
    stats = OpenLoopStats(latency, decide, late, due, resolved, ticks,
                          pending, scaled, timed)
    return PassResult(clock() - begin, n, failed, result, service, stats)


def open_loop_pass(workload: Workload, graph, events,
                   journal: Optional[str], tracer=None,
                   speed=None) -> PassResult:
    """Send the trace open loop at the workload's offered rate.

    With a :class:`calibrate.Speed`, the trace is sent in chunks of
    :data:`OPEN_LOOP_CHUNK_S` seconds, and each chunk's rate (and the
    reader's) is multiplied by the core's speed relative to the
    reference core: a slow core is offered proportionally less, so the
    service is as loaded as it would be on the reference core.
    """
    gc.collect()
    return asyncio.run(_open_loop(workload, graph, events, journal, tracer,
                                  speed))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted values."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]
