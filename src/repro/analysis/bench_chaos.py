"""Chaos benchmark (E21): live faults, crash-restart, restoration economics.

Four claims, recorded in ``BENCH_chaos.json`` (suite ``chaos`` of
:mod:`repro.analysis.suites`):

* **Fault-bearing identity** (``kind == "chaos_identity"``) — a
  flash-crowd trace with injected fibre cuts and a repair replayed
  through :func:`repro.service.serve_trace` makes bit-identical
  decisions to :func:`~repro.online.simulator.simulate_online`:
  accepted/blocked/rejections, stranded/restored counts and the final
  :func:`~repro.online.persistence.engine_fingerprint` all compare
  equal.  Sustained admissions/sec under faults rides along for
  information.

* **Maintenance window** (``kind == "chaos_maintenance"``) —
  :meth:`~repro.service.RwaService.schedule_maintenance` (planned
  cut+repair pairs with pre-emptive drain) is decision- and
  fingerprint-identical to replaying
  :func:`~repro.online.events.maintenance_events` through the simulator.

* **Crash-restart convergence** (``kind == "chaos_crash"``) — a
  journal-backed supervised service killed at random op offsets and
  restarted by :class:`~repro.service.ServiceSupervisor` converges to
  the *uncrashed* supervised run's engine fingerprint on every offset,
  with exactly one restart each.  The uncrashed run's decisions equal
  the simulator oracle's; its fingerprint is compared
  durable-to-durable because a :class:`~repro.online.persistence.
  DurableEngine` canonicalizes adjacency-set iteration order from its
  genesis record (a legitimate fingerprint component — it seeds routing
  tie-breaks — that the in-memory engine does not share).

* **Restoration economics** (``kind == "chaos_restoration"``) — through
  the *service* path, restoration strictly beats restoration-off
  blocking at an equal Kempe move budget on a cut-heavy trace
  (``restoration_pays``) — the service-side twin of the E17 simulator
  claim.

The same contracts are pinned per-construction by
``tests/test_chaos.py`` (marker ``chaos``); this suite is the
replayed-workload side, sized to strand real traffic.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from ..generators.regions import multi_region_topology, multi_region_traffic
from ..online.events import (ARRIVAL, CUT, DEPARTURE, REPAIR, cut_event,
                             maintenance_events, poisson_trace, repair_event,
                             sort_events)
from ..online.persistence import engine_fingerprint
from ..online.simulator import OnlineResult, simulate_online
from ..service import RwaService, ServiceSupervisor, serve_trace
from .bench_service import _decisions, flash_crowd_trace
from .recovery import _hot_arcs

__all__ = [
    "CHAOS_SCENARIOS",
    "measure_chaos_identity",
    "measure_chaos_maintenance",
    "measure_chaos_crash",
    "measure_chaos_restoration",
    "run_chaos_benchmark",
]


def _cut_flash_crowd(seed_topo: int, seed_traffic: int, bursts: int,
                     burst_size: int, cuts: int):
    """A flash crowd with hot-fibre cuts landing mid-run, one repaired."""
    graph = multi_region_topology(regions=2, region_size=16,
                                  arc_probability=0.18, coupling=2,
                                  seed=seed_topo)
    pool = multi_region_traffic(graph, bursts * burst_size,
                                inter_fraction=0.25, seed=seed_traffic)
    trace = flash_crowd_trace(pool.pairs(), bursts, burst_size,
                              spacing=1.0, holding=2.5)
    horizon = trace[-1].time
    hot = _hot_arcs(graph, pool.pairs(), cuts)
    faults = [cut_event((0.35 + 0.08 * i) * horizon, arc,
                        fault_id=10 ** 6 + i)
              for i, arc in enumerate(hot)]
    faults.append(repair_event(0.80 * horizon, hot[0],
                               fault_id=10 ** 6 + len(hot)))
    return graph, sort_events(trace + faults)


def _poisson_fault_workload(seed: int, num_requests: int, cuts: int,
                            arrival_rate: float):
    graph = multi_region_topology(regions=2, region_size=14,
                                  arc_probability=0.2, coupling=2, seed=seed)
    pool = multi_region_traffic(graph, num_requests, inter_fraction=0.3,
                                seed=seed + 1)
    trace = poisson_trace(pool, num_requests, arrival_rate=arrival_rate,
                          mean_holding=2.5, seed=seed + 2)
    horizon = max(event.time for event in trace)
    hot = _hot_arcs(graph, pool.pairs(), cuts)
    return graph, pool, trace, horizon, hot


#: name -> scenario shape.  See the measure_* functions for the keys
#: each kind consumes.
CHAOS_SCENARIOS: Dict[str, Dict] = {
    "chaos-flash-crowd-cuts": {
        "kind": "chaos_identity",
        "seed_topo": 47, "seed_traffic": 53, "bursts": 30,
        "burst_size": 18, "cuts": 2, "wavelengths": 10},
    "chaos-maintenance-window": {
        "kind": "chaos_maintenance",
        "seed": 61, "requests": 140, "arrival_rate": 6.0, "arcs": 2,
        "window": (0.35, 0.30), "wavelengths": 8},
    "chaos-crash-restart": {
        "kind": "chaos_crash",
        "seed": 71, "requests": 90, "arrival_rate": 6.0, "cuts": 1,
        "wavelengths": 8, "offsets": 20, "smoke_offsets": 4},
    "chaos-restoration-budget": {
        "kind": "chaos_restoration",
        "seed": 83, "requests": 320, "arrival_rate": 16.0, "cuts": 3,
        "wavelengths": 8, "move_budget": 8},
}


def measure_chaos_identity(name: str, repeats: int = 3,
                           warmup: bool = True) -> Dict[str, object]:
    """Fault-bearing flash crowd: serve_trace vs simulate_online."""
    spec = CHAOS_SCENARIOS[name]
    graph, events = _cut_flash_crowd(spec["seed_topo"], spec["seed_traffic"],
                                     spec["bursts"], spec["burst_size"],
                                     spec["cuts"])
    wavelengths = spec["wavelengths"]
    arrivals = sum(1 for e in events if e.kind == ARRIVAL)
    reference = simulate_online(graph, events, wavelengths,
                                record_timeline=False)
    if warmup:
        serve_trace(graph, events, wavelengths)
    best_wall = float("inf")
    served = None
    for _ in range(repeats):
        start = time.perf_counter()
        candidate = serve_trace(graph, events, wavelengths)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall, served = wall, candidate
    return {
        "kind": "chaos_identity",
        "scenario": name,
        "events": len(events),
        "arrivals": arrivals,
        "wavelengths": wavelengths,
        "fibre_cuts": served.fibre_cuts,
        "fibre_repairs": served.fibre_repairs,
        "stranded": served.lightpaths_stranded,
        "restored": served.lightpaths_restored,
        "blocking": served.blocking_rate,
        "decisions_equal": _decisions(served) == _decisions(reference),
        "fingerprint_identical": (engine_fingerprint(served.engine)
                                  == engine_fingerprint(reference.engine)),
        # wall-clock (informational; never compared across runs)
        "serve_total_s": best_wall,
        "admissions_per_s": arrivals / best_wall if best_wall
        else float("inf"),
    }


async def _serve_with_maintenance(graph, trace, wavelengths, arcs,
                                  start, duration) -> OnlineResult:
    """Drive a trace through a service with a planned maintenance window."""
    service = RwaService(graph.copy(), wavelengths)
    async with service:
        cut_futs, repair_futs = service.schedule_maintenance(arcs, start,
                                                             duration)
        futures = []
        for event in trace:
            if event.kind == ARRIVAL:
                futures.append(service.submit_nowait(
                    event.request_id, request=event.request,
                    time=event.time))
            else:
                futures.append(service.depart_nowait(event.request_id,
                                                     time=event.time))
        for future in futures:
            await future
        result = service.result()
    for future in cut_futs + repair_futs:
        await future                 # surfaces any window failure
    return result


def measure_chaos_maintenance(name: str) -> Dict[str, object]:
    """schedule_maintenance vs the maintenance_events simulator oracle."""
    spec = CHAOS_SCENARIOS[name]
    graph, _, trace, horizon, hot = _poisson_fault_workload(
        spec["seed"], spec["requests"], spec["arcs"], spec["arrival_rate"])
    start_frac, width_frac = spec["window"]
    start, duration = start_frac * horizon, width_frac * horizon
    wavelengths = spec["wavelengths"]

    wall_start = time.perf_counter()
    served = asyncio.run(_serve_with_maintenance(
        graph, trace, wavelengths, hot, start, duration))
    wall = time.perf_counter() - wall_start
    oracle = simulate_online(
        graph,
        sort_events(trace + maintenance_events(hot, start, duration,
                                               fault_id=10 ** 6)),
        wavelengths, record_timeline=False)
    return {
        "kind": "chaos_maintenance",
        "scenario": name,
        "arrivals": spec["requests"],
        "wavelengths": wavelengths,
        "window_arcs": len(hot),
        "fibre_cuts": served.fibre_cuts,
        "fibre_repairs": served.fibre_repairs,
        "stranded": served.lightpaths_stranded,
        "restored": served.lightpaths_restored,
        "blocking": served.blocking_rate,
        "decisions_equal": _decisions(served) == _decisions(oracle),
        "fingerprint_identical": (engine_fingerprint(served.engine)
                                  == engine_fingerprint(oracle.engine)),
        "serve_total_s": wall,       # informational
    }


async def _drive_supervised(graph, events, wavelengths, journal_path,
                            crash_after=None):
    supervisor = ServiceSupervisor(graph.copy(), wavelengths,
                                   journal_path=str(journal_path),
                                   max_restarts=3,
                                   crash_after_n_ops=crash_after)
    async with supervisor:
        futures = []
        for event in events:
            if event.kind == ARRIVAL:
                futures.append(supervisor.submit_nowait(
                    event.request_id, request=event.request,
                    time=event.time))
            elif event.kind == DEPARTURE:
                futures.append(supervisor.depart_nowait(event.request_id,
                                                        time=event.time))
            elif event.kind == CUT:
                futures.append(supervisor.cut_nowait(event.arc,
                                                     time=event.time))
            elif event.kind == REPAIR:
                futures.append(supervisor.repair_nowait(event.arc,
                                                        time=event.time))
        for future in futures:
            await future
        fingerprint = engine_fingerprint(supervisor.service.engine)
        result = supervisor.service.result()
        return fingerprint, result, supervisor.restarts


def measure_chaos_crash(name: str, smoke: bool = False) -> Dict[str, object]:
    """Crash-restart convergence fuzzed over random op offsets."""
    spec = CHAOS_SCENARIOS[name]
    graph, _, trace, horizon, hot = _poisson_fault_workload(
        spec["seed"], spec["requests"], spec["cuts"], spec["arrival_rate"])
    faults = [cut_event(0.4 * horizon, arc, fault_id=10 ** 6 + i)
              for i, arc in enumerate(hot)]
    faults.append(repair_event(0.75 * horizon, hot[0],
                               fault_id=10 ** 6 + len(hot)))
    events = sort_events(trace + faults)
    wavelengths = spec["wavelengths"]
    trials = spec["smoke_offsets"] if smoke else spec["offsets"]
    rng = random.Random(spec["seed"] * 31 + 7)
    offsets = sorted(rng.sample(range(1, len(events)), trials))

    wall_start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        reference_fp, reference, ref_restarts = asyncio.run(
            _drive_supervised(graph, events, wavelengths,
                              tmp / "uncrashed.jsonl"))
        converged = 0
        single_restart = 0
        for offset in offsets:
            fingerprint, _, restarts = asyncio.run(_drive_supervised(
                graph, events, wavelengths, tmp / f"crash-{offset}.jsonl",
                crash_after=offset))
            converged += fingerprint == reference_fp
            single_restart += restarts == 1
    wall = time.perf_counter() - wall_start
    oracle = simulate_online(graph, events, wavelengths,
                             record_timeline=False)
    return {
        "kind": "chaos_crash",
        "scenario": name,
        "events": len(events),
        "wavelengths": wavelengths,
        "fibre_cuts": reference.fibre_cuts,
        "stranded": reference.lightpaths_stranded,
        "restored": reference.lightpaths_restored,
        "blocking": reference.blocking_rate,
        "crash_offsets": offsets,
        "trials": trials,
        "converged": converged,
        "all_converged": converged == trials,
        "single_restart_each": single_restart == trials,
        "uncrashed_restarts": ref_restarts,
        "decisions_equal_oracle":
            _decisions(reference) == _decisions(oracle),
        "chaos_total_s": wall,       # informational
    }


def measure_chaos_restoration(name: str) -> Dict[str, object]:
    """Service-path restoration on vs off at an equal move budget."""
    spec = CHAOS_SCENARIOS[name]
    graph, _, trace, horizon, hot = _poisson_fault_workload(
        spec["seed"], spec["requests"], spec["cuts"], spec["arrival_rate"])
    faults = [cut_event((0.40 + 0.06 * i) * horizon, arc,
                        fault_id=10 ** 6 + i)
              for i, arc in enumerate(hot)]
    faults.append(repair_event(0.78 * horizon, hot[0],
                               fault_id=10 ** 6 + len(hot)))
    events = sort_events(trace + faults)
    wavelengths = spec["wavelengths"]
    common = dict(routing="k_shortest", speculative=True,
                  restore_move_budget=spec["move_budget"])
    restored = serve_trace(graph, events, wavelengths, restoration=True,
                           **common)
    baseline = serve_trace(graph, events, wavelengths, restoration=False,
                           **common)
    return {
        "kind": "chaos_restoration",
        "scenario": name,
        "arrivals": spec["requests"],
        "wavelengths": wavelengths,
        "move_budget": spec["move_budget"],
        "fibre_cuts": restored.fibre_cuts,
        "fibre_repairs": restored.fibre_repairs,
        "stranded_restoration": restored.lightpaths_stranded,
        "restored_restoration": restored.lightpaths_restored,
        "stranded_baseline": baseline.lightpaths_stranded,
        "restored_baseline": baseline.lightpaths_restored,
        "blocking_restoration": restored.blocking_rate,
        "blocking_baseline": baseline.blocking_rate,
        "restoration_pays":
            restored.blocking_rate < baseline.blocking_rate,
    }


def run_chaos_benchmark(repeats: int = 3,
                        smoke: bool = False) -> List[Dict[str, object]]:
    """Run every E21 scenario and return the records.

    ``smoke=True`` is the cheap wiring check (``scripts/smoke.py`` and
    the tier-1 smoke test): one identity replay without warm-up and the
    reduced crash-offset count — the deterministic chaos facts still
    gate, only wall-clock samples get noisier and the offset fuzz gets
    thinner.
    """
    if smoke:
        repeats = 1
    records: List[Dict[str, object]] = []
    for name, spec in CHAOS_SCENARIOS.items():
        kind = spec["kind"]
        if kind == "chaos_identity":
            records.append(measure_chaos_identity(name, repeats=repeats,
                                                  warmup=not smoke))
        elif kind == "chaos_maintenance":
            records.append(measure_chaos_maintenance(name))
        elif kind == "chaos_crash":
            records.append(measure_chaos_crash(name, smoke=smoke))
        else:
            records.append(measure_chaos_restoration(name))
    return records
