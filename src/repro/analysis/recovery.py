"""Fault-tolerance benchmark (E17): crash recovery, restoration, shedding.

Three claims, recorded in ``BENCH_recovery.json`` (suite ``recovery`` of
:mod:`repro.analysis.suites`):

* **Crash recovery** (``kind == "crash_recovery"``) — a
  :class:`~repro.online.persistence.DurableEngine` driven through a
  mixed workload (admissions, batches, departures, defrag passes, fibre
  cuts and repairs) can be killed at *any* byte offset of its journal
  and :func:`~repro.online.persistence.recover` rebuilds an engine whose
  :func:`~repro.online.persistence.engine_fingerprint` is bit-identical
  to the live engine's at the corresponding record boundary.  The record
  also samples replay-recovery time against journal length, with and
  without periodic snapshots — the snapshot cadence trade-off of
  PERFORMANCE.md.

* **Restoration** (``kind == "restoration"``) — on a multi-region
  topology whose three most-loaded fibres are cut mid-trace (one
  repaired later, two not), end-of-run blocking with the restoration
  plane on is
  **strictly below** blocking with it off at the *same* defrag move
  budget (``restoration_pays``).  Both runs pay for the cuts; only one
  wins stranded traffic back.

* **Load shedding** (``kind == "shed"``) — on a bursty trace admitted
  with speculative k-shortest routing, an
  :class:`~repro.online.simulator.AdmissionGuard` bounds the p99
  per-timestamp admission work (candidate-routing cost units) strictly
  below the unguarded run's (``work_bounded``), at the price of
  :data:`~repro.online.simulator.SHED` rejections (``guard_sheds``).

Crash-recovery trial counts here are sized for a regression gate; the
50-seed sweep of the acceptance criterion lives in
``tests/test_recovery.py`` (marker ``recovery``, the long sweep also
``slow``).
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..dipaths.requests import Request
from ..generators.regions import multi_region_topology, multi_region_traffic
from ..online.events import (
    ARRIVAL,
    DEPARTURE,
    Event,
    cut_event,
    poisson_trace,
    repair_event,
    sort_events,
)
from ..online.persistence import DurableEngine, read_journal, recover
from ..online.simulator import SHED, OnlineEngine, simulate_online

__all__ = [
    "CRASH_SCENARIOS",
    "RESTORATION_SCENARIOS",
    "SHED_SCENARIOS",
    "measure_crash_scenario",
    "measure_restoration_scenario",
    "measure_shed_scenario",
    "run_recovery_benchmark",
]

#: The snapshotted journal must replay at least this many times more
#: records per second than replay-from-genesis *within the same run*.
#: The within-run ratio is the gated performance signal (observed 7-8x):
#: absolute recovery wall-clock is recorded for information only, because
#: the 2-40ms floors drift between processes by more than any sane
#: regression tolerance.
SNAPSHOT_RECOVERY_SPEEDUP_TARGET = 4.0


# ---------------------------------------------------------------------- #
# crash-recovery scenarios
# ---------------------------------------------------------------------- #
#: name -> (journalled ops, snapshot cadence, random kill-point trials,
#:          wavelengths, seed).  The two scenarios run the same workload
#: shape with and without snapshots, so the recovery_samples of the pair
#: exhibit the replay-from-genesis vs jump-to-snapshot trade-off.
CRASH_SCENARIOS: Dict[str, Tuple[int, Optional[int], int, int, int]] = {
    "crash-replay-from-genesis": (160, None, 16, 8, 101),
    "crash-snapshot-every-12": (160, 12, 16, 8, 103),
}


def _drive_durable(durable: DurableEngine, pairs: List[Tuple],
                   ops: int, seed: int) -> Dict[str, object]:
    """Run a mixed workload; fingerprint every record boundary.

    Returns the boundary fingerprints (``fp_at[n]`` = live fingerprint
    after the first ``n`` journal records) plus workload counters.
    Snapshot records do not change engine state, so a boundary landing
    between an op record and its snapshot carries the op's fingerprint.
    """
    rng = random.Random(seed)
    fp_at: Dict[int, Dict] = {}
    last = 0

    def note() -> None:
        nonlocal last
        fp = durable.fingerprint()
        for n in range(last + 1, durable.records + 1):
            fp_at[n] = fp
        last = durable.records

    def request() -> Request:
        return Request(*pairs[rng.randrange(len(pairs))])

    note()                                  # the genesis boundary
    next_rid = 0
    cuts = repairs = 0
    for _ in range(ops):
        roll = rng.random()
        active = sorted(durable.vertex_of)
        cut_now = durable.injector.cut_arcs()
        if roll < 0.45:
            durable.admit(next_rid, request=request())
            next_rid += 1
        elif roll < 0.55:
            arrivals = []
            for _ in range(3):
                arrivals.append(Event(0.0, ARRIVAL, next_rid,
                                      request=request()))
                next_rid += 1
            durable.admit_batch(arrivals, policy="greedy")
        elif roll < 0.80 and active:
            durable.depart(active[rng.randrange(len(active))])
        elif roll < 0.85:
            durable.defrag(order="highest_wavelength", max_moves=6)
        elif roll < 0.93 and len(cut_now) < 3:
            candidates = sorted(a for a in durable.graph.arcs()
                                if a not in cut_now)
            durable.cut(candidates[rng.randrange(len(candidates))])
            cuts += 1
        elif cut_now:
            durable.repair(cut_now[rng.randrange(len(cut_now))])
            repairs += 1
        else:                               # nothing cut yet: admit instead
            durable.admit(next_rid, request=request())
            next_rid += 1
        note()
    return {"fp_at": fp_at, "cuts": cuts, "repairs": repairs}


def measure_crash_scenario(name: str, repeats: int = 3
                           ) -> Dict[str, object]:
    """Kill one journalled run at random byte offsets; verify recovery."""
    ops, snapshot_every, trials, wavelengths, seed = CRASH_SCENARIOS[name]
    graph = multi_region_topology(regions=2, region_size=14,
                                  arc_probability=0.18, coupling=2,
                                  seed=seed)
    pairs = multi_region_traffic(graph, 90, inter_fraction=0.25,
                                 seed=seed + 1).pairs()
    with tempfile.TemporaryDirectory() as tmp:
        journal = str(Path(tmp) / "journal.jsonl")
        durable = DurableEngine(
            graph, journal, wavelengths, routing="k_shortest",
            speculative=True, snapshot_every=snapshot_every,
            restore_retries=1, restore_move_budget=8)
        driven = _drive_durable(durable, pairs, ops, seed + 2)
        durable.close()
        fp_at: Dict[int, Dict] = driven["fp_at"]
        data = Path(journal).read_bytes()
        genesis_end = data.index(b"\n") + 1
        newlines = [i + 1 for i, b in enumerate(data) if b == 0x0A]

        snapshots = sum(1 for record in read_journal(journal)
                        if record["type"] == "snapshot")

        # random kill points: any byte offset past the genesis record
        rng = random.Random(seed * 7 + 5)
        mismatches = 0
        crash = str(Path(tmp) / "crash.jsonl")
        for _ in range(trials):
            offset = rng.randrange(genesis_end, len(data) + 1)
            Path(crash).write_bytes(data[:offset])
            complete = data[:offset].count(b"\n")
            recovered = recover(crash)
            recovered.close()
            if recovered.fingerprint() != fp_at[complete]:
                mismatches += 1

        # replay-recovery time vs journal length, at clean boundaries.
        # The absolute numbers are informational (the gate compares the
        # in-run snapshot ratio only); a warm-up run keeps them from
        # absorbing first-touch import/allocator costs all the same.
        samples: List[Dict[str, object]] = []
        prefix_path = str(Path(tmp) / "prefix.jsonl")
        Path(prefix_path).write_bytes(data)
        recover(prefix_path).close()
        for fraction in (0.25, 0.5, 1.0):
            boundary = max(1, math.ceil(fraction * len(newlines))) - 1
            Path(prefix_path).write_bytes(data[:newlines[boundary]])
            best = float("inf")
            for _ in range(max(repeats, 3)):
                start = time.perf_counter()  # noqa: REPRO-D1 -- benchmark timing
                replayed = recover(prefix_path)
                best = min(best, time.perf_counter() - start)  # noqa: REPRO-D1 -- benchmark timing
                replayed.close()
            samples.append({"records": boundary + 1,
                            "bytes": newlines[boundary],
                            "seconds": best})
    recover_full_s = samples[-1]["seconds"]
    return {
        "scenario": name,
        "kind": "crash_recovery",
        "ops": ops,
        "wavelengths": wavelengths,
        "snapshot_every": snapshot_every,
        "snapshots": snapshots,
        "journal_records": len(newlines),
        "journal_bytes": len(data),
        "cuts": driven["cuts"],
        "repairs": driven["repairs"],
        "trials": trials,
        "mismatches": mismatches,
        "bit_identical": mismatches == 0,
        "recovery_samples": samples,
        "recover_full_s": recover_full_s,
        "records_per_second": len(newlines) / recover_full_s
        if recover_full_s else float("inf"),
    }


# ---------------------------------------------------------------------- #
# restoration scenarios
# ---------------------------------------------------------------------- #
#: name -> (regions, region size, coupling, inter fraction, wavelengths,
#:          arrivals, offered load (Erlang), restoration move budget,
#:          seed).  The cuts target the three most-loaded fibres
#: (measured by routing the whole request pool on the bare topology), so
#: they genuinely strand traffic; the first is repaired at 78% of the
#: horizon, the others stay down — restoration is the only way their
#: victims come back.
RESTORATION_SCENARIOS: Dict[str, Tuple[int, int, int, float, int, int,
                                       float, int, int]] = {
    "restore-2regions-hot-fibres": (2, 20, 3, 0.30, 10, 400, 56.0, 8, 7),
    "restore-4regions-hot-fibres": (4, 16, 2, 0.25, 6, 420, 48.0, 8, 11),
}


def _hot_arcs(graph, pairs: List[Tuple], count: int) -> List[Tuple]:
    """The ``count`` most-loaded arcs after routing every pair once."""
    probe = OnlineEngine(graph, wavelengths=len(pairs) + 1,
                         routing="shortest")
    for rid, (source, target) in enumerate(pairs):
        probe.admit(rid, request=Request(source, target))
    family = probe.family
    ranked = sorted(graph.arcs(),
                    key=lambda arc: (-family.load_of_arc(arc), arc))
    return ranked[:count]


def measure_restoration_scenario(name: str) -> Dict[str, object]:
    """Blocking with vs without restoration at equal move budget."""
    (regions, size, coupling, inter, wavelengths, arrivals, load,
     move_budget, seed) = RESTORATION_SCENARIOS[name]
    graph = multi_region_topology(regions=regions, region_size=size,
                                  arc_probability=0.16, coupling=coupling,
                                  seed=seed)
    pool = multi_region_traffic(graph, 240, inter_fraction=inter,
                                seed=seed + 1)
    trace = poisson_trace(pool, arrivals, arrival_rate=load / 3.0,
                          mean_holding=3.0, seed=seed + 2)
    horizon = trace[-1].time
    hot = _hot_arcs(graph, pool.pairs(), 3)
    faults = [cut_event((0.40 + 0.06 * i) * horizon, arc,
                        fault_id=10 ** 6 + i)
              for i, arc in enumerate(hot)]
    faults.append(repair_event(0.78 * horizon, hot[0],
                               fault_id=10 ** 6 + len(hot)))
    events = sort_events(trace + faults)
    common = dict(routing="k_shortest", speculative=True,
                  record_timeline=False,
                  restore_move_budget=move_budget)
    restored = simulate_online(graph, events, wavelengths,
                               restoration=True, **common)
    baseline = simulate_online(graph, events, wavelengths,
                               restoration=False, **common)
    return {
        "scenario": name,
        "kind": "restoration",
        "regions": regions,
        "wavelengths": wavelengths,
        "arrivals": arrivals,
        "offered_load": load,
        "move_budget": move_budget,
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


# ---------------------------------------------------------------------- #
# shed scenarios
# ---------------------------------------------------------------------- #
#: name -> (bursts, burst size, burst spacing, mean holding, wavelengths,
#:          shed_work_budget, shed_burst, shed_queue_depth, seed)
SHED_SCENARIOS: Dict[str, Tuple[int, int, float, float, int,
                                Optional[float], Optional[float],
                                Optional[int], int]] = {
    "shed-burst-work-budget": (30, 12, 1.0, 2.0, 10, 12.0, 24.0, None, 31),
    "shed-burst-queue-depth": (30, 12, 1.0, 2.0, 10, None, None, 4, 37),
}

#: Candidate budget of the shed scenarios' speculative k-shortest runs;
#: one arrival costs this many work units (see ``AdmissionGuard``).
_SHED_K_CANDIDATES = 4


def _burst_trace(pairs: List[Tuple], bursts: int, burst_size: int,
                 spacing: float, mean_holding: float,
                 seed: int) -> List[Event]:
    """``bursts`` equal-timestamp arrival bursts, ``spacing`` apart."""
    rng = random.Random(seed)
    events: List[Event] = []
    rid = 0
    for burst in range(bursts):
        now = burst * spacing
        for _ in range(burst_size):
            source, target = pairs[rid % len(pairs)]
            events.append(Event(now, ARRIVAL, rid,
                                request=Request(source, target)))
            events.append(Event(now + rng.expovariate(1.0 / mean_holding),
                                DEPARTURE, rid))
            rid += 1
    return sort_events(events)


def _per_burst_work(trace: List[Event], result,
                    cost: float) -> List[float]:
    """Routing work per equal-timestamp arrival group, in cost units.

    Shed arrivals cost nothing — the guard rejects them before any
    routing work, which is the point of the guard.
    """
    groups: Dict[float, List[int]] = {}
    for event in trace:
        if event.kind == ARRIVAL:
            groups.setdefault(event.time, []).append(event.request_id)
    return [
        sum(cost for rid in rids if result.rejections.get(rid) != SHED)
        for _, rids in sorted(groups.items())]


def _p99(values: List[float]) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, math.ceil(0.99 * len(ranked)) - 1)]


def measure_shed_scenario(name: str) -> Dict[str, object]:
    """p99 per-burst admission work with vs without the guard."""
    (bursts, burst_size, spacing, mean_holding, wavelengths,
     work_budget, burst_cap, queue_depth, seed) = SHED_SCENARIOS[name]
    graph = multi_region_topology(regions=2, region_size=16,
                                  arc_probability=0.18, coupling=2,
                                  seed=seed)
    pairs = multi_region_traffic(graph, 160, inter_fraction=0.2,
                                 seed=seed + 1).pairs()
    trace = _burst_trace(pairs, bursts, burst_size, spacing, mean_holding,
                         seed + 2)
    common = dict(routing="k_shortest", speculative=True,
                  k_candidates=_SHED_K_CANDIDATES, record_timeline=False)
    unguarded = simulate_online(graph, trace, wavelengths, **common)
    guarded = simulate_online(graph, trace, wavelengths,
                              shed_work_budget=work_budget,
                              shed_burst=burst_cap,
                              shed_queue_depth=queue_depth, **common)
    cost = float(_SHED_K_CANDIDATES)
    p99_unguarded = _p99(_per_burst_work(trace, unguarded, cost))
    p99_guarded = _p99(_per_burst_work(trace, guarded, cost))
    return {
        "scenario": name,
        "kind": "shed",
        "bursts": bursts,
        "burst_size": burst_size,
        "wavelengths": wavelengths,
        "work_budget": work_budget,
        "burst_cap": burst_cap,
        "queue_depth": queue_depth,
        "shed": len(guarded.blocked_shed),
        "p99_work_unguarded": p99_unguarded,
        "p99_work_guarded": p99_guarded,
        "blocking_unguarded": unguarded.blocking_rate,
        "blocking_guarded": guarded.blocking_rate,
        "guard_sheds": len(guarded.blocked_shed) > 0,
        "work_bounded": p99_guarded < p99_unguarded,
    }


def run_recovery_benchmark(repeats: int = 3) -> List[Dict[str, object]]:
    """Run every E17 scenario and return the records."""
    return ([measure_crash_scenario(name, repeats=repeats)
             for name in CRASH_SCENARIOS]
            + [measure_restoration_scenario(name)
               for name in RESTORATION_SCENARIOS]
            + [measure_shed_scenario(name) for name in SHED_SCENARIOS])
