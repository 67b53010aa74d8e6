"""Sharded-vs-unsharded engine benchmark (E16).

Two claims, recorded in ``BENCH_sharding.json`` by
``scripts/bench_report.py --suite sharding``:

* **Throughput** (``kind == "throughput"``) — on a multi-region topology
  holding 800+ concurrent lightpaths, the component-sharded engine
  (:class:`~repro.conflict.ShardedConflictGraph` structure +
  :class:`~repro.online.ArcColorIndex` forbidden masks) pushes the same
  admission churn and defragmentation passes at least
  :data:`SHARDING_SPEEDUP_TARGET` times faster than the unsharded
  engine.  The two replays must agree on every outcome: same blocked
  arrivals, same final colouring — the speedup buys nothing away.

* **Differential identity** (``kind == "differential"``) — full
  :func:`~repro.online.simulator.simulate_online` runs (speculative
  routing, defrag triggers, timestamp batching) produce identical
  :class:`~repro.online.OnlineResult` records sharded and unsharded, on
  traces whose inter-region lightpaths force component merges and whose
  departures force splits.

The unsharded engine pays O(degree) neighbourhood walks on family-width
masks per event; the sharded engine pays O(arcs) per event and
shard-width masks inside each component, so the gap widens with
concurrency — 800+ concurrent lightpaths over 4 regions is where the
ISSUE pins the gate.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..generators.families import random_walk_family
from ..generators.regions import multi_region_topology, multi_region_traffic
from ..online.events import ARRIVAL, Event, churn_trace, poisson_trace
from ..online.simulator import OnlineEngine, simulate_online

__all__ = [
    "SHARDING_SPEEDUP_TARGET",
    "THROUGHPUT_SCENARIOS",
    "DIFFERENTIAL_SCENARIOS",
    "measure_throughput_scenario",
    "measure_differential_scenario",
    "run_sharding_benchmark",
    "sharding_benchmark_document",
    "sharding_problems",
    "sharding_check_against_baseline",
]

#: The tentpole target: sharded admission+defrag throughput must beat the
#: unsharded engine by at least this factor at 800+ concurrent lightpaths
#: on the 4-region topology (gate E16, ``benchmarks/bench_sharding.py``).
SHARDING_SPEEDUP_TARGET = 3.0

#: Allowed absolute drift of a recorded blocking probability (the traces
#: are seeded, so differential records are deterministic).
_BLOCKING_TOLERANCE = 0.02


# ---------------------------------------------------------------------- #
# throughput scenarios
# ---------------------------------------------------------------------- #
#: name -> (regions, region size, coupling, wavelengths, concurrent
#:          lightpaths, timed churn events, defrag every).  Lightpaths
#: are multi-arc random walks (3+ fibres each), so members genuinely
#: conflict — short shortest-path routes would leave the conflict graph
#: too sparse to stress either engine.  Walks cross the bridge fibres
#: whenever they wander onto one, which is what exercises the merges.
THROUGHPUT_SCENARIOS: Dict[str, Tuple[int, int, int, int, int, int, int]] = {
    "shard-4regions-860": (4, 48, 2, 128, 900, 3000, 1500),
    "shard-6regions-850": (6, 36, 2, 128, 900, 3000, 1500),
}


def _throughput_trace(name: str) -> Tuple[object, List[Event], int, int]:
    """The deterministic pre-routed churn trace of a throughput scenario."""
    (regions, size, coupling, wavelengths, concurrent, events,
     defrag_every) = THROUGHPUT_SCENARIOS[name]
    graph = multi_region_topology(regions=regions, region_size=size,
                                  coupling=coupling, seed=929 + regions)
    pool = random_walk_family(graph, 3300, seed=35, min_length=3)
    trace = churn_trace(pool, concurrent, events, seed=47)
    return graph, trace, wavelengths, defrag_every


def _replay(graph, trace: List[Event], wavelengths: int, defrag_every: int,
            sharded: bool) -> Tuple[float, OnlineEngine, List[int]]:
    """Drive one engine through the trace; time churn + defrag passes.

    The warm-up (the leading pure-arrival prefix that fills the system)
    is shared setup; the timed region is the steady-state churn plus one
    defragmentation pass every ``defrag_every`` processed events.
    """
    engine = OnlineEngine(graph, wavelengths, routing="shortest",
                          sharded=sharded)
    cut = 0
    while cut < len(trace) and trace[cut].kind == ARRIVAL:
        cut += 1
    blocked: List[int] = []
    for event in trace[:cut]:
        if engine.admit(event.request_id, dipath=event.dipath) is not None:
            blocked.append(event.request_id)
    start = time.perf_counter()
    processed = 0
    for event in trace[cut:]:
        if event.kind == ARRIVAL:
            if engine.admit(event.request_id,
                            dipath=event.dipath) is not None:
                blocked.append(event.request_id)
        else:
            engine.depart(event.request_id)
        processed += 1
        if processed % defrag_every == 0:
            engine.defrag(order="highest_wavelength")
    elapsed = time.perf_counter() - start
    return elapsed, engine, blocked


def _engine_outcome(engine: OnlineEngine, blocked: List[int]) -> Tuple:
    """The comparable end state of a replay (colouring, routes, blocking)."""
    coloring = dict(engine.assigner.coloring)
    routes = {i: tuple(engine.family[i].vertices)
              for i in engine.family.active_indices()}
    return (tuple(blocked), tuple(sorted(coloring.items())),
            tuple(sorted(routes.items())),
            engine.assigner.colors_in_use(), engine.family.load())


def measure_throughput_scenario(name: str, repeats: int = 3
                                ) -> Dict[str, object]:
    """Time unsharded vs sharded churn+defrag; return one record."""
    graph, trace, wavelengths, defrag_every = _throughput_trace(name)
    (regions, size, _, _, concurrent, events, _) = \
        THROUGHPUT_SCENARIOS[name]

    legacy_total, legacy_engine, legacy_blocked = min(
        (_replay(graph, trace, wavelengths, defrag_every, sharded=False)
         for _ in range(repeats)), key=lambda sample: sample[0])
    new_total, new_engine, new_blocked = min(
        (_replay(graph, trace, wavelengths, defrag_every, sharded=True)
         for _ in range(repeats)), key=lambda sample: sample[0])
    outcomes_equal = (_engine_outcome(legacy_engine, legacy_blocked)
                      == _engine_outcome(new_engine, new_blocked))
    # settle the lazy split-checks before reading the component counters
    shards = len(new_engine.shard_map())
    return {
        "scenario": name,
        "kind": "throughput",
        "regions": regions,
        "concurrent": new_engine.active,
        "wavelengths": wavelengths,
        "churn_events": events,
        "defrag_passes": new_engine.defrag_passes,
        "defrag_moves": new_engine.defrag_moves,
        "legacy_total_s": legacy_total,
        "new_total_s": new_total,
        "legacy_event_us": legacy_total / events * 1e6,
        "new_event_us": new_total / events * 1e6,
        "speedup_total": legacy_total / new_total if new_total
        else float("inf"),
        "outcomes_equal": outcomes_equal,
        "component_merges": new_engine.conflict.component_merges,
        "component_splits": new_engine.conflict.component_splits,
        "shard_rebuilds": new_engine.conflict.shard_rebuilds,
        "shards": shards,
    }


# ---------------------------------------------------------------------- #
# differential scenarios
# ---------------------------------------------------------------------- #
#: name -> (regions, region size, coupling, inter fraction, wavelengths,
#:          arrivals, offered load, simulate_online extras)
DIFFERENTIAL_SCENARIOS: Dict[str, Tuple] = {
    "diff-4regions-defrag": (
        4, 22, 2, 0.12, 6, 400, 60.0,
        dict(routing="k_shortest", defrag_every=40, defrag_on_block=True)),
    "diff-4regions-speculative-batch": (
        4, 22, 2, 0.12, 6, 400, 60.0,
        dict(routing="k_shortest", speculative=True, batch_policy="greedy")),
}


def measure_differential_scenario(name: str) -> Dict[str, object]:
    """Sharded vs unsharded on one full trace."""
    (regions, size, coupling, inter, wavelengths, arrivals, load,
     extras) = DIFFERENTIAL_SCENARIOS[name]
    graph = multi_region_topology(regions=regions, region_size=size,
                                  coupling=coupling, seed=17 + regions)
    pool = multi_region_traffic(graph, 300, inter_fraction=inter, seed=23)
    trace = poisson_trace(pool, arrivals, arrival_rate=load / 3.0,
                          mean_holding=3.0, seed=5)
    base = simulate_online(graph, trace, wavelengths,
                           record_timeline=False, **extras)
    sharded = simulate_online(graph, trace, wavelengths,
                              record_timeline=False, sharded=True, **extras)
    plain, mirrored = asdict(base), asdict(sharded)
    for field in ("sharded", "component_merges", "component_splits",
                  "shard_rebuilds"):
        plain.pop(field), mirrored.pop(field)
    # metrics diagnostics (shard tracker, colour index) are per-code-path;
    # the deterministic section must and does compare equal
    plain_m, mirrored_m = plain.pop("metrics"), mirrored.pop("metrics")
    metrics_identical = (
        {k: v for k, v in plain_m.items() if k != "diagnostics"}
        == {k: v for k, v in mirrored_m.items() if k != "diagnostics"})
    identical = metrics_identical and plain == mirrored
    return {
        "scenario": name,
        "kind": "differential",
        "regions": regions,
        "wavelengths": wavelengths,
        "arrivals": arrivals,
        "blocking": sharded.blocking_rate,
        "identical": identical,
        "component_merges": sharded.component_merges,
        "component_splits": sharded.component_splits,
        "shard_rebuilds": sharded.shard_rebuilds,
        "merges_exercised": sharded.component_merges > 0,
        "splits_exercised": sharded.component_splits > 0,
    }


# ---------------------------------------------------------------------- #
# suite plumbing (bench_report.py --suite sharding, gate E16)
# ---------------------------------------------------------------------- #
def run_sharding_benchmark(repeats: int = 3,
                           scenarios: Optional[Sequence[str]] = None
                           ) -> List[Dict[str, object]]:
    """Run every (or the selected) E16 scenario and return the records."""
    names = (list(THROUGHPUT_SCENARIOS) + list(DIFFERENTIAL_SCENARIOS)
             if scenarios is None else list(scenarios))
    records: List[Dict[str, object]] = []
    for name in names:
        if name in THROUGHPUT_SCENARIOS:
            records.append(measure_throughput_scenario(name, repeats=repeats))
        else:
            records.append(measure_differential_scenario(name))
    return records


def sharding_benchmark_document(records: List[Dict[str, object]],
                                repeats: int) -> Dict[str, object]:
    """Wrap benchmark records in the ``BENCH_sharding.json`` schema."""
    return {
        "benchmark": "sharded_online_engine",
        "speedup_target": SHARDING_SPEEDUP_TARGET,
        "python": sys.version.split()[0],
        "repeats": repeats,
        "results": records,
    }


def sharding_problems(records: List[Dict[str, object]]) -> List[str]:
    """Records missing the E16 claims, as messages.

    Throughput records must hit :data:`SHARDING_SPEEDUP_TARGET` with
    outcome-identical replays at 800+ concurrent lightpaths; differential
    records must be identical (sharded vs unsharded) on traces that
    exercised both merges and splits.
    """
    problems: List[str] = []
    for record in records:
        name = record["scenario"]
        if record["kind"] == "throughput":
            if float(record["speedup_total"]) < SHARDING_SPEEDUP_TARGET:
                problems.append(
                    f"{name}: sharded speedup {record['speedup_total']:.1f}x "
                    f"is below the {SHARDING_SPEEDUP_TARGET:.0f}x target")
            if not record["outcomes_equal"]:
                problems.append(
                    f"{name}: sharded and unsharded replays disagree on "
                    "blocking or colouring")
            if int(record["concurrent"]) < 800:
                problems.append(
                    f"{name}: only {record['concurrent']} concurrent "
                    "lightpaths — the gate requires 800+")
            continue
        if not record["identical"]:
            problems.append(
                f"{name}: sharded OnlineResult differs from unsharded")
        if not record["merges_exercised"]:
            problems.append(f"{name}: trace never merged components")
    if records and not any(int(r.get("component_splits", 0)) > 0
                           for r in records):
        problems.append(
            "no scenario ever split a component — the lazy split-check "
            "machinery went unexercised")
    return problems


def sharding_check_against_baseline(records: List[Dict[str, object]],
                                    baseline: Dict[str, object],
                                    tolerance: float = 0.20) -> List[str]:
    """Compare a fresh E16 run against a recorded ``BENCH_sharding.json``.

    Throughput uses the familiar two-signal policy: a regression must
    show in both the absolute sharded time and the speedup ratio.
    Differential records are deterministic — identity flags must hold and
    blocking must reproduce within a small absolute slack.
    """
    recorded = {r["scenario"]: r for r in baseline.get("results", [])}
    problems: List[str] = []
    for record in records:
        name = record["scenario"]
        base = recorded.get(name)
        if base is None:
            continue
        if record["kind"] == "throughput":
            current = float(record["new_total_s"])
            allowed = float(base["new_total_s"]) * (1.0 + tolerance)
            ratio = float(record["speedup_total"])
            ratio_floor = float(base["speedup_total"]) / (1.0 + tolerance)
            if current > allowed and ratio < ratio_floor:
                problems.append(
                    f"{name}: sharded replay took {current * 1000:.1f}ms "
                    f"(recorded {float(base['new_total_s']) * 1000:.1f}ms) "
                    f"and its speedup fell to {ratio:.1f}x (recorded "
                    f"{base['speedup_total']:.1f}x) — beyond "
                    f"{tolerance:.0%} on both")
            continue
        drift = abs(float(record["blocking"]) - float(base["blocking"]))
        if drift > _BLOCKING_TOLERANCE:
            problems.append(
                f"{name}: blocking drifted to {record['blocking']:.4f} "
                f"(recorded {base['blocking']:.4f}) — the engine's "
                "decisions changed")
    return problems
