"""Incremental-vs-rebuild benchmark for the online conflict engine.

Times conflict-graph maintenance under churn (constant-concurrency
remove/add traces of 500+ concurrent dipaths, see
:func:`repro.online.events.churn_trace`) under two strategies:

* **rebuild-per-event** — the pre-online behaviour: the conflict graph
  is rebuilt from scratch after every mutation
  (:func:`build_conflict_graph`, a cold build because every mutation
  drops the family's conflict-mask cache);
* **incremental** — the engine's
  :class:`~repro.conflict.ShardedConflictGraph`: O(arcs) per event, with
  adjacency derived from the arc bitmasks only when queried.

Both strategies replay the *same* trace through the same free-list
dynamics, so they end on identically-labelled graphs; the records assert
that (``edges_equal``) and that DSATUR agrees on the colour count
(``colors_equal``).  The steady-state churn phase is the timed region —
the warm-up that fills the system is shared setup.

Record fields deliberately match :mod:`repro.analysis.bench_scaling`
(``legacy_*`` = rebuild, ``new_*`` = incremental), so gate E13 applies
the same timing rule; its claims are declared in
:mod:`repro.analysis.suites` (suite ``online``, ``BENCH_online_engine.json``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from ..conflict.conflict_graph import ConflictGraph, build_conflict_graph
from ..conflict.dynamic import ShardedConflictGraph
from ..coloring.dsatur import dsatur_coloring
from ..dipaths.family import DipathFamily
from ..dipaths.routing import route_all
from ..generators.families import random_walk_family
from ..generators.random_dags import random_dag, random_internal_cycle_free_dag
from ..online.events import ARRIVAL, Event, churn_trace
from ..optical.traffic import hotspot_traffic

__all__ = [
    "ONLINE_SCENARIOS",
    "ONLINE_SPEEDUP_TARGET",
    "build_online_scenario",
    "measure_online_scenario",
    "run_online_benchmark",
]

#: The tentpole target: incremental maintenance must beat rebuild-per-event
#: by at least this factor on churn traces of 500+ concurrent dipaths
#: (gate E13).
ONLINE_SPEEDUP_TARGET = 5.0

#: Churn rounds in the timed steady-state phase of every scenario.
CHURN_EVENTS = 150

ScenarioBuilder = Callable[[], List[Event]]


def _walks_churn() -> List[Event]:
    graph = random_dag(48, 0.12, seed=20260730)
    pool = random_walk_family(graph, 1200, seed=7)
    return churn_trace(pool, 600, CHURN_EVENTS, seed=11)


def _replicated_churn() -> List[Event]:
    graph = random_dag(32, 0.16, seed=99)
    pool = random_walk_family(graph, 26, seed=3).replicate(40)
    return churn_trace(pool, 520, CHURN_EVENTS, seed=13)


def _hotspot_routed_churn() -> List[Event]:
    graph = random_internal_cycle_free_dag(40, 80, seed=5)
    requests = hotspot_traffic(graph, 900, num_hotspots=3, seed=5)
    pool = route_all(graph, requests, policy="shortest")
    return churn_trace(pool, 500, CHURN_EVENTS, seed=17)


ONLINE_SCENARIOS: Dict[str, ScenarioBuilder] = {
    "churn-walks-600": _walks_churn,
    "churn-replicated-520": _replicated_churn,
    "churn-hotspot-routed-500": _hotspot_routed_churn,
}


def build_online_scenario(name: str) -> List[Event]:
    """Materialise the named churn trace (deterministic seeds)."""
    return ONLINE_SCENARIOS[name]()


def _split_warmup(trace: List[Event]) -> Tuple[List[Event], List[Event]]:
    """Split a churn trace into (warm-up arrivals, steady-state events)."""
    cut = 0
    while cut < len(trace) and trace[cut].kind == ARRIVAL:
        cut += 1
    return trace[:cut], trace[cut:]


def _replay_incremental(warmup: List[Event], churn: List[Event]
                        ) -> Tuple[float, ConflictGraph]:
    """Timed churn replay through the live ShardedConflictGraph."""
    conflict = ShardedConflictGraph(DipathFamily())
    slot: Dict[int, int] = {}
    for event in warmup:
        slot[event.request_id] = conflict.add_dipath(event.dipath)
    start = time.perf_counter()
    for event in churn:
        if event.kind == ARRIVAL:
            slot[event.request_id] = conflict.add_dipath(event.dipath)
        else:
            conflict.remove_dipath(slot.pop(event.request_id))
    return time.perf_counter() - start, conflict


def _replay_rebuild(warmup: List[Event], churn: List[Event]
                    ) -> Tuple[float, ConflictGraph]:
    """Timed churn replay rebuilding the conflict graph after every event."""
    family = DipathFamily()
    slot: Dict[int, int] = {}
    for event in warmup:
        slot[event.request_id] = family.add(event.dipath)
    conflict = build_conflict_graph(family)
    start = time.perf_counter()
    for event in churn:
        if event.kind == ARRIVAL:
            slot[event.request_id] = family.add(event.dipath)
        else:
            family.remove(slot.pop(event.request_id))
        conflict = build_conflict_graph(family)
    return time.perf_counter() - start, conflict


def _edge_set(graph: ConflictGraph) -> frozenset:
    return frozenset(graph.edges())


def measure_online_scenario(name: str, trace: List[Event], repeats: int = 3
                            ) -> Dict[str, object]:
    """Time rebuild-per-event vs incremental churn replay; return one record."""
    warmup, churn = _split_warmup(trace)
    legacy_total, legacy_graph = min(
        (_replay_rebuild(warmup, churn) for _ in range(repeats)),
        key=lambda sample: sample[0])
    new_total, new_graph = min(
        (_replay_incremental(warmup, churn) for _ in range(repeats)),
        key=lambda sample: sample[0])
    legacy_colors = len(set(dsatur_coloring(legacy_graph).values()))
    new_colors = len(set(dsatur_coloring(new_graph).values()))
    return {
        "scenario": name,
        "num_dipaths": new_graph.num_vertices,     # steady-state concurrency
        "num_events": len(churn),
        "num_edges": new_graph.num_edges,
        "legacy_total_s": legacy_total,
        "new_total_s": new_total,
        "legacy_event_us": legacy_total / len(churn) * 1e6,
        "new_event_us": new_total / len(churn) * 1e6,
        "speedup_total": legacy_total / new_total if new_total else float("inf"),
        "edges_equal": _edge_set(new_graph) == _edge_set(legacy_graph),
        "colors_equal": new_colors == legacy_colors,
    }


def run_online_benchmark(repeats: int = 3) -> List[Dict[str, object]]:
    """Run every churn scenario and return the records."""
    return [measure_online_scenario(name, build_online_scenario(name),
                                    repeats=repeats)
            for name in ONLINE_SCENARIOS]
