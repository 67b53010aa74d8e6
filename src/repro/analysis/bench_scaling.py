"""Old-vs-new scaling benchmark for the conflict-graph engine.

Times the two pipelines — the frozen seed reference engine
(:mod:`repro.conflict.baseline`: dict-of-sets adjacency, set-based DSATUR)
against the bitset engine (cached conflict masks →
:func:`~repro.conflict.build_conflict_graph` → mask DSATUR) — on generator
families of 500+ dipaths: random-DAG random walks, Theorem 7 Havet-gadget
blow-ups and ``replicate(h)`` multisets of random families.

Gate E12: the claims on these records are declared in
:mod:`repro.analysis.suites` (suite ``conflict``, ``BENCH_conflict_engine.json``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..conflict.baseline import (
    baseline_adjacency,
    baseline_arc_index,
    baseline_conflicting_pairs,
    baseline_dsatur_coloring,
)
from ..conflict.conflict_graph import build_conflict_graph
from ..coloring.dsatur import dsatur_coloring
from ..dipaths.family import DipathFamily
from ..generators.families import random_walk_family
from ..generators.gadgets import havet_family
from ..generators.random_dags import random_dag

__all__ = [
    "SCENARIOS",
    "build_scenario",
    "measure_scenario",
    "run_scaling_benchmark",
    "SPEEDUP_TARGET",
]

#: The tentpole target: the bitset engine must be at least this many times
#: faster than the seed engine on build + DSATUR for families of >= 500
#: dipaths (gate E12).
SPEEDUP_TARGET = 5.0

ScenarioBuilder = Callable[[], DipathFamily]


def _random_dag_walks() -> DipathFamily:
    graph = random_dag(48, 0.12, seed=20260730)
    return random_walk_family(graph, 800, seed=7)


def _havet_blowup() -> DipathFamily:
    # Theorem 7 gadget scaled the way the paper does: every dipath of the
    # 8-dipath Havet family replaced by h identical copies.
    return havet_family(64)


def _replicated_multiset() -> DipathFamily:
    graph = random_dag(32, 0.16, seed=99)
    base = random_walk_family(graph, 26, seed=3)
    return base.replicate(20)


SCENARIOS: Dict[str, ScenarioBuilder] = {
    "random-dag-walks": _random_dag_walks,
    "havet-blowup-h64": _havet_blowup,
    "replicated-multiset-x20": _replicated_multiset,
}


def build_scenario(name: str) -> DipathFamily:
    """Materialise the named scenario family (deterministic seeds)."""
    return SCENARIOS[name]()


#: One timed run: (build seconds, colour seconds, colours used, edge count).
RunSample = Tuple[float, float, int, int]


def _best_of(repeats: int, fn: Callable[[], RunSample]) -> RunSample:
    """Run ``fn`` ``repeats`` times, keep the run with the smallest total time."""
    best: Optional[RunSample] = None
    for _ in range(repeats):
        sample = fn()
        if best is None or sample[0] + sample[1] < best[0] + best[1]:
            best = sample
    assert best is not None
    return best


def measure_scenario(name: str, family: DipathFamily, repeats: int = 3
                     ) -> Dict[str, object]:
    """Time legacy vs bitset build+DSATUR on ``family``; return one record.

    Both engines start from equivalent preconditions: the legacy engine gets
    a prebuilt per-arc index (the seed maintained it incrementally in
    ``add``), the bitset engine a fresh ``family.copy()`` per run so its
    conflict-mask cache is cold inside the timed region.
    """
    n = len(family)

    legacy_index = baseline_arc_index(family)

    def run_legacy() -> RunSample:
        t0 = time.perf_counter()
        adjacency = baseline_adjacency(
            n, baseline_conflicting_pairs(legacy_index))
        t1 = time.perf_counter()
        coloring = baseline_dsatur_coloring(adjacency)
        t2 = time.perf_counter()
        return (t1 - t0, t2 - t1, len(set(coloring.values())),
                sum(len(s) for s in adjacency.values()) // 2)

    def run_new() -> RunSample:
        fresh = family.copy()   # cold conflict-mask cache
        t0 = time.perf_counter()
        conflict = build_conflict_graph(fresh)
        t1 = time.perf_counter()
        coloring = dsatur_coloring(conflict)
        t2 = time.perf_counter()
        return (t1 - t0, t2 - t1, len(set(coloring.values())),
                conflict.num_edges)

    legacy_build, legacy_color, legacy_colors, legacy_edges = \
        _best_of(repeats, run_legacy)
    new_build, new_color, new_colors, new_edges = _best_of(repeats, run_new)
    legacy_total = legacy_build + legacy_color
    new_total = new_build + new_color
    return {
        "scenario": name,
        "num_dipaths": n,
        "num_edges": new_edges,
        "legacy_build_s": legacy_build,
        "legacy_color_s": legacy_color,
        "legacy_total_s": legacy_total,
        "new_build_s": new_build,
        "new_color_s": new_color,
        "new_total_s": new_total,
        "speedup_build": legacy_build / new_build if new_build else float("inf"),
        "speedup_total": legacy_total / new_total if new_total else float("inf"),
        "edges_equal": new_edges == legacy_edges,
        "colors_equal": new_colors == legacy_colors,
    }


def run_scaling_benchmark(repeats: int = 3) -> List[Dict[str, object]]:
    """Run every scenario and return the records."""
    return [measure_scenario(name, build_scenario(name), repeats=repeats)
            for name in SCENARIOS]
