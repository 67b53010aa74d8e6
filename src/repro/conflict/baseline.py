"""Frozen *seed* conflict/colouring engine (pure dicts-of-sets).

This module preserves, verbatim in spirit, the pre-bitset implementations of
the conflict-graph pipeline: pair enumeration with an explicit ``seen`` set,
a ``Dict[int, Set[int]]`` adjacency, heap-based DSATUR over neighbour sets
and the set-based exact solvers.  It exists for two reasons:

* **equivalence testing** — ``tests/test_bitset_engine.py`` checks that the
  bitset engine produces identical edges, clique numbers and chromatic
  numbers on seeded random instances;
* **benchmarking** — gate E12 (suite ``conflict`` of
  :mod:`repro.analysis.suites`) times this reference engine against the
  bitset engine to track the speedup (recorded in
  ``BENCH_conflict_engine.json``).

Nothing in the library proper should import this module; treat it as a
read-only historical reference.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..dipaths.family import DipathFamily

__all__ = [
    "baseline_arc_index",
    "baseline_conflicting_pairs",
    "baseline_adjacency",
    "baseline_build_adjacency",
    "baseline_dsatur_coloring",
    "baseline_greedy_clique",
    "baseline_maximum_clique",
    "baseline_clique_number",
    "baseline_is_k_colorable",
    "baseline_chromatic_number",
]

Adjacency = Dict[int, Set[int]]


def baseline_arc_index(family: DipathFamily) -> Dict[Tuple, List[int]]:
    """The seed's per-arc index (arc -> member indices), rebuilt from scratch."""
    index: Dict[Tuple, List[int]] = {}
    for idx, path in enumerate(family):
        for arc in path.arcs():
            index.setdefault(arc, []).append(idx)
    return index


def baseline_conflicting_pairs(arc_index: Dict[Tuple, List[int]]
                               ) -> Iterator[Tuple[int, int]]:
    """Seed pair enumeration: per-arc double loop deduplicated via a set."""
    seen: set = set()
    for members in arc_index.values():
        if len(members) < 2:
            continue
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if i > j:
                    i, j = j, i
                if (i, j) not in seen:
                    seen.add((i, j))
                    yield (i, j)


def baseline_adjacency(num_vertices: int,
                       pairs: Iterator[Tuple[int, int]]) -> Adjacency:
    """Seed conflict-graph construction: dict-of-sets adjacency."""
    adj: Adjacency = {i: set() for i in range(num_vertices)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def baseline_build_adjacency(family: DipathFamily) -> Adjacency:
    """The full seed build pipeline: arc index -> pairs -> dict-of-sets."""
    index = baseline_arc_index(family)
    return baseline_adjacency(len(family), baseline_conflicting_pairs(index))


def baseline_dsatur_coloring(adjacency: Adjacency) -> Dict[Hashable, int]:
    """The seed DSATUR: lazy max-heap over saturation *sets*."""
    if not adjacency:
        return {}
    saturation: Dict[Hashable, Set[int]] = {v: set() for v in adjacency}
    degree: Dict[Hashable, int] = {v: len(nbrs) for v, nbrs in adjacency.items()}
    coloring: Dict[Hashable, int] = {}

    tiebreak = count()
    heap: List[Tuple[int, int, int, Hashable]] = [
        (0, -degree[v], next(tiebreak), v) for v in adjacency]
    heapq.heapify(heap)

    while len(coloring) < len(adjacency):
        while True:
            neg_sat, neg_deg, _, v = heapq.heappop(heap)
            if v in coloring:
                continue
            if -neg_sat == len(saturation[v]):
                break
            heapq.heappush(heap, (-len(saturation[v]), neg_deg,
                                  next(tiebreak), v))
        used = {coloring[w] for w in adjacency[v] if w in coloring}
        c = 0
        while c in used:
            c += 1
        coloring[v] = c
        for w in adjacency[v]:
            if w not in coloring and c not in saturation[w]:
                saturation[w].add(c)
                heapq.heappush(heap, (-len(saturation[w]), -degree[w],
                                      next(tiebreak), w))
    return coloring


def baseline_greedy_clique(adjacency: Adjacency) -> Set[int]:
    """The seed greedy clique (highest-degree start, max-overlap growth)."""
    if not adjacency:
        return set()
    start = max(adjacency, key=lambda v: len(adjacency[v]))
    clique = {start}
    candidates = set(adjacency[start])
    while candidates:
        v = max(candidates, key=lambda u: len(adjacency[u] & candidates))
        clique.add(v)
        candidates &= adjacency[v]
    return clique


def _baseline_coloring_bound(adj: Adjacency, candidates: List[int]) -> List[int]:
    color_of: Dict[int, int] = {}
    classes: List[Set[int]] = []
    for v in sorted(candidates, key=lambda u: len(adj[u] & set(candidates)),
                    reverse=True):
        for c, cls in enumerate(classes):
            if not (adj[v] & cls):
                cls.add(v)
                color_of[v] = c
                break
        else:
            classes.append({v})
            color_of[v] = len(classes) - 1
    return sorted(candidates, key=lambda v: color_of[v])


def _baseline_distinct_greedy_colors(adj: Adjacency, vertices: List[int]) -> int:
    classes: List[Set[int]] = []
    vertex_set = set(vertices)
    for v in vertices:
        nbrs = adj[v] & vertex_set
        for cls in classes:
            if not (nbrs & cls):
                cls.add(v)
                break
        else:
            classes.append({v})
    return len(classes)


def baseline_maximum_clique(adjacency: Adjacency) -> Set[int]:
    """The seed exact maximum clique (branch and bound, set algebra)."""
    adj = adjacency
    best: Set[int] = baseline_greedy_clique(adj)

    def expand(current: Set[int], candidates: Set[int]) -> None:
        nonlocal best
        if not candidates:
            if len(current) > len(best):
                best = set(current)
            return
        ordered = _baseline_coloring_bound(adj, list(candidates))
        while ordered:
            colors_needed = _baseline_distinct_greedy_colors(adj, ordered)
            if len(current) + colors_needed <= len(best):
                return
            v = ordered.pop()
            current.add(v)
            expand(current, candidates & adj[v])
            current.discard(v)
            candidates.discard(v)
            ordered = [u for u in ordered if u in candidates]

    expand(set(), set(adj))
    return best


def baseline_clique_number(adjacency: Adjacency) -> int:
    """Seed ``omega``."""
    return len(baseline_maximum_clique(adjacency))


def baseline_is_k_colorable(adjacency: Adjacency, k: int
                            ) -> Optional[Dict[Hashable, int]]:
    """The seed backtracking ``k``-colourability solver (set-based)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    vertices = list(adjacency)
    index = {v: i for i, v in enumerate(vertices)}
    int_adj: List[Set[int]] = [set() for _ in vertices]
    for v, nbrs in adjacency.items():
        vi = index[v]
        for w in nbrs:
            if w in index:
                int_adj[vi].add(index[w])
    n = len(vertices)
    if n == 0:
        return {}
    if k == 0:
        return None
    colors: List[int] = [-1] * n
    neighbour_colors: List[Set[int]] = [set() for _ in range(n)]

    def choose_vertex() -> int:
        best_v, best_key = -1, (-1, -1)
        for v in range(n):
            if colors[v] != -1:
                continue
            key = (len(neighbour_colors[v]), len(int_adj[v]))
            if key > best_key:
                best_key, best_v = key, v
        return best_v

    def backtrack(num_colored: int, max_used: int) -> bool:
        if num_colored == n:
            return True
        v = choose_vertex()
        if len(neighbour_colors[v]) >= k:
            return False
        allowed = [c for c in range(min(max_used + 2, k))
                   if c not in neighbour_colors[v]]
        for c in allowed:
            colors[v] = c
            touched: List[int] = []
            for w in int_adj[v]:
                if colors[w] == -1 and c not in neighbour_colors[w]:
                    neighbour_colors[w].add(c)
                    touched.append(w)
            if backtrack(num_colored + 1, max(max_used, c)):
                return True
            colors[v] = -1
            for w in touched:
                neighbour_colors[w].discard(c)
        return False

    if not backtrack(0, -1):
        return None
    return {vertices[i]: colors[i] for i in range(n)}


def baseline_chromatic_number(adjacency: Adjacency) -> int:
    """Seed exact chromatic number (DSATUR upper bound, then downward search)."""
    if not adjacency:
        return 0
    upper_coloring = baseline_dsatur_coloring(adjacency)
    best_count = len(set(upper_coloring.values()))
    k = best_count - 1
    lower = len(baseline_greedy_clique(adjacency))
    while k >= lower:
        attempt = baseline_is_k_colorable(adjacency, k)
        if attempt is None:
            break
        best_count = len(set(attempt.values()))
        k = best_count - 1
    return best_count
