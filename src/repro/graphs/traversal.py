"""Traversal and ordering algorithms on digraphs.

These are the standard building blocks every higher layer relies on:
topological ordering (with directed-cycle certificates), reachability via
BFS/DFS, ancestor/descendant sets, transitive closure and simple dipath
enumeration/counting.  All functions accept any :class:`~repro.graphs.digraph.DiGraph`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from ..exceptions import NotADAGError, VertexNotFoundError
from .._typing import Vertex
from .digraph import DiGraph

__all__ = [
    "topological_order",
    "is_acyclic",
    "find_directed_cycle",
    "descendants",
    "ancestors",
    "reachable_from",
    "co_reachable_to",
    "transitive_closure_sets",
    "count_dipaths_matrix",
    "count_dipaths",
    "enumerate_dipaths",
    "shortest_dipath",
    "k_shortest_dipaths",
    "longest_path_length",
]


class _TopoIndex:
    """Per-graph-state facts the DAG queries reuse between calls.

    Holds the Kahn order, each vertex's position in it and, filled on
    demand per target, the :func:`co_reachable_to` sets.  It lives in the
    graph's ``_topo_index`` slot; every :class:`DiGraph` mutator resets
    that slot, so an index is only ever read at the graph state it was
    built from.
    """

    __slots__ = ("order", "pos", "co_reach")

    def __init__(self, order: List[Vertex]) -> None:
        self.order = order
        self.pos: Dict[Vertex, int] = {v: i for i, v in enumerate(order)}
        self.co_reach: Dict[Vertex, Set[Vertex]] = {}


def _topo_index(graph: DiGraph) -> _TopoIndex:
    """The graph's topology index, built by Kahn's algorithm on first use.

    Raises :class:`NotADAGError` (and caches nothing) on a directed cycle.
    """
    index = graph._topo_index
    if index is not None:
        return index
    indeg: Dict[Vertex, int] = {v: graph.in_degree(v) for v in graph.vertices()}
    queue = deque(v for v, d in indeg.items() if d == 0)
    order: List[Vertex] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != graph.num_vertices:
        cycle = find_directed_cycle(graph)
        raise NotADAGError(cycle=cycle)
    index = graph._topo_index = _TopoIndex(order)
    return index


def topological_order(graph: DiGraph) -> List[Vertex]:
    """Return a topological ordering of ``graph`` (Kahn's algorithm).

    The order is computed once per graph state and memoised on the graph;
    each call returns a fresh list.

    Raises
    ------
    NotADAGError
        If the digraph contains a directed cycle; the exception carries a
        witness cycle.
    """
    return list(_topo_index(graph).order)


def is_acyclic(graph: DiGraph) -> bool:
    """Return whether ``graph`` contains no directed cycle."""
    try:
        _topo_index(graph)
    except NotADAGError:
        return False
    return True


def find_directed_cycle(graph: DiGraph) -> Optional[List[Vertex]]:
    """Return a directed cycle ``[v0, ..., vk, v0]`` or ``None``.

    Uses an iterative DFS with colouring; used to build
    :class:`~repro.exceptions.NotADAGError` certificates.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Vertex, int] = {v: WHITE for v in graph.vertices()}
    parent: Dict[Vertex, Optional[Vertex]] = {}

    for root in graph.vertices():
        if color[root] != WHITE:
            continue
        stack: List[tuple[Vertex, Iterable[Vertex]]] = [(root, iter(graph.successors(root)))]
        color[root] = GRAY
        parent[root] = None
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter(graph.successors(w))))
                    advanced = True
                    break
                if color[w] == GRAY:
                    # Found a back arc v -> w: reconstruct the cycle w ... v w.
                    cycle = [v]
                    cur = v
                    while cur != w:
                        cur = parent[cur]  # type: ignore[assignment]
                        cycle.append(cur)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return None


def _check_vertex(graph: DiGraph, v: Vertex) -> None:
    if not graph.has_vertex(v):
        raise VertexNotFoundError(v)


def reachable_from(graph: DiGraph, source: Vertex) -> Set[Vertex]:
    """Vertices reachable from ``source`` by a (possibly empty) dipath."""
    _check_vertex(graph, source)
    seen: Set[Vertex] = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def co_reachable_to(graph: DiGraph, target: Vertex) -> Set[Vertex]:
    """Vertices from which ``target`` is reachable."""
    _check_vertex(graph, target)
    seen: Set[Vertex] = {target}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for w in graph.predecessors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def descendants(graph: DiGraph, v: Vertex) -> Set[Vertex]:
    """Strict descendants of ``v`` (reachable, excluding ``v`` itself)."""
    out = reachable_from(graph, v)
    out.discard(v)
    return out


def ancestors(graph: DiGraph, v: Vertex) -> Set[Vertex]:
    """Strict ancestors of ``v``."""
    out = co_reachable_to(graph, v)
    out.discard(v)
    return out


def transitive_closure_sets(graph: DiGraph) -> Dict[Vertex, Set[Vertex]]:
    """Map every vertex to the set of vertices reachable from it.

    Computed in reverse topological order so each vertex unions its
    successors' sets; O(V * (V + E)) worst case but fast in practice for the
    sparse DAGs used here.
    """
    order = topological_order(graph)
    reach: Dict[Vertex, Set[Vertex]] = {}
    for v in reversed(order):
        acc: Set[Vertex] = set()
        for w in graph.successors(v):
            acc.add(w)
            acc |= reach[w]
        reach[v] = acc
    return reach


def count_dipaths_matrix(graph: DiGraph, cap: Optional[int] = None
                         ) -> Dict[Vertex, Dict[Vertex, int]]:
    """Count dipaths between all ordered pairs of vertices of a DAG.

    Parameters
    ----------
    cap:
        When given, counts are saturated at ``cap`` (useful for the UPP check
        which only needs to know whether a count exceeds 1).

    Returns
    -------
    dict
        ``counts[x][y]`` is the number of distinct dipaths from ``x`` to ``y``
        with at least one arc (``counts[x][x]`` is 0 by convention).
    """
    order = topological_order(graph)
    counts: Dict[Vertex, Dict[Vertex, int]] = {v: {} for v in graph.vertices()}
    # Process sources of paths in reverse topological order: the number of
    # dipaths x -> y is the sum over successors s of x of (1 if s == y) +
    # paths(s, y).
    for x in reversed(order):
        row = counts[x]
        for s in graph.successors(x):
            row[s] = row.get(s, 0) + 1
            for y, c in counts[s].items():
                row[y] = row.get(y, 0) + c
            if cap is not None:
                for y in row:
                    if row[y] > cap:
                        row[y] = cap
    return counts


def count_dipaths(graph: DiGraph, source: Vertex, target: Vertex) -> int:
    """Number of distinct dipaths from ``source`` to ``target`` in a DAG."""
    _check_vertex(graph, source)
    _check_vertex(graph, target)
    if source == target:
        return 0
    index = _topo_index(graph)
    pos = index.pos
    if pos[source] > pos[target]:
        return 0
    count: Dict[Vertex, int] = {target: 1}
    for v in reversed(index.order[pos[source]:pos[target] + 1]):
        if v == target:
            continue
        count[v] = sum(count.get(w, 0) for w in graph.successors(v))
    return count.get(source, 0)


def enumerate_dipaths(graph: DiGraph, source: Vertex, target: Vertex,
                      limit: Optional[int] = None) -> List[List[Vertex]]:
    """Enumerate the dipaths from ``source`` to ``target`` of a DAG.

    Parameters
    ----------
    limit:
        Stop after this many dipaths (useful on graphs with exponentially many
        paths, e.g. the Figure 1 family).
    """
    _check_vertex(graph, source)
    _check_vertex(graph, target)
    results: List[List[Vertex]] = []
    useful = co_reachable_to(graph, target)

    def _extend(path: List[Vertex]) -> bool:
        if limit is not None and len(results) >= limit:
            return False
        v = path[-1]
        if v == target:
            results.append(list(path))
            return limit is None or len(results) < limit
        for w in graph.successors(v):
            if w in useful:
                path.append(w)
                keep_going = _extend(path)
                path.pop()
                if not keep_going:
                    return False
        return True

    if source in useful:
        _extend([source])
    return results


def shortest_dipath(graph: DiGraph, source: Vertex, target: Vertex
                    ) -> Optional[List[Vertex]]:
    """Return a shortest (fewest arcs) dipath from ``source`` to ``target``.

    Returns ``None`` when ``target`` is unreachable.  ``source == target``
    returns the single-vertex path ``[source]``.
    """
    _check_vertex(graph, source)
    _check_vertex(graph, target)
    if source == target:
        return [source]
    parent: Dict[Vertex, Vertex] = {}
    seen: Set[Vertex] = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w in seen:
                continue
            parent[w] = v
            if w == target:
                path = [w]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            seen.add(w)
            queue.append(w)
    return None


def k_shortest_dipaths(graph: DiGraph, source: Vertex, target: Vertex,
                       k: int) -> List[List[Vertex]]:
    """The ``k`` shortest (fewest arcs) dipaths of a DAG, shortest first.

    Computed by a dynamic program over a topological order: each vertex
    keeps its (up to) ``k`` shortest partial dipaths from ``source``, and a
    vertex's bucket is final by the time the order reaches it.  Only the
    slice of the order from ``source`` to ``target`` can hold a partial
    dipath that ends at ``target``, so only that slice is scanned.  Ties
    are broken stably by discovery order, which follows the graph's
    successor-set iteration order: the result is deterministic for a given
    graph layout, not across layouts (see the ROADMAP item
    "Hash-order-free determinism").  The order, the positions and the set
    of vertices that reach ``target`` are memoised on the graph per graph
    state.  Returns fewer than ``k`` paths when the DAG has fewer; the
    empty list when ``target`` is unreachable.

    Raises
    ------
    NotADAGError
        If the digraph contains a directed cycle (the dynamic program
        needs a topological order) and ``target`` is reachable from
        ``source``.
    """
    _check_vertex(graph, source)
    _check_vertex(graph, target)
    if k < 1:
        raise ValueError("k must be >= 1")
    if source == target:
        return [[source]]
    try:
        index = _topo_index(graph)
    except NotADAGError:
        # an unreachable target answers [] even on a cyclic graph
        if source not in co_reachable_to(graph, target):
            return []
        raise
    useful = index.co_reach.get(target)
    if useful is None:
        useful = index.co_reach[target] = co_reachable_to(graph, target)
    if source not in useful:
        return []
    pos = index.pos
    buckets: Dict[Vertex, List[List[Vertex]]] = {source: [[source]]}
    for v in index.order[pos[source]:pos[target] + 1]:
        bucket = buckets.get(v)
        if not bucket:
            continue
        bucket.sort(key=len)        # stable: discovery order breaks ties
        del bucket[k:]
        if v == target:
            continue
        for w in graph.successors(v):
            if w in useful:
                buckets.setdefault(w, []).extend(p + [w] for p in bucket)
    return buckets.get(target, [])


def longest_path_length(graph: DiGraph) -> int:
    """Length (number of arcs) of a longest dipath of the DAG."""
    order = topological_order(graph)
    dist: Dict[Vertex, int] = {v: 0 for v in order}
    best = 0
    for v in order:
        for w in graph.successors(v):
            if dist[v] + 1 > dist[w]:
                dist[w] = dist[v] + 1
                if dist[w] > best:
                    best = dist[w]
    return best
