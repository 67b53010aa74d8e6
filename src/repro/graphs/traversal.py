"""Traversal and ordering algorithms on digraphs.

These are the standard building blocks every higher layer relies on:
topological ordering (with directed-cycle certificates), reachability via
BFS/DFS, ancestor/descendant sets, transitive closure and simple dipath
enumeration/counting.  All functions accept any :class:`~repro.graphs.digraph.DiGraph`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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
    "reach_masks",
    "transitive_closure_sets",
    "count_dipaths_matrix",
    "count_dipaths",
    "enumerate_dipaths",
    "shortest_dipath",
    "k_shortest_dipaths",
    "longest_path_length",
]


class _TopoIndex:
    """Facts about an acyclic graph that the DAG queries reuse between calls.

    It lives in the graph's ``_topo_index`` slot and only ever exists for
    an acyclic graph.  It holds:

    * ``at`` / ``pos`` — a topological order (Kahn's order when the index
      was built) and each vertex's position in it; it stays *a*
      topological order across the arc changes the index absorbs;
    * ``kahn`` — Kahn's order of the current arc set (what
      :func:`topological_order` returns), ``None`` after an arc change
      until it is asked for again;
    * ``rank`` — each vertex's position in ``graph.vertices()``, the
      insertion order that breaks :func:`k_shortest_dipaths` ties;
    * ``preds`` — per vertex, filled on demand, its predecessors sorted
      by rank;
    * ``anc`` / ``desc`` — per vertex, a bitmask over positions of the
      vertices that reach it / that it reaches (itself included), built
      by one forward and one backward sweep the first time a query needs
      them (:func:`_masks`), ``None`` until then;
    * ``version`` — the graph version the index describes.

    When the graph's version has moved, :func:`_topo_index` replays the
    arc changes since ``version`` (:meth:`DiGraph.arc_changes_since`)
    through :meth:`absorb`, which patches only what each arc can affect
    and keeps the masks exact.  Vertex changes reset the slot.
    """

    __slots__ = ("at", "pos", "kahn", "rank", "preds", "anc", "desc",
                 "version")

    def __init__(self, graph: DiGraph, order: List[Vertex]) -> None:
        self.version = graph.version
        self.at: List[Vertex] = order
        self.pos: Dict[Vertex, int] = {v: i for i, v in enumerate(order)}
        self.kahn: Optional[List[Vertex]] = order
        self.rank: Dict[Vertex, int] = {
            v: i for i, v in enumerate(graph.vertices())}
        self.preds: Dict[Vertex, List[Vertex]] = {}
        self.anc: Optional[Dict[Vertex, int]] = None
        self.desc: Optional[Dict[Vertex, int]] = None

    def absorb(self, graph: DiGraph,
               changes: List[Tuple[bool, Vertex, Vertex]]) -> bool:
        """Absorb the arc changes since ``version`` (as returned by
        :meth:`DiGraph.arc_changes_since`) into the index of ``graph``.

        Returns ``False`` when the index must be reset instead: an added
        arc against ``pos`` might close a cycle.  Otherwise each head's
        predecessor list and Kahn's order are dropped and the masks are
        brought up to date.  An added arc ``(u, v)`` ORs ``anc[u]`` into
        the ``anc`` of every vertex of ``desc[v]`` and ``desc[v]`` into
        the ``desc`` of every vertex of ``anc[u]`` (nothing when ``u``
        already reached ``v``).  Removed arcs are handled after the adds:
        the masks then describe every arc the graph held during the
        changes, so ``anc`` is recomputed over the union of the removed
        heads' ``desc`` in position order and ``desc`` over the union of
        the removed tails' ``anc`` in reverse order, from the current
        adjacency.  No other mask can change, and none is touched.
        """
        at, pos, anc, desc = self.at, self.pos, self.anc, self.desc
        for added, u, v in changes:
            if added and pos[u] > pos[v]:
                return False
            self.preds.pop(v, None)
            if (added and anc is not None and desc is not None
                    and not anc[v] >> pos[u] & 1):
                gained = anc[u]
                for i in _bits(desc[v]):
                    anc[at[i]] |= gained
                gained = desc[v]
                for i in _bits(anc[u]):
                    desc[at[i]] |= gained
        self.kahn = None
        if anc is None or desc is None:
            return True
        to_heads = from_tails = 0
        for added, u, v in changes:
            if not added:
                to_heads |= desc[v]
                from_tails |= anc[u]
        for i in _bits(to_heads):
            w, mask = at[i], 1 << i
            for p in graph.predecessors(w):
                mask |= anc[p]
            anc[w] = mask
        for i in reversed(list(_bits(from_tails))):
            w, mask = at[i], 1 << i
            for s in graph.successors(w):
                mask |= desc[s]
            desc[w] = mask
        return True


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _kahn(graph: DiGraph) -> Optional[List[Vertex]]:
    """Kahn's topological order of ``graph``; ``None`` on a directed cycle."""
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
    return order if len(order) == graph.num_vertices else None


def _topo_index(graph: DiGraph) -> _TopoIndex:
    """The graph's topology index, brought up to date with the graph's arc
    changes, or built by Kahn's algorithm when it cannot be.

    Raises :class:`NotADAGError` (and caches nothing) on a directed cycle.
    """
    index = graph._topo_index
    if index is not None:
        if index.version == graph.version:
            return index
        changes = graph.arc_changes_since(index.version)
        if changes is not None and index.absorb(graph, changes):
            index.version = graph.version
            return index
        graph._topo_index = None
    order = _kahn(graph)
    if order is None:
        raise NotADAGError(cycle=find_directed_cycle(graph))
    index = graph._topo_index = _TopoIndex(graph, order)
    return index


def _preds(graph: DiGraph, index: _TopoIndex, v: Vertex) -> List[Vertex]:
    """``v``'s predecessors sorted by rank, memoised on the index."""
    preds = index.preds.get(v)
    if preds is None:
        preds = index.preds[v] = sorted(graph.predecessors(v),
                                        key=index.rank.__getitem__)
    return preds


def _masks(graph: DiGraph, index: _TopoIndex
           ) -> Tuple[Dict[Vertex, int], Dict[Vertex, int]]:
    """The index's ``anc`` and ``desc`` masks, built on first use by one
    sweep in position order and one in reverse."""
    anc, desc = index.anc, index.desc
    if anc is None or desc is None:
        at = index.at
        anc, desc = {}, {}
        for i, v in enumerate(at):
            mask = 1 << i
            for p in graph.predecessors(v):
                mask |= anc[p]
            anc[v] = mask
        for i in range(len(at) - 1, -1, -1):
            v = at[i]
            mask = 1 << i
            for s in graph.successors(v):
                mask |= desc[s]
            desc[v] = mask
        index.anc, index.desc = anc, desc
    return anc, desc


def reach_masks(graph: DiGraph) -> Tuple[Dict[Vertex, int],
                                         Dict[Vertex, int],
                                         Dict[Vertex, int]]:
    """``(pos, anc, desc)``: reachability of a DAG as bitmasks.

    ``pos`` maps each vertex to its position in a topological order;
    bit ``pos[x]`` of ``anc[v]`` is set iff ``x`` reaches ``v`` and of
    ``desc[v]`` iff ``v`` reaches ``x`` (``v`` itself included in both).
    The masks live in the topology index memoised on the graph and are
    patched, exactly, across the arc changes it absorbs; treat them as
    read-only and do not hold them across a mutation.

    Raises
    ------
    NotADAGError
        If the digraph contains a directed cycle.
    """
    index = _topo_index(graph)
    anc, desc = _masks(graph, index)
    return index.pos, anc, desc


def topological_order(graph: DiGraph) -> List[Vertex]:
    """Return a topological ordering of ``graph`` (Kahn's algorithm).

    The order is computed once per arc set and memoised on the graph;
    each call returns a fresh list.

    Raises
    ------
    NotADAGError
        If the digraph contains a directed cycle; the exception carries a
        witness cycle.
    """
    index = _topo_index(graph)
    if index.kahn is None:
        # the index exists, so the graph is acyclic and Kahn completes
        index.kahn = _kahn(graph)
    return list(index.kahn)  # type: ignore[arg-type]


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
    """Number of distinct dipaths from ``source`` to ``target`` in a DAG.

    Summed over predecessors in a topological order of the vertices that
    lie on some ``source`` → ``target`` dipath: the set bits of
    ``anc[target] & desc[source]`` in the graph's memoised reachability
    masks (:func:`reach_masks`).
    """
    _check_vertex(graph, source)
    _check_vertex(graph, target)
    if source == target:
        return 0
    index = _topo_index(graph)
    anc, desc = _masks(graph, index)
    pos = index.pos
    if not anc[target] >> pos[source] & 1:
        return 0
    at = index.at
    count: Dict[Vertex, int] = {source: 1}
    for i in _bits(anc[target] & desc[source] ^ 1 << pos[source]):
        v = at[i]
        count[v] = sum(count.get(p, 0) for p in _preds(graph, index, v))
    return count[target]


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

    Dipaths of equal length are ordered by the *rank* of the vertex before
    ``target`` on them, then of the vertex before that, and so on back to
    ``source``; a vertex's rank is its position in ``graph.vertices()``
    (insertion order).  The answer is therefore a function of the arc set
    and the vertex insertion order alone: it does not depend on the
    successor-set layout, on ``PYTHONHASHSEED`` or on the mutation
    history that produced the graph.

    Computed by a pull dynamic program over the vertices that lie on some
    ``source`` → ``target`` dipath, in a topological order: the set bits
    of ``anc[target] & desc[source]`` in the reachability masks memoised
    on the graph (:func:`reach_masks`).  Each vertex takes its
    predecessors in rank order, extends their (up to) ``k`` best partial
    dipaths from ``source`` by itself and stable-sorts the result by
    length.  The masks and the rank-sorted predecessor lists survive,
    patched, the arc changes the index absorbs.  Returns fewer than
    ``k`` paths when the DAG has fewer; the empty list when ``target`` is
    unreachable.

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
    anc, desc = _masks(graph, index)
    pos = index.pos
    if not anc[target] >> pos[source] & 1:
        return []
    at, preds = index.at, index.preds
    buckets: Dict[Vertex, List[List[Vertex]]] = {source: [[source]]}
    # every vertex after source on a source -> target dipath, in order
    between = anc[target] & desc[source] ^ 1 << pos[source]
    while between:
        low = between & -between
        between ^= low
        v = at[low.bit_length() - 1]
        plist = preds.get(v)
        if plist is None:
            plist = _preds(graph, index, v)
        bucket: List[List[Vertex]] = []
        merged = False
        for p in plist:
            paths = buckets.get(p)
            if paths:
                if bucket:
                    bucket.extend(path + [v] for path in paths)
                    merged = True
                else:
                    bucket = [path + [v] for path in paths]
        if merged:
            bucket.sort(key=len)    # stable: predecessor rank breaks ties
            del bucket[k:]
        buckets[v] = bucket
    return buckets[target]


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
