"""A lightweight simple digraph implemented over hash-map adjacency.

The class below is the foundation of the whole library.  It is intentionally
minimal and dependency-free: a *simple* digraph (no parallel arcs, no
self-loops) whose vertices may be any hashable objects.  Adjacency is stored
twice (successor sets and predecessor sets) so that both out- and in-neighbour
queries are O(1) amortised, which the load/conflict computations and the
internal-cycle machinery rely on heavily.

``networkx`` interoperability lives in :mod:`repro.graphs.convert`; the core
algorithms never require networkx.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..exceptions import (
    ArcNotFoundError,
    DuplicateArcError,
    SelfLoopError,
    VertexNotFoundError,
)
from .._typing import Arc, ArcIterable, Vertex

__all__ = ["DiGraph"]

#: How many arc changes :meth:`DiGraph.arc_changes_since` can look back.
ARC_LOG_SIZE = 64


class DiGraph:
    """A simple directed graph (no parallel arcs, no self-loops).

    Parameters
    ----------
    arcs:
        Optional iterable of ``(tail, head)`` pairs used to populate the graph.
    vertices:
        Optional iterable of vertices added up front (isolated vertices are
        allowed and preserved).

    Examples
    --------
    >>> g = DiGraph(arcs=[("a", "b"), ("b", "c")])
    >>> sorted(g.successors("a"))
    ['b']
    >>> g.num_arcs
    2
    """

    __slots__ = ("_succ", "_pred", "_num_arcs", "_version", "_topo_index",
                 "_arc_log")

    def __init__(self, arcs: ArcIterable | None = None,
                 vertices: Iterable[Vertex] | None = None) -> None:
        self._succ: Dict[Vertex, Set[Vertex]] = {}
        self._pred: Dict[Vertex, Set[Vertex]] = {}
        self._num_arcs: int = 0
        self._version: int = 0
        self._topo_index: Any = None
        self._arc_log: deque = deque(maxlen=ARC_LOG_SIZE)
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if arcs is not None:
            for u, v in arcs:
                self.add_arc(u, v)

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v`` (a no-op if already present)."""
        if v not in self._succ:
            self._succ[v] = set()
            self._pred[v] = set()
            self._topo_index = None

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex of ``vertices``."""
        for v in vertices:
            self.add_vertex(v)

    def add_arc(self, u: Vertex, v: Vertex, *, strict: bool = False) -> None:
        """Add the arc ``(u, v)``; missing endpoints are created.

        Parameters
        ----------
        strict:
            When true, adding an arc that is already present raises
            :class:`~repro.exceptions.DuplicateArcError` instead of being a
            silent no-op.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._succ[u]:
            if strict:
                raise DuplicateArcError((u, v))
            return
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._num_arcs += 1
        self._version += 1
        self._arc_log.append((True, u, v))

    def add_arcs(self, arcs: ArcIterable) -> None:
        """Add every arc of ``arcs`` (duplicates are ignored)."""
        for u, v in arcs:
            self.add_arc(u, v)

    def add_dipath(self, vertices: Iterable[Vertex]) -> None:
        """Add all arcs of the dipath described by ``vertices``."""
        seq = list(vertices)
        for u, v in zip(seq, seq[1:]):
            self.add_arc(u, v)

    def remove_arc(self, u: Vertex, v: Vertex) -> None:
        """Remove arc ``(u, v)``; raises if it is absent."""
        if u not in self._succ or v not in self._succ[u]:
            raise ArcNotFoundError((u, v))
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._num_arcs -= 1
        self._version += 1
        self._arc_log.append((False, u, v))

    def remove_vertex(self, v: Vertex) -> None:
        """Remove vertex ``v`` together with all incident arcs."""
        if v not in self._succ:
            raise VertexNotFoundError(v)
        for w in list(self._succ[v]):
            self.remove_arc(v, w)
        for u in list(self._pred[v]):
            self.remove_arc(u, v)
        del self._succ[v]
        del self._pred[v]
        self._topo_index = None
        # a vertex change is not an arc change: callers that read the log
        # must start over rather than patch across it
        self._arc_log.clear()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Monotone arc-structure stamp, bumped on every arc add/remove.

        Route caches key their validity on this: a cached dipath (or
        candidate list) computed at version ``k`` may be stale iff
        ``graph.version != k``, and :meth:`arc_changes_since` names the
        arcs that changed in between.  Vertex-only additions do not bump
        it — an isolated vertex cannot create or destroy a dipath.

        The topology index of :mod:`repro.graphs.traversal` (a topological
        order, vertex ranks, rank-sorted predecessor lists and per-vertex
        reachability bitmasks) is the second cache that follows graph
        mutations.  On its next read it replays the arc changes since its
        own version, patching only the entries each arc can affect; an
        added arc that might close a cycle rebuilds it, and every vertex
        change resets it at once, because a vertex change moves the ranks.
        """
        return self._version

    def arc_changes_since(self, version: int
                          ) -> Optional[List[Tuple[bool, Vertex, Vertex]]]:
        """The arc changes that took the graph from ``version`` to now.

        Returns ``(added, tail, head)`` triples, oldest first (``added`` is
        false for a removal), the empty list when ``version`` is current,
        and ``None`` when the log cannot account for the gap: more than
        :data:`ARC_LOG_SIZE` changes ago, a vertex removed since, a version
        from another graph or from the future.  A caller holding state
        derived at ``version`` must then rebuild it from scratch.
        """
        gap = self._version - version
        log = self._arc_log
        if gap < 0 or gap > len(log):
            return None
        return list(islice(log, len(log) - gap, None))

    def has_vertex(self, v: Vertex) -> bool:
        """Return whether ``v`` is a vertex of the graph."""
        return v in self._succ

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        """Return whether ``(u, v)`` is an arc of the graph."""
        return u in self._succ and v in self._succ[u]

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the vertices (insertion order)."""
        return iter(self._succ)

    def arcs(self) -> Iterator[Arc]:
        """Iterate over the arcs as ``(tail, head)`` pairs."""
        for u, nbrs in self._succ.items():
            for v in nbrs:
                yield (u, v)

    def successors(self, v: Vertex) -> Set[Vertex]:
        """Return the set of out-neighbours of ``v``.

        This is the **internal** set, exposed without copying because the
        traversal/load/conflict hot loops call it once per visited arc —
        treat it as a read-only view and copy (``set(...)``) before mutating
        the graph while holding it.
        """
        try:
            return self._succ[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def predecessors(self, v: Vertex) -> Set[Vertex]:
        """Return the set of in-neighbours of ``v`` (read-only view, see
        :meth:`successors`)."""
        try:
            return self._pred[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def out_degree(self, v: Vertex) -> int:
        """Number of arcs leaving ``v``."""
        try:
            return len(self._succ[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def in_degree(self, v: Vertex) -> int:
        """Number of arcs entering ``v``."""
        try:
            return len(self._pred[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: Vertex) -> int:
        """Total degree (in + out) of ``v``."""
        return self.in_degree(v) + self.out_degree(v)

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._succ)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        return self._num_arcs

    def sources(self) -> list[Vertex]:
        """Vertices with in-degree 0 (the paper's *sources*)."""
        return [v for v in self._succ if not self._pred[v]]

    def sinks(self) -> list[Vertex]:
        """Vertices with out-degree 0 (the paper's *sinks*)."""
        return [v for v in self._succ if not self._succ[v]]

    def internal_vertices(self) -> list[Vertex]:
        """Vertices with in-degree > 0 **and** out-degree > 0.

        These are exactly the vertices allowed on an *internal cycle*
        (paper, Section 2).
        """
        return [v for v in self._succ if self._pred[v] and self._succ[v]]

    def isolated_vertices(self) -> list[Vertex]:
        """Vertices with no incident arc."""
        return [v for v in self._succ
                if not self._pred[v] and not self._succ[v]]

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def copy(self) -> "DiGraph":
        """Return an independent copy of the graph."""
        g = type(self).__new__(type(self))
        g._succ = {v: set(s) for v, s in self._succ.items()}
        g._pred = {v: set(p) for v, p in self._pred.items()}
        g._num_arcs = self._num_arcs
        g._version = self._version
        g._topo_index = None
        g._arc_log = deque(maxlen=ARC_LOG_SIZE)
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "DiGraph":
        """Return the subgraph induced by ``vertices`` (same class)."""
        ordered = list(dict.fromkeys(vertices))
        keep = set(ordered)
        missing = keep - set(self._succ)
        if missing:
            raise VertexNotFoundError(next(iter(missing)))
        g = DiGraph(vertices=ordered)
        for u in ordered:
            for v in self._succ[u]:
                if v in keep:
                    g.add_arc(u, v)
        return g

    def reverse(self) -> "DiGraph":
        """Return the digraph with every arc reversed."""
        g = DiGraph(vertices=self.vertices())
        for u, v in self.arcs():
            g.add_arc(v, u)
        return g

    def underlying_edges(self) -> Set[Tuple[Vertex, Vertex]]:
        """Edges of the underlying undirected graph.

        Each undirected edge is reported once, as a tuple whose endpoints are
        ordered by ``repr`` to obtain a canonical form independent of arc
        orientation.  Note that in a DAG, ``(u, v)`` and ``(v, u)`` cannot both
        be arcs, so the underlying graph is simple.
        """
        edges: Set[Tuple[Vertex, Vertex]] = set()
        for u, v in self.arcs():
            edges.add(_undirected_key(u, v))
        return edges

    def underlying_adjacency(self) -> Dict[Vertex, Set[Vertex]]:
        """Adjacency map of the underlying undirected graph."""
        adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in self._succ}
        for u, v in self.arcs():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, item: Any) -> bool:
        if isinstance(item, tuple) and len(item) == 2 and self.has_arc(*item):
            return True
        return self.has_vertex(item)

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[Vertex]:
        return self.vertices()

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        # The default slot state minus the topology index and the change
        # log: a pickled graph (e.g. sent to a process-pool worker) arrives
        # with a cold index and an empty log, like a copy.
        return None, {"_succ": self._succ, "_pred": self._pred,
                      "_num_arcs": self._num_arcs, "_version": self._version}

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._topo_index = None
        self._arc_log = deque(maxlen=ARC_LOG_SIZE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (set(self._succ) == set(other._succ)
                and all(self._succ[v] == other._succ[v] for v in self._succ))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"{type(self).__name__}(|V|={self.num_vertices}, "
                f"|A|={self.num_arcs})")

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_adjacency(cls, adjacency: Dict[Vertex, Iterable[Vertex]]) -> "DiGraph":
        """Build a digraph from a ``{tail: [heads...]}`` mapping."""
        g = cls()
        for u, heads in adjacency.items():
            g.add_vertex(u)
            for v in heads:
                g.add_arc(u, v)
        return g

    @classmethod
    def from_arcs(cls, arcs: ArcIterable) -> "DiGraph":
        """Build a digraph from an iterable of arcs."""
        return cls(arcs=arcs)


def _undirected_key(u: Vertex, v: Vertex) -> Tuple[Vertex, Vertex]:
    """Canonical (order-independent) key for an undirected edge ``{u, v}``."""
    a, b = (u, v)
    try:
        if b < a:  # type: ignore[operator]
            a, b = b, a
    except TypeError:
        if repr(b) < repr(a):
            a, b = b, a
    return (a, b)
