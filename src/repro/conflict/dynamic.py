"""The incrementally maintained conflict graph of the online engine.

:class:`ShardedConflictGraph` keeps the conflict graph of a
:class:`~repro.dipaths.family.DipathFamily` coherent under lightpath
arrivals and departures.  It is a :class:`~repro.conflict.ConflictGraph`
(so every mask-based algorithm — cliques, DSATUR, exact colouring — runs on
it unchanged), but it stores no adjacency at all:

* :meth:`~ShardedConflictGraph.add_dipath` inserts the member into the
  family (which sets the member's bit in each of its arcs' member
  bitmasks) — O(arcs), however conflicted the arriving lightpath is;
* :meth:`~ShardedConflictGraph.remove_dipath` clears those bits — again
  O(arcs);
* adjacency masks are derived **on demand** as the union of the member's
  arc bitmasks (O(arcs) per queried vertex).  Every inherited read-only
  query reads through a lazy mapping; the structural mutators of the base
  class are refused, because an edge no family member backs would break
  the one invariant below.

Vertex labels are family member indices; after removals they are sparse
(freed slots are recycled by later arrivals).  The mask consumers
(colouring, cliques, independent sets) handle sparse labels natively;
family-level algorithms that need dense indexing (`theorem1`/`theorem6`)
compact sparse families at their entry points, and the per-member
iterators (`DipathFamily.items`, `active_indices`) expose the true member
indices.  At any point the graph equals ``build_conflict_graph(family)``
built from scratch — the invariant the equivalence tests assert.  The
family's own conflict-mask cache plays no part: mutations drop it, and
only offline queries build it.

The **connected components** of the live graph are computed on demand:
:meth:`~ShardedConflictGraph.shard_map` runs the inherited
:meth:`~repro.conflict.ConflictGraph.connected_components` flood fill over
the lazy adjacency and labels each component by its smallest member (its
*anchor*).  Nothing is maintained per event, so a read never mutates the
graph; :meth:`~repro.conflict.ConflictGraph.subgraph` gives one
component's conflict graph for the mask algorithms.

``DynamicConflictGraph`` is a plain alias of :class:`ShardedConflictGraph`,
kept only because ``perfbench/spans.py`` still imports that name.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .._typing import Vertex
from ..dipaths.dipath import Dipath
from ..dipaths.family import DipathFamily
from ..graphs.digraph import DiGraph
from .conflict_graph import ConflictGraph

__all__ = ["ShardedConflictGraph"]


class _LazyAdjacency:
    """Mapping-shaped adjacency that derives each mask from arc members.

    Stands in for the ``vertex -> neighbour mask`` dict of
    :class:`~repro.conflict.ConflictGraph` so every inherited read-only
    query keeps working on :class:`ShardedConflictGraph`; each access
    pays an O(arcs) union instead of reading a stored mask.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: "ShardedConflictGraph") -> None:
        self._graph = graph

    def __getitem__(self, v: int) -> int:
        return self._graph.neighbor_mask(v)

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and self._graph._family.is_active(v)

    def __iter__(self) -> Iterator[int]:
        return iter(self._graph._family.active_indices())

    def __len__(self) -> int:
        return len(self._graph._family)

    def get(self, v: int, default=None):
        try:
            return self[v]
        except KeyError:
            return default

    def keys(self) -> List[int]:
        return self._graph._family.active_indices()

    def values(self) -> List[int]:
        return [self[v] for v in self]

    def items(self) -> Iterator[Tuple[int, int]]:
        return ((v, self[v]) for v in self)


class ShardedConflictGraph(ConflictGraph):
    """The conflict graph of a dipath family, with O(arcs) mutations.

    The hot-path contract of the online engine: arrivals and
    departures never walk their neighbourhood — the family updates its
    per-arc member bitmasks (O(arcs)), and that is all.  Adjacency queries
    (:meth:`neighbor_mask`, :meth:`degree`, and every inherited
    :class:`~repro.conflict.ConflictGraph` algorithm) derive masks on
    demand as the union of the member's arc bitmasks, which costs O(arcs)
    big-int words per queried vertex.
    """

    __slots__ = ("_family", "_tx_stack")

    def __init__(self, family: Optional[DipathFamily] = None,
                 graph: Optional[DiGraph] = None) -> None:
        if family is None:
            family = DipathFamily(graph=graph)
        self._family = family
        #: Open WhatIfTransactions over this graph, outermost first (owned
        #: by repro.online.transaction; empty outside speculation).
        self._tx_stack: list = []
        self._nbr = _LazyAdjacency(self)
        self._vmask = 0
        for i in family.active_indices():
            self._vmask |= 1 << i

    @property
    def family(self) -> DipathFamily:
        """The underlying dipath family (mutate it only through this class)."""
        return self._family

    def neighbor_mask(self, v: int) -> int:
        """Neighbours of ``v`` as a bitmask, derived on demand (O(arcs)).

        Raises ``KeyError`` for an inactive member (the lazy mapping
        delegates here, so this is the one place the derivation lives).
        """
        family = self._family
        if not family.is_active(v):
            raise KeyError(v)
        mask = 0
        arc_members = family._arc_members
        for aid in family._path_arc_ids[v]:
            mask |= arc_members[aid]
        return mask & ~(1 << v)

    def degree(self, v: int) -> int:
        """Degree of ``v`` (pays the on-demand mask derivation)."""
        return self.neighbor_mask(v).bit_count()

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_dipath(self, dipath: Dipath | Sequence[Vertex]) -> int:
        """Add a dipath; O(arcs) — no neighbourhood walk.  Returns its index."""
        idx = self._family.add(dipath)
        self._vmask |= 1 << idx
        return idx

    def remove_dipath(self, idx: int) -> Dipath:
        """Remove member ``idx``; O(arcs) — no neighbourhood walk.

        Returns its dipath; raises ``IndexError`` if ``idx`` is not active.
        """
        path = self._family.remove(idx)
        self._vmask &= ~(1 << idx)
        return path

    def add_vertex(self, v: int) -> None:
        """Refused: a vertex is a family member; use :meth:`add_dipath`."""
        raise TypeError(
            f"{type(self).__name__} derives its vertices from the family; "
            "mutate it through add_dipath/remove_dipath")

    def add_edge(self, u: int, v: int) -> None:
        """Refused: an edge is a shared arc; use :meth:`add_dipath`."""
        raise TypeError(
            f"{type(self).__name__} derives its edges from shared arcs; "
            "mutate it through add_dipath/remove_dipath")

    # ------------------------------------------------------------------ #
    # components
    # ------------------------------------------------------------------ #
    def shard_map(self) -> Dict[int, List[int]]:
        """``anchor -> sorted member indices`` of every conflict component.

        The exact connected components, computed now by one mask flood
        fill per component (O(members x arcs)); the anchor is the smallest
        member, and the map is ordered by anchor.
        """
        return {min(comp): sorted(comp)
                for comp in self.connected_components()}

    def audit(self) -> List[str]:
        """Check the graph's own bookkeeping; return the violations.

        The graph keeps one redundant structure, its vertex mask, which
        must equal the family's active members; composed, with the
        colour-level checks, by ``OnlineEngine.audit()``.
        """
        expected = 0
        for i in self._family.active_indices():
            expected |= 1 << i
        if self._vmask == expected:
            return []
        return [f"vertex mask {self._vmask:#x} disagrees with the family's "
                f"active members {expected:#x}"]


DynamicConflictGraph = ShardedConflictGraph
