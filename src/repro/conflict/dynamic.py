"""The incrementally maintained conflict graph of the online engine.

:class:`ShardedConflictGraph` keeps the conflict graph of a
:class:`~repro.dipaths.family.DipathFamily` coherent under lightpath
arrivals and departures.  It is a :class:`~repro.conflict.ConflictGraph`
(so every mask-based algorithm — cliques, DSATUR, exact colouring — runs on
it unchanged), but it stores no adjacency at all:

* :meth:`~ShardedConflictGraph.add_dipath` inserts the member into the
  family (which sets the member's bit in each of its arcs' member
  bitmasks) and files it with the shard tracker — O(arcs), however
  conflicted the arriving lightpath is;
* :meth:`~ShardedConflictGraph.remove_dipath` clears those bits and
  detaches the member from its shard — again O(arcs);
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

The graph also tracks the **connected components** of the live graph
through a :class:`~repro.conflict.sharding.ShardTracker` (O(arcs) per
event: arrivals merge the shards owning their arcs, departures mark their
shard for a lazy split-check), exposing
:meth:`~ShardedConflictGraph.shard_map`,
:meth:`~ShardedConflictGraph.shard_view` and the ``component_merges`` /
``component_splits`` / ``shard_rebuilds`` counters — see
:mod:`repro.conflict.sharding`.

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
from .sharding import Shard, ShardTracker, ShardView

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
    per-arc member bitmasks (O(arcs)), the shard tracker re-files the
    member (O(arcs)), and that is all.  Adjacency queries
    (:meth:`neighbor_mask`, :meth:`degree`, and every inherited
    :class:`~repro.conflict.ConflictGraph` algorithm) derive masks on
    demand as the union of the member's arc bitmasks, which costs O(arcs)
    big-int words per queried vertex.
    """

    __slots__ = ("_family", "_tx_stack", "_shards")

    def __init__(self, family: Optional[DipathFamily] = None,
                 graph: Optional[DiGraph] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if family is None:
            family = DipathFamily(graph=graph)
        self._family = family
        #: Open WhatIfTransactions over this graph, outermost first (owned
        #: by repro.online.transaction; empty outside speculation).
        self._tx_stack: list = []
        self._nbr = _LazyAdjacency(self)
        self._vmask = 0
        self._shards = ShardTracker(self.neighbor_mask, family.member_arc_ids,
                                    metrics=metrics)
        for i in family.active_indices():
            self._vmask |= 1 << i
            self._shards.on_add(i, family.member_arc_ids(i))

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
        self._shards.on_add(idx, self._family.member_arc_ids(idx))
        return idx

    def remove_dipath(self, idx: int) -> Dipath:
        """Remove member ``idx``; O(arcs) — no neighbourhood walk.

        Returns its dipath; raises ``IndexError`` if ``idx`` is not active.
        """
        arc_ids = self._family.member_arc_ids(idx)
        path = self._family.remove(idx)
        self._vmask &= ~(1 << idx)
        arc_members = self._family._arc_members
        self._shards.on_remove(
            idx, dead_arcs=tuple(a for a in arc_ids if not arc_members[a]))
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

    def _retract_add(self, idx: int,
                     state: Tuple[bool, int, Optional[int]]) -> None:
        """Family-level retract of an undone add, shard-coherently.

        The transaction layer routes ``DipathFamily._retract_add`` through
        the graph (on a rollback, and after a blocked placement) so arc ids
        the add interned (and the retract now un-interns) also lose their
        shard ownership — the same ids may be recycled for *different*
        arcs later.
        """
        before = len(self._family._arcs)
        self._family._retract_add(idx, state)
        after = len(self._family._arcs)
        if after < before:
            self._shards.on_retract(after, before)

    # ------------------------------------------------------------------ #
    # components / shards
    # ------------------------------------------------------------------ #
    @property
    def component_merges(self) -> int:
        """Shards folded together by arrivals spanning several of them."""
        return self._shards.merges

    @property
    def component_splits(self) -> int:
        """Extra components discovered by lazy split-check rebuilds."""
        return self._shards.splits

    @property
    def shard_rebuilds(self) -> int:
        """Per-shard flood-fill rebuilds run by the lazy split-checks."""
        return self._shards.rebuilds

    def refresh_shards(self) -> int:
        """Run the pending lazy split-checks; return new shards found."""
        return self._shards.refresh()

    def shards(self, refresh: bool = True) -> List[Shard]:
        """The live shards in anchor order (exact components if ``refresh``)."""
        if refresh:
            self._shards.refresh()
        return self._shards.shards()

    def shard_of_member(self, idx: int, refresh: bool = False) -> Shard:
        """The shard currently holding member ``idx``.

        Without ``refresh`` the shard may conservatively overapproximate
        the member's true component (pending split-checks).
        """
        if refresh:
            self._shards.refresh()
        return self._shards.shard_of(idx)

    def shard_map(self, refresh: bool = True) -> Dict[int, List[int]]:
        """``anchor -> sorted member indices`` of every live shard."""
        if refresh:
            self._shards.refresh()
        return self._shards.shard_map()

    def shard_view(self, shard: Shard) -> ShardView:
        """Compact remapped view of ``shard`` (see :class:`ShardView`)."""
        return self._shards.view(shard)

    def audit(self) -> List[str]:
        """Check the component tracker's invariants; return the violations.

        Delegates to :meth:`repro.conflict.sharding.ShardTracker.audit`
        (the origin of the ``audit() -> list[str]`` protocol); composed,
        with the colour-level checks, by ``OnlineEngine.audit()``.
        """
        return self._shards.audit()


DynamicConflictGraph = ShardedConflictGraph
