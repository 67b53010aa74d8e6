"""Incrementally maintained conflict graphs.

:class:`DynamicConflictGraph` keeps the conflict graph of a
:class:`~repro.dipaths.family.DipathFamily` coherent under lightpath
arrivals and departures.  It is a :class:`~repro.conflict.ConflictGraph`
(so every mask-based algorithm — cliques, DSATUR, exact colouring — runs on
it unchanged), but instead of being rebuilt per event its per-vertex
adjacency bitmasks are *patched*:

* :meth:`add_dipath` inserts the member into the family (which patches its
  own conflict-mask cache incrementally), reads back the new member's mask
  and ORs the new vertex bit into each neighbour — O(degree) mask updates
  on top of the family's O(shared incidences) index update;
* :meth:`remove_dipath` clears the vertex bit from each neighbour and drops
  the vertex — again O(degree).

Vertex labels are family member indices; after removals they are sparse
(freed slots are recycled by later arrivals).  The mask consumers
(colouring, cliques, independent sets) handle sparse labels natively;
family-level algorithms that need dense indexing (`theorem1`/`theorem6`)
compact sparse families at their entry points, and the per-member
iterators (`DipathFamily.items`, `active_indices`) expose the true member
indices.  At any point the graph equals ``build_conflict_graph(family)``
built from scratch — the invariant the equivalence tests assert.

Both classes additionally track the **connected components** of the live
graph through a :class:`~repro.conflict.sharding.ShardTracker` (O(arcs)
per event: arrivals merge the shards owning their arcs, departures mark
their shard for a lazy split-check), exposing :meth:`shard_map`,
:meth:`shard_view` and the ``component_merges`` / ``component_splits`` /
``shard_rebuilds`` counters — see :mod:`repro.conflict.sharding`.

:class:`ShardedConflictGraph` is the one the online engine runs on: it
skips the eager O(degree) neighbour patching entirely and derives
adjacency masks **on demand** from the family's per-arc member bitmasks
(O(arcs) union per query), so mutation cost per event is O(arcs)
regardless of how conflicted the arriving lightpath is.  Every inherited
:class:`~repro.conflict.ConflictGraph` query still works — reads go
through a lazy mapping — it just pays the O(arcs) derivation per accessed
vertex instead of a stored mask.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .._bitops import iter_bits
from .._typing import Vertex
from ..dipaths.dipath import Dipath
from ..dipaths.family import DipathFamily
from ..graphs.digraph import DiGraph
from .conflict_graph import ConflictGraph
from .sharding import Shard, ShardTracker, ShardView

__all__ = ["DynamicConflictGraph", "ShardedConflictGraph"]


class DynamicConflictGraph(ConflictGraph):
    """The conflict graph of a dipath family, patched per add/remove event."""

    __slots__ = ("_family", "_tx_stack", "_shards", "_metrics")

    def __init__(self, family: Optional[DipathFamily] = None,
                 graph: Optional[DiGraph] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if family is None:
            family = DipathFamily(graph=graph)
        self._family = family
        #: Open WhatIfTransactions over this graph, outermost first (owned
        #: by repro.online.transaction; empty outside speculation).
        self._tx_stack: list = []
        self._metrics = metrics
        masks = family.conflict_masks()     # at most one cold build
        self._nbr = {i: masks[i] for i in family.active_indices()}
        vmask = 0
        for i in self._nbr:
            vmask |= 1 << i
        self._vmask = vmask
        self._shards = self._seed_tracker()

    def _seed_tracker(self) -> ShardTracker:
        """A :class:`ShardTracker` replaying the family's current members."""
        tracker = ShardTracker(self.neighbor_mask,
                               self._family.member_arc_ids,
                               metrics=self._metrics)
        for i in self._family.active_indices():
            tracker.on_add(i, self._family.member_arc_ids(i))
        return tracker

    @property
    def family(self) -> DipathFamily:
        """The underlying dipath family (mutate it only through this class)."""
        return self._family

    def add_dipath(self, dipath: Dipath | Sequence[Vertex]) -> int:
        """Add a dipath to the family and patch the graph; returns its index."""
        idx = self._family.add(dipath)
        mask = self._family.conflict_masks()[idx]
        bit = 1 << idx
        self._nbr[idx] = mask
        self._vmask |= bit
        nbr = self._nbr
        for j in iter_bits(mask):
            nbr[j] |= bit
        self._shards.on_add(idx, self._family.member_arc_ids(idx))
        return idx

    def remove_dipath(self, idx: int) -> Dipath:
        """Remove member ``idx`` from family and graph; returns its dipath."""
        arc_ids = self._family.member_arc_ids(idx)
        path = self._family.remove(idx)     # raises IndexError if not active
        bit = 1 << idx
        mask = self._nbr.pop(idx)
        self._vmask &= ~bit
        nbr = self._nbr
        for j in iter_bits(mask):
            nbr[j] &= ~bit
        arc_members = self._family._arc_members
        self._shards.on_remove(
            idx,
            dead_arcs=tuple(a for a in arc_ids if not arc_members[a]),
            can_split=mask.bit_count() >= 2)
        return path

    def _retract_add(self, idx: int,
                     state: Tuple[bool, int, Optional[int]]) -> None:
        """Family-level retract of a rolled-back add, shard-coherently.

        The transaction layer routes ``DipathFamily._retract_add`` through
        the graph so arc ids the speculation interned (and the retract now
        un-interns) also lose their shard ownership — the same ids may be
        recycled for *different* arcs later.
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


class ShardedConflictGraph(DynamicConflictGraph):
    """A dynamic conflict graph with O(arcs) mutations and lazy adjacency.

    The hot-path contract of the online engine: arrivals and
    departures never walk their neighbourhood — the family updates its
    per-arc member bitmasks (O(arcs)), the shard tracker re-files the
    member (O(arcs)), and that is all.  Adjacency queries
    (:meth:`neighbor_mask`, :meth:`degree`, and every inherited
    :class:`~repro.conflict.ConflictGraph` algorithm) derive masks on
    demand as the union of the member's arc bitmasks, which costs O(arcs)
    big-int words per queried vertex.

    The family's conflict-mask cache is intentionally left cold: as long
    as nobody calls ``family.conflict_masks()`` the family's own add/
    remove skip their O(degree) patch loops too.  (Activating the cache
    is harmless for correctness — mutations then pay the patching again.)
    """

    __slots__ = ()

    def __init__(self, family: Optional[DipathFamily] = None,
                 graph: Optional[DiGraph] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if family is None:
            family = DipathFamily(graph=graph)
        self._family = family
        self._tx_stack = []
        self._metrics = metrics
        self._nbr = _LazyAdjacency(self)
        vmask = 0
        for i in family.active_indices():
            vmask |= 1 << i
        self._vmask = vmask
        self._shards = self._seed_tracker()

    def neighbor_mask(self, v: int) -> int:
        """Neighbours of ``v`` as a bitmask, derived on demand (O(arcs)).

        Raises ``KeyError`` for an inactive member, like the eagerly
        patched base class (the lazy mapping delegates here, so this is
        the one place the derivation lives).
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

    def add_dipath(self, dipath: Dipath | Sequence[Vertex]) -> int:
        """Add a dipath; O(arcs) — no neighbourhood walk."""
        idx = self._family.add(dipath)
        self._vmask |= 1 << idx
        self._shards.on_add(idx, self._family.member_arc_ids(idx))
        return idx

    def remove_dipath(self, idx: int) -> Dipath:
        """Remove member ``idx``; O(arcs) — no neighbourhood walk."""
        arc_ids = self._family.member_arc_ids(idx)
        path = self._family.remove(idx)     # raises IndexError if not active
        self._vmask &= ~(1 << idx)
        arc_members = self._family._arc_members
        self._shards.on_remove(
            idx, dead_arcs=tuple(a for a in arc_ids if not arc_members[a]))
        return path
