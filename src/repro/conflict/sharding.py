"""Connected-component sharding of the live conflict graph.

Lightpaths that share no fibre can never conflict, so the conflict graph
of a dipath family splits into independent *components* whose wavelength
assignments are solvable in isolation.  This module maintains that
decomposition incrementally while the online engine churns:

* every interned arc is *owned* by exactly one :class:`Shard`;
* an arrival claims the (previously unowned) arcs of its dipath and joins
  the shard owning them — touching several shards **merges** them
  (small-into-large, so total relabelling stays O(n log n) over a run);
* a departure leaves its shard in place and only marks it *dirty*: the
  shard may now overapproximate a component (departures can split one),
  which is always safe — a shard is a **superset** of the true component
  of each of its members, so shard-local reasoning never misses a
  conflict.  The exact decomposition is restored lazily by
  :meth:`ShardTracker.refresh`, a per-shard mask flood-fill rebuild that
  is counted (``rebuilds``) and reports genuine splits (``splits``).

:class:`ShardView` is the compact read-only projection consumers work on:
shard members are remapped to dense local indices ``0..size-1`` and every
adjacency mask is re-encoded at *shard width*, so mask arithmetic inside
one component costs O(component/64) words no matter how many lightpaths
the whole engine holds.  Views are snapshots: each carries the shard's
version stamp and :meth:`ShardView.is_current` tells whether a structural
event has invalidated it (merge, split, member add/remove).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .._bitops import bit_list, iter_bits
from ..obs.registry import Instrumented, MetricsRegistry
from .conflict_graph import ConflictGraph

__all__ = ["Shard", "ShardTracker", "ShardView"]


class Shard:
    """One live shard: a superset of a conflict-graph component.

    Attributes
    ----------
    member_mask:
        Bitmask of the *global* member indices currently in the shard.
    arc_mask:
        Bitmask of the family arc ids owned by the shard.  Ownership is
        conservative: arcs whose last user departed stay owned until the
        next :meth:`ShardTracker.refresh`.
    version:
        Bumped on every structural change; :class:`ShardView` snapshots
        carry the stamp they were built at.
    dirty:
        Whether a departure may have split the shard since the last
        refresh (the shard is then a superset of >= 1 true components).
    """

    __slots__ = ("member_mask", "arc_mask", "version", "dirty")

    def __init__(self, member_mask: int = 0, arc_mask: int = 0) -> None:
        self.member_mask = member_mask
        self.arc_mask = arc_mask
        self.version = 0
        self.dirty = False

    @property
    def size(self) -> int:
        """Number of members currently in the shard."""
        return self.member_mask.bit_count()

    def members(self) -> List[int]:
        """The global member indices of the shard, sorted."""
        return bit_list(self.member_mask)

    def anchor(self) -> int:
        """The smallest member index — the shard's deterministic label.

        Shard *objects* are created in event order, which is reproducible
        for a fixed trace but awkward to report; the anchor is the stable
        name used by :meth:`ShardTracker.shard_map` and the scheduling
        order of per-shard defragmentation.
        """
        low = self.member_mask & -self.member_mask
        return low.bit_length() - 1

    def __repr__(self) -> str:
        return (f"Shard(size={self.size}, arcs={self.arc_mask.bit_count()}, "
                f"dirty={self.dirty})")


#: ``neighbor_mask(global_index) -> global adjacency mask`` — how the
#: tracker asks the owning graph for adjacency during rebuild flood-fills
#: and view construction (the graph may compute it lazily from arc
#: membership, see ``ShardedConflictGraph``).
NeighborFunction = Callable[[int], int]

#: ``arcs_of(global_index) -> family arc ids`` — how rebuilds re-derive
#: arc ownership from the members that survived a split.
ArcsFunction = Callable[[int], Tuple[int, ...]]


class ShardTracker(Instrumented):
    """Incremental component bookkeeping over family arc ids.

    The tracker never looks at vertex adjacency on the hot path: arrivals
    and departures are classified purely by the *arcs* they use, O(arcs)
    per event.  Adjacency (through ``neighbor_of``) is consulted only by
    the lazy :meth:`refresh` rebuilds and by :meth:`view`.

    Merge/split/rebuild counters publish into the shared metrics registry
    under ``shards.*`` as *diagnostic* metrics: they depend on the
    placement history (speculative add+rollback churn bumps them), so
    they are excluded from the cross-path deterministic snapshot while
    staying reproducible for a fixed seed and configuration.
    """

    __slots__ = ("_neighbor_of", "_arcs_of", "_shard_of_member",
                 "_shard_of_arc", "_join_stamp", "_m_merges", "_m_splits",
                 "_m_rebuilds") + Instrumented._OBS_SLOTS

    def __init__(self, neighbor_of: NeighborFunction,
                 arcs_of: ArcsFunction,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._obs_init("shards", metrics)
        self._neighbor_of = neighbor_of
        self._arcs_of = arcs_of
        self._shard_of_member: Dict[int, Shard] = {}
        self._shard_of_arc: Dict[int, Shard] = {}
        #: member -> (shard joined, its version right after the join,
        #: whether the join merged shards); lets a remove that exactly
        #: undoes the last join skip the dirty flag (the pre-join state
        #: was a valid component).  The shard identity is part of the
        #: stamp: rebuilds and merges relocate members without touching
        #: their stamps, and a bare version number could collide with a
        #: *different* shard's version and wrongly suppress a split
        #: check.  This is what keeps speculative admit+rollback churn
        #: from triggering rebuild storms.
        self._join_stamp: Dict[int, Tuple[Shard, int, bool]] = {}
        #: Arrivals whose arcs touched >= 2 shards (each such event counts
        #: the number of extra shards folded in).
        self._m_merges = self._obs_counter("merges", diagnostic=True)
        #: Components discovered by refresh rebuilds (a rebuild finding k
        #: components records k - 1 splits).
        self._m_splits = self._obs_counter("splits", diagnostic=True)
        #: Per-shard flood-fill rebuilds run by :meth:`refresh`.
        self._m_rebuilds = self._obs_counter("rebuilds", diagnostic=True)

    # Backward-compatible accessors over the registry-backed counters.
    @property
    def merges(self) -> int:
        return self._m_merges.value

    @property
    def splits(self) -> int:
        return self._m_splits.value

    @property
    def rebuilds(self) -> int:
        return self._m_rebuilds.value

    # ------------------------------------------------------------------ #
    # event hooks (called by the owning conflict graph)
    # ------------------------------------------------------------------ #
    def on_add(self, idx: int, arc_ids: Tuple[int, ...]) -> Shard:
        """Place arriving member ``idx`` (using ``arc_ids``); merge shards.

        Returns the shard the member ended up in.  O(arcs) plus the
        amortised small-into-large relabelling cost of merges.
        """
        shard_of_arc = self._shard_of_arc
        touched: List[Shard] = []
        for aid in arc_ids:
            shard = shard_of_arc.get(aid)
            if shard is not None and shard not in touched:
                touched.append(shard)
        if not touched:
            home = Shard()
        else:
            home = max(touched, key=lambda s: s.size)
            for other in touched:
                if other is not home:
                    self._absorb(home, other)
            self._m_merges.inc(len(touched) - 1)
        home.member_mask |= 1 << idx
        home.version += 1
        self._shard_of_member[idx] = home
        self._join_stamp[idx] = (home, home.version, len(touched) > 1)
        for aid in arc_ids:
            if shard_of_arc.get(aid) is not home:
                shard_of_arc[aid] = home
                home.arc_mask |= 1 << aid
        return home

    def on_remove(self, idx: int, dead_arcs: Tuple[int, ...] = ()) -> Shard:
        """Detach departing member ``idx``; mark its shard dirty.

        The shard keeps owning the member's still-used arcs (a later
        arrival on any of them must land in the same shard while the
        split question is open) and becomes *dirty*: it may now cover
        several true components.  O(arcs); the split check is deferred
        to :meth:`refresh`.  The dirty flag is skipped when the removal
        exactly undoes the member's join and that join merged nothing —
        the pre-join decomposition was already exact.

        ``dead_arcs`` are the member's arc ids that just lost their last
        user: ownership of those is dropped immediately — an arrival on
        a now-unused fibre conflicts with nobody through it, so filing
        it into this shard would weld disconnected components together
        in a way no split-check could ever undo (clean removals never
        set the dirty flag).
        """
        shard = self._shard_of_member.pop(idx)
        shard.member_mask &= ~(1 << idx)
        join_shard, join_version, join_merged = \
            self._join_stamp.pop(idx, (None, -1, True))
        undoes_join = (join_shard is shard
                       and shard.version == join_version
                       and not join_merged)
        shard.version += 1
        if not shard.member_mask:
            self._release(shard)
            return shard
        shard_of_arc = self._shard_of_arc
        for aid in dead_arcs:
            if shard_of_arc.get(aid) is shard:
                del shard_of_arc[aid]
                shard.arc_mask &= ~(1 << aid)
        if not undoes_join:
            shard.dirty = True
        return shard

    def on_retract(self, start: int, stop: int) -> None:
        """Forget ownership of the un-interned arc ids ``start..stop-1``.

        Called when a rolled-back speculation un-interns the arcs it
        created (see ``DipathFamily._retract_add``); the ids may be
        reused for *different* arcs later, so stale ownership must go.
        """
        shard_of_arc = self._shard_of_arc
        for aid in range(start, stop):
            shard = shard_of_arc.pop(aid, None)
            if shard is not None:
                shard.arc_mask &= ~(1 << aid)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def shard_of(self, idx: int) -> Shard:
        """The shard currently holding member ``idx`` (raises KeyError)."""
        return self._shard_of_member[idx]

    def shards(self) -> List[Shard]:
        """The live shards, ordered by anchor (deterministic)."""
        seen: Dict[int, Shard] = {}
        for shard in self._shard_of_member.values():
            seen.setdefault(id(shard), shard)
        return sorted(seen.values(), key=Shard.anchor)

    def shard_map(self) -> Dict[int, List[int]]:
        """``anchor -> sorted member indices`` for every live shard.

        Call :meth:`refresh` first for the exact component decomposition;
        without it, dirty shards may still cover several components.
        """
        return {shard.anchor(): shard.members() for shard in self.shards()}

    def audit(self) -> List[str]:
        """Check the tracker's invariants; return the violations found.

        An empty list means the bookkeeping is coherent:

        * every member is filed in exactly one shard, and that shard's
          ``member_mask`` contains it;
        * shard member masks are pairwise disjoint and each shard holds
          at least one member (no zombie shards reachable from the maps);
        * every owned arc's owner is a live shard and the arc is set in
          the owner's ``arc_mask``, and conversely every bit of a shard's
          ``arc_mask`` maps back to that shard;
        * a clean (non-dirty) shard's members are connected through its
          arcs — conservatively checked via each member's filed arcs: a
          member all of whose arcs some *other* shard owns cannot belong
          here.

        The fault-injection and crash-recovery suites run this after arc
        removals and journal replays, where an incoherent tracker would
        otherwise only surface as a wrong admission much later.
        """
        problems: List[str] = []
        covered = 0
        for shard in self.shards():
            if not shard.member_mask:
                problems.append("shard with empty member_mask is reachable")
                continue
            if covered & shard.member_mask:
                problems.append(
                    f"members {bit_list(covered & shard.member_mask)} "
                    f"appear in more than one shard")
            covered |= shard.member_mask
            for aid in iter_bits(shard.arc_mask):
                if self._shard_of_arc.get(aid) is not shard:
                    problems.append(
                        f"arc {aid} is in shard {shard.anchor()}'s "
                        f"arc_mask but owned elsewhere")
        for idx, shard in self._shard_of_member.items():
            if not shard.member_mask >> idx & 1:
                problems.append(
                    f"member {idx} filed in a shard whose member_mask "
                    f"lacks it")
        for aid, shard in self._shard_of_arc.items():
            if not shard.arc_mask >> aid & 1:
                problems.append(
                    f"arc {aid} owned by shard {shard.anchor()} but "
                    f"missing from its arc_mask")
            if not shard.member_mask:
                problems.append(f"arc {aid} owned by an empty shard")
        for idx, shard in self._shard_of_member.items():
            if shard.dirty:
                continue
            arcs = self._arcs_of(idx)
            if arcs and all(self._shard_of_arc.get(a) is not None
                            and self._shard_of_arc[a] is not shard
                            for a in arcs):
                problems.append(
                    f"member {idx} shares no arc with its clean shard "
                    f"{shard.anchor()}")
        return problems

    # ------------------------------------------------------------------ #
    # lazy split repair
    # ------------------------------------------------------------------ #
    def refresh(self) -> int:
        """Rebuild every dirty shard; return the number of new shards.

        For each dirty shard one mask flood-fill per discovered component
        runs over the shard's members (O(members x arcs) through the
        adjacency callback).  The first component keeps the shard object;
        the rest move to fresh shards.  Arc ownership is recomputed from
        the surviving members, dropping arcs nobody uses any more.
        """
        new_shards = 0
        for shard in self.shards():
            if shard.dirty:
                new_shards += self._rebuild(shard)
        return new_shards

    def _rebuild(self, shard: Shard) -> int:
        neighbor_of = self._neighbor_of
        self._m_rebuilds.inc()
        remaining = shard.member_mask
        components: List[int] = []
        while remaining:
            comp = remaining & -remaining
            frontier = comp
            while frontier:
                reached = 0
                for v in iter_bits(frontier):
                    reached |= neighbor_of(v)
                frontier = reached & remaining & ~comp
                comp |= frontier
            components.append(comp)
            remaining &= ~comp
        self._m_splits.inc(len(components) - 1)
        shard_of_arc = self._shard_of_arc
        for aid in iter_bits(shard.arc_mask):
            del shard_of_arc[aid]
        shard.arc_mask = 0
        shard.dirty = False
        shard.version += 1
        homes = [shard] + [Shard() for _ in components[1:]]
        arcs_of = self._arcs_of
        for home, comp in zip(homes, components):
            home.member_mask = comp
            for v in iter_bits(comp):
                self._shard_of_member[v] = home
                for aid in arcs_of(v):
                    if shard_of_arc.get(aid) is not home:
                        shard_of_arc[aid] = home
                        home.arc_mask |= 1 << aid
        return len(components) - 1

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def view(self, shard: Shard) -> "ShardView":
        """Build the compact :class:`ShardView` of ``shard`` (a snapshot)."""
        return ShardView(shard, self._neighbor_of)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _absorb(self, home: Shard, other: Shard) -> None:
        """Merge ``other`` into ``home`` (caller picked ``home`` larger)."""
        for v in iter_bits(other.member_mask):
            self._shard_of_member[v] = home
        shard_of_arc = self._shard_of_arc
        for aid in iter_bits(other.arc_mask):
            shard_of_arc[aid] = home
        home.member_mask |= other.member_mask
        home.arc_mask |= other.arc_mask
        home.dirty = home.dirty or other.dirty
        home.version += 1
        other.member_mask = other.arc_mask = 0

    def _release(self, shard: Shard) -> None:
        """Drop an emptied shard and free its arc ownership."""
        shard_of_arc = self._shard_of_arc
        for aid in iter_bits(shard.arc_mask):
            del shard_of_arc[aid]
        shard.arc_mask = 0
        shard.dirty = False


class ShardView:
    """Read-only compact projection of one shard of the conflict graph.

    Members are remapped to dense local indices ``0..size-1`` (in
    increasing global order, so local order equals global order) and the
    adjacency masks are re-encoded at shard width.  The view is a
    snapshot of the shard at construction time:

    * **compact remap** — ``to_local`` / ``to_global`` translate indices,
      ``neighbor_mask`` returns shard-width masks;
    * **read-only** — the view never writes back; mutate through the
      owning :class:`~repro.conflict.ShardedConflictGraph`;
    * **invalidated on merge/split** — any structural change to the shard
      (member add/remove, merge, split) bumps the shard version and
      :meth:`is_current` turns false; consumers rebuild the view.
    """

    __slots__ = ("_shard", "_version", "_globals", "_local_of", "_masks")

    def __init__(self, shard: Shard, neighbor_of: NeighborFunction) -> None:
        self._shard = shard
        self._version = shard.version
        self._globals: List[int] = shard.members()
        local_of = {g: i for i, g in enumerate(self._globals)}
        self._local_of = local_of
        masks: List[int] = []
        for g in self._globals:
            local = 0
            for j in iter_bits(neighbor_of(g)):
                bit_pos = local_of.get(j)
                if bit_pos is not None:
                    local |= 1 << bit_pos
            masks.append(local)
        self._masks = masks

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of members in the view."""
        return len(self._globals)

    @property
    def shard(self) -> Shard:
        """The shard this view was built from."""
        return self._shard

    def is_current(self) -> bool:
        """Whether the underlying shard is structurally unchanged."""
        return self._shard.version == self._version

    def to_global(self, local: int) -> int:
        """Global member index of local vertex ``local``."""
        return self._globals[local]

    def to_local(self, global_idx: int) -> int:
        """Local vertex of global member ``global_idx`` (raises KeyError)."""
        return self._local_of[global_idx]

    def globals(self) -> List[int]:
        """The global member indices, in local order (ascending)."""
        return list(self._globals)

    def neighbor_mask(self, local: int) -> int:
        """Shard-width adjacency mask of local vertex ``local``."""
        return self._masks[local]

    def degree(self, local: int) -> int:
        """Degree of local vertex ``local`` within the shard."""
        return self._masks[local].bit_count()

    def vertices(self) -> List[int]:
        """The local vertices ``0..size-1``."""
        return list(range(len(self._globals)))

    def as_conflict_graph(self) -> ConflictGraph:
        """The view as a real (local-labelled) :class:`ConflictGraph`.

        Hands the compact masks to any mask-based algorithm (DSATUR,
        cliques, exact colouring) — they run at shard width.
        """
        return ConflictGraph.from_masks(list(self._masks))

    def __len__(self) -> int:
        return len(self._globals)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._globals)))

    def __repr__(self) -> str:
        return (f"ShardView(size={self.size}, "
                f"current={self.is_current()})")
