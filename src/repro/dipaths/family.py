"""Families of dipaths and their per-arc load.

A :class:`DipathFamily` is an ordered multiset of dipaths (the paper's
``P``): identical dipaths may appear several times — Theorem 7 replicates
every dipath of a gadget ``h`` times, and such copies conflict with each
other since they share all their arcs.  The family indexes its members by
position (0-based), which is also the vertex identity used by the conflict
graph and by all colourings (a colouring is a mapping ``index -> colour``).

Arcs are *interned* to dense integer ids as members are added: every dipath
is recorded as a tuple of arc ids, and each arc id keeps the bitmask of
member indices that use it.  Load queries are therefore proportional to the
number of (arc, dipath) incidences rather than quadratic in the family size.

The family is *dynamic*: :meth:`remove` retires a member and recycles its
index through a free-list, so the online engine (:mod:`repro.online`) can
model lightpath departures without renumbering the survivors.  Mutations
cost O(arcs) each: they touch the arc bitmasks and the load histogram,
nothing else.

Offline conflict queries (:meth:`conflict_masks`, :meth:`conflicting_pairs`,
:meth:`conflicts_of`, and :func:`~repro.conflict.build_conflict_graph` on
top of them) read per-member bitmasks (bit ``j`` of ``conflict_masks()[i]``
set iff members ``i`` and ``j`` share an arc) from a cache built cold on
first use and counted by :attr:`mask_rebuilds`.  Every mutation drops that
cache rather than patching it, so a family that was queried once never
pays O(degree) upkeep for the rest of its life; the online engine reads
adjacency from the arc bitmasks instead (see
:class:`~repro.conflict.ShardedConflictGraph`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import InvalidDipathError, TransactionError
from .._bitops import bit_list, iter_bits
from .._typing import Arc, Vertex
from ..graphs.digraph import DiGraph
from .dipath import Dipath

__all__ = ["DipathFamily"]


class DipathFamily:
    """An ordered multiset of dipaths with a per-arc load index.

    Parameters
    ----------
    dipaths:
        Iterable of :class:`Dipath` (or vertex sequences, which are converted).
    graph:
        Optional digraph against which every dipath is validated.

    Examples
    --------
    >>> fam = DipathFamily([["a", "b", "c"], ["b", "c", "d"]])
    >>> fam.load()
    2
    >>> fam.load_of_arc(("b", "c"))
    2
    """

    __slots__ = ("_paths", "_graph", "_arc_ids", "_arcs", "_arc_members",
                 "_path_arc_ids", "_conflict_masks", "_load_cache",
                 "_load_hist", "_free_slots", "_mask_rebuilds")

    def __init__(self, dipaths: Iterable[Dipath | Sequence[Vertex]] = (),
                 graph: Optional[DiGraph] = None) -> None:
        self._paths: List[Optional[Dipath]] = []    # None marks a freed slot
        self._graph = graph
        self._arc_ids: Dict[Arc, int] = {}          # arc -> dense arc id
        self._arcs: List[Arc] = []                  # arc id -> arc
        self._arc_members: List[int] = []           # arc id -> member bitmask
        self._path_arc_ids: List[Tuple[int, ...]] = []  # member -> arc ids
        self._conflict_masks: Optional[List[int]] = None
        self._load_cache: Optional[int] = None
        # positive load -> number of arcs at that load; maintained together
        # with _load_cache so load() is O(1) under arbitrary churn
        self._load_hist: Optional[Dict[int, int]] = None
        self._free_slots: List[int] = []            # recycled member indices
        self._mask_rebuilds: int = 0
        for p in dipaths:
            self.add(p)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, dipath: Dipath | Sequence[Vertex]) -> int:
        """Add a dipath to the family and return its index.

        Freed slots (see :meth:`remove`) are recycled before new indices are
        allocated.  Drops the conflict-mask cache.
        """
        if not isinstance(dipath, Dipath):
            dipath = Dipath(dipath, graph=self._graph)
        elif self._graph is not None and not dipath.is_valid_in(self._graph):
            raise InvalidDipathError(
                f"{dipath!r} is not a dipath of the attached digraph")
        if self._free_slots:
            idx = self._free_slots.pop()
            self._paths[idx] = dipath
        else:
            idx = len(self._paths)
            self._paths.append(dipath)
            self._path_arc_ids.append(())
        arc_ids = self._arc_ids
        arc_members = self._arc_members
        bit = 1 << idx
        ids: List[int] = []
        for arc in dipath.arcs():
            aid = arc_ids.get(arc)
            if aid is None:
                aid = len(self._arcs)
                arc_ids[arc] = aid
                self._arcs.append(arc)
                self._arc_members.append(0)
            arc_members[aid] |= bit
            ids.append(aid)
        self._path_arc_ids[idx] = tuple(ids)
        self._conflict_masks = None
        hist = self._load_hist
        if hist is not None:
            cache = self._load_cache
            for aid in ids:
                count = arc_members[aid].bit_count()
                if count > 1:
                    hist[count - 1] -= 1
                hist[count] = hist.get(count, 0) + 1
                if count > cache:
                    cache = count
            self._load_cache = cache
        return idx

    def remove(self, idx: int) -> Dipath:
        """Remove member ``idx`` and return its dipath.

        The index goes onto a free-list and is recycled by a later
        :meth:`add`; surviving members keep their indices.  Drops the
        conflict-mask cache.  Raises ``IndexError`` for an index that is
        not an active member.
        """
        if not 0 <= idx < len(self._paths) or self._paths[idx] is None:
            raise IndexError(f"member {idx} is not an active member")
        path = self._paths[idx]
        unbit = ~(1 << idx)
        hist = self._load_hist
        if hist is None:
            for aid in self._path_arc_ids[idx]:
                self._arc_members[aid] &= unbit
        else:
            # O(1) histogram maintenance per arc: drop each arc one load
            # level and walk the maximum down while its level is empty
            cache = self._load_cache
            arc_members = self._arc_members
            for aid in self._path_arc_ids[idx]:
                count = arc_members[aid].bit_count()
                arc_members[aid] &= unbit
                hist[count] -= 1
                if count > 1:
                    hist[count - 1] = hist.get(count - 1, 0) + 1
            while cache and not hist.get(cache, 0):
                cache -= 1
            self._load_cache = cache
        self._conflict_masks = None
        self._paths[idx] = None
        self._path_arc_ids[idx] = ()
        self._free_slots.append(idx)
        return path

    def extend(self, dipaths: Iterable[Dipath | Sequence[Vertex]]) -> None:
        """Append every dipath of ``dipaths``."""
        for p in dipaths:
            self.add(p)

    def replicate(self, copies: int) -> "DipathFamily":
        """Return a new family with every dipath repeated ``copies`` times.

        This is the operation used by Theorems 6/7 to scale gadget families:
        replicating multiplies the load by ``copies`` while the conflict
        graph becomes the lexicographic blow-up of the original one.
        """
        if copies < 1:
            raise ValueError("copies must be >= 1")
        out = DipathFamily(graph=self._graph)
        for p in self._paths:
            if p is None:
                continue
            for _ in range(copies):
                out.add(p)
        return out

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def dipaths(self) -> Tuple[Dipath, ...]:
        """The active dipaths of the family, in index order.

        After removals this skips freed slots, so positions in the returned
        tuple need not equal member indices — use :meth:`active_indices` for
        the index correspondence.
        """
        return tuple(p for p in self._paths if p is not None)

    @property
    def graph(self) -> Optional[DiGraph]:
        """The digraph the family is attached to (may be ``None``)."""
        return self._graph

    @property
    def num_slots(self) -> int:
        """Number of member slots ever allocated (active + freed)."""
        return len(self._paths)

    def active_indices(self) -> List[int]:
        """Indices of the active (non-removed) members, sorted."""
        return [i for i, p in enumerate(self._paths) if p is not None]

    def items(self) -> Iterator[Tuple[int, Dipath]]:
        """Iterate over ``(member index, dipath)`` pairs of active members.

        Unlike ``enumerate(family)``, whose positions drift once slots have
        been freed, the yielded indices are the member indices that conflict
        masks and colourings are keyed by.
        """
        return ((i, p) for i, p in enumerate(self._paths) if p is not None)

    def is_active(self, idx: int) -> bool:
        """Whether ``idx`` is the index of an active member."""
        return 0 <= idx < len(self._paths) and self._paths[idx] is not None

    @property
    def mask_rebuilds(self) -> int:
        """How many times the conflict-mask cache was built from scratch.

        Every mutation drops the cache, so this counts the offline queries
        that found it cold — the online engine never moves it.
        """
        return self._mask_rebuilds

    # ------------------------------------------------------------------ #
    # speculation support (see repro.online.transaction)
    # ------------------------------------------------------------------ #
    def _spec_state(self) -> Tuple[bool, int, Optional[int]]:
        """O(1) pre-:meth:`add` state capture for the transaction layer.

        Records whether the next add will allocate a fresh slot, the arc
        watermark (arcs interned so far) and the load cache, which is
        everything :meth:`remove` cannot restore by itself.
        """
        return (not self._free_slots, len(self._arcs), self._load_cache)

    def _retract_add(self, idx: int, state: Tuple[bool, int, Optional[int]]
                     ) -> None:
        """Erase the structural traces of an :meth:`add` after its
        :meth:`remove`, restoring the family bit-identically to the state
        captured by ``state``.

        :meth:`remove` already clears the member's bits everywhere but
        leaves three traces a plain remove is allowed to keep: the recycled
        index on the free-list (when the add allocated a fresh slot), any
        arcs the dipath interned first, and a possibly-changed load cache.
        Undoing them is O(new arcs) — the transaction layer calls this
        last-in-first-out, so the traces are guaranteed to sit at the tails
        of their lists.  Like every mutation it drops the conflict-mask
        cache.
        """
        slot_was_new, arc_watermark, load_cache = state
        if slot_was_new:
            if not self._free_slots or self._free_slots[-1] != idx:
                raise TransactionError(
                    f"retract of member {idx} is out of LIFO order")
            self._free_slots.pop()
            self._paths.pop()
            self._path_arc_ids.pop()
        self._conflict_masks = None
        while len(self._arcs) > arc_watermark:
            arc = self._arcs.pop()
            if self._arc_members.pop():
                raise TransactionError(
                    f"retract would drop arc {arc!r} still in use")
            del self._arc_ids[arc]
        self._restore_load_cache(load_cache)

    def _restore_load_cache(self, value: Optional[int]) -> None:
        """Reinstate a recorded load cache (transaction remove-undo).

        A ``None`` captured before the load histogram existed must not
        clobber a histogram built since (a mid-speculation ``load()``):
        the histogram is maintained symmetrically through add/remove, so
        once it exists the scalar it derives is already correct.
        """
        if value is not None or self._load_hist is None:
            self._load_cache = value

    def __len__(self) -> int:
        return len(self._paths) - len(self._free_slots)

    def __iter__(self) -> Iterator[Dipath]:
        return (p for p in self._paths if p is not None)

    def __getitem__(self, idx: int) -> Dipath:
        path = self._paths[idx]
        if path is None:
            raise IndexError(f"member {idx} has been removed")
        return path

    def __repr__(self) -> str:
        return f"DipathFamily(n={len(self)}, load={self.load()})"

    def index_of(self, dipath: Dipath) -> int:
        """Index of the first occurrence of ``dipath`` in the family."""
        return self._paths.index(dipath)

    # ------------------------------------------------------------------ #
    # arc interning
    # ------------------------------------------------------------------ #
    @property
    def num_arcs_used(self) -> int:
        """Number of distinct arcs used by at least one active member.

        Removed members keep their arcs interned (ids are never recycled),
        so this can be smaller than the number of interned arc ids.
        """
        return sum(1 for mask in self._arc_members if mask)

    @property
    def num_arc_ids(self) -> int:
        """Number of interned arc ids (the valid range of ``arc_of_id``).

        Unlike :attr:`num_arcs_used` this includes arcs whose last active
        member has departed — ids are never recycled, so positional
        tables indexed by arc id (e.g. the online colour index) span
        exactly this range.
        """
        return len(self._arcs)

    def arc_id(self, arc: Arc) -> int:
        """The dense integer id of ``arc`` (raises ``KeyError`` if unused)."""
        return self._arc_ids[arc]

    def find_arc_id(self, arc: Arc) -> Optional[int]:
        """The dense integer id of ``arc``, or ``None`` if never interned."""
        return self._arc_ids.get(arc)

    def arc_of_id(self, arc_id: int) -> Arc:
        """The arc with the given dense id."""
        return self._arcs[arc_id]

    def member_arc_ids(self, idx: int) -> Tuple[int, ...]:
        """The arc ids of member ``idx``'s dipath, in path order."""
        return self._path_arc_ids[idx]

    # ------------------------------------------------------------------ #
    # load (the paper's pi)
    # ------------------------------------------------------------------ #
    def arcs_used(self) -> List[Arc]:
        """Arcs used by at least one active dipath of the family."""
        return [arc for arc, mask in zip(self._arcs, self._arc_members)
                if mask]

    def members_on_arc(self, arc: Arc) -> List[int]:
        """Indices of family members whose dipath contains ``arc`` (sorted)."""
        aid = self._arc_ids.get(arc)
        return [] if aid is None else bit_list(self._arc_members[aid])

    def load_of_arc(self, arc: Arc) -> int:
        """``load(G, P, e)``: number of dipaths of the family containing ``arc``."""
        aid = self._arc_ids.get(arc)
        return 0 if aid is None else self._arc_members[aid].bit_count()

    def load_of_arc_id(self, arc_id: int) -> int:
        """The load of the arc with the given dense id."""
        return self._arc_members[arc_id].bit_count()

    def load_per_arc(self) -> Dict[Arc, int]:
        """Mapping ``arc -> load`` restricted to arcs of positive load."""
        return {arc: mask.bit_count()
                for arc, mask in zip(self._arcs, self._arc_members)
                if mask}

    def load(self) -> int:
        """``pi(G, P)``: maximum load over all arcs (0 for an empty family).

        O(1) once warm: the first call builds a load histogram that
        :meth:`add` / :meth:`remove` then maintain incrementally.
        """
        if self._load_hist is None:
            hist: Dict[int, int] = {}
            for mask in self._arc_members:
                count = mask.bit_count()
                if count:
                    hist[count] = hist.get(count, 0) + 1
            self._load_hist = hist
            self._load_cache = max(hist, default=0)
        return self._load_cache

    def arcs_at_load(self, load: int) -> int:
        """Number of arcs whose load is exactly ``load`` (``load >= 1``).

        O(1) once warm: read from the histogram behind :meth:`load`.
        """
        self.load()
        return self._load_hist.get(load, 0)

    def maximum_load_arcs(self) -> List[Arc]:
        """Arcs achieving the maximum load."""
        pi = self.load()
        if pi == 0:
            return []
        return [arc for arc, mask in zip(self._arcs, self._arc_members)
                if mask.bit_count() == pi]

    # ------------------------------------------------------------------ #
    # conflicts
    # ------------------------------------------------------------------ #
    def conflict_masks(self) -> List[int]:
        """Per-member conflict bitmasks (built cold, cached until the next
        mutation).

        Bit ``j`` of entry ``i`` is set iff members ``i`` and ``j`` share at
        least one arc (``i != j``).  The list has one entry per *slot*
        (:attr:`num_slots`); freed slots hold mask ``0``.  The returned list
        is the internal cache — treat it as read-only, and do not keep it
        across a mutation.
        """
        masks = self._conflict_masks
        if masks is None:
            self._mask_rebuilds += 1
            masks = [0] * len(self._paths)
            for arc_mask in self._arc_members:
                if arc_mask.bit_count() < 2:
                    continue
                for i in iter_bits(arc_mask):
                    masks[i] |= arc_mask
            for i, m in enumerate(masks):
                if m:
                    masks[i] = m & ~(1 << i)
            self._conflict_masks = masks
        return masks

    def conflicting_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over conflicting index pairs ``(i, j)`` with ``i < j``.

        Served from the cached per-member bitmasks, so each pair is reported
        exactly once with O(n) auxiliary memory — there is no materialised
        set of already-seen pairs.
        """
        masks = self.conflict_masks()
        for i, mask in enumerate(masks):
            for j in iter_bits(mask >> (i + 1)):
                yield (i, i + 1 + j)

    def conflicts_of(self, idx: int) -> List[int]:
        """Indices of members in conflict with member ``idx`` (sorted)."""
        return bit_list(self.conflict_masks()[idx])

    # ------------------------------------------------------------------ #
    # validation / transformation
    # ------------------------------------------------------------------ #
    def validate_against(self, graph: DiGraph) -> None:
        """Raise :class:`InvalidDipathError` if some member is not a dipath of ``graph``."""
        for idx, p in enumerate(self._paths):
            if p is not None and not p.is_valid_in(graph):
                raise InvalidDipathError(
                    f"family member {idx} ({p!r}) is not a dipath of the digraph")

    def restricted_to_arcs(self, arcs: Iterable[Arc]) -> "DipathFamily":
        """Family of members using at least one of the given arcs (same order)."""
        arcset = set(arcs)
        out = DipathFamily(graph=self._graph)
        for p in self:
            if any(a in arcset for a in p.arcs()):
                out.add(p)
        return out

    def copy(self) -> "DipathFamily":
        """Shallow copy (dipaths are immutable, so this is fully independent).

        Freed slots are not copied: the copy is densely indexed ``0..n-1``
        even if this family has holes.
        """
        out = DipathFamily(graph=self._graph)
        for p in self:
            out.add(p)
        return out

    def union_digraph(self) -> DiGraph:
        """The digraph formed by the arcs used by the family.

        Useful to analyse a family independently of its host graph (e.g. to
        detect whether the *used* sub-DAG has an internal cycle).
        """
        g = DiGraph()
        for u, v in self.arcs_used():
            g.add_arc(u, v)
        return g

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_vertex_sequences(cls, sequences: Iterable[Sequence[Vertex]],
                              graph: Optional[DiGraph] = None) -> "DipathFamily":
        """Build a family from plain vertex sequences."""
        return cls(sequences, graph=graph)
