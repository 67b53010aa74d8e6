"""Online wavelength assignment over a dynamic conflict graph.

:class:`OnlineWavelengthAssigner` colours the members of a live
:class:`~repro.dipaths.family.DipathFamily` as they arrive, under a hard
budget of ``wavelengths`` colours.  A colour is *free* for a member when
no coloured member sharing one of its fibres uses it — the paper's
conflict relation read per fibre: the assigner owns a
:class:`~repro.online.sharding.ArcColorIndex` and takes the forbidden
colours of a member as the union of its arcs' occupancy masks, O(arcs).
Among the free colours the pluggable policy picks:

* ``first_fit``   — the smallest free colour (the classical heuristic, and
  exactly the per-fibre first-fit of the static admission loop);
* ``least_used``  — the free colour with the fewest current users (spreads
  lightpaths across wavelengths, keeping headroom on each);
* ``most_used``   — the free colour with the most current users (packs
  wavelengths, keeping whole channels free for long paths);
* ``random``      — a uniformly random free colour from the assigner's
  seeded RNG.

When no colour is free the assigner can optionally attempt **one Kempe
chain swap** (``kempe_repair=True``) before giving up: if for some colour
pair ``(a, b)`` every ``a``-coloured neighbour of the blocked vertex lies
in one Kempe component containing no ``b``-coloured neighbour, swapping
that component frees ``a``.  This is the recolouring step of Theorem 1's
proof (see :mod:`repro.coloring.kempe`) used operationally: a bounded
amount of wavelength reconfiguration instead of blocking.

Every colour change — an assignment, an adoption, a release, each member
of a Kempe chain, and each undo of one — goes through one private
primitive that moves the colouring, the usage counts, the used and
ever-used masks and the colour index together, and journals the change
(with the member's arc ids) while a checkpoint is open.  That journal is
the only undo log of colour state: a rollback replays it inverted, the
index included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .._bitops import bit_list, iter_bits, lowest_missing_bit
from ..coloring.kempe import kempe_component
from ..conflict.conflict_graph import ConflictGraph
from ..dipaths.family import DipathFamily
from ..exceptions import EngineStateError, TransactionError
from ..obs.registry import MetricsRegistry
from .sharding import ArcColorIndex

__all__ = ["POLICIES", "AssignerCheckpoint", "OnlineWavelengthAssigner"]

#: The wavelength-selection policies understood by the assigner.
POLICIES = ("first_fit", "least_used", "most_used", "random")


#: One colour change: ``(vertex, its arc ids, old colour or None, new
#: colour or None)``.  ``old is None`` records a fresh assignment, ``new is
#: None`` a release, both set a recolouring.  The arc ids are captured at
#: change time, so undoing the change in the colour index never needs the
#: member's route — the transaction layer unwinds colours before it
#: unwinds adds/removes, and by then the route may be gone.
JournalEntry = Tuple[int, Tuple[int, ...], Optional[int], Optional[int]]


@dataclass
class AssignerCheckpoint:
    """Undo token for the transaction layer (:mod:`repro.online.transaction`).

    While a checkpoint is active every colour change of the assigner is
    journalled; :meth:`OnlineWavelengthAssigner.rollback` replays the
    journal back to ``mark`` in reverse and restores the two monotone
    counters and the policy RNG state (the ``random`` policy draws during
    speculation), leaving the assigner exactly as it was when the
    checkpoint was taken and its colour index with the same occupancy —
    in O(changes since the checkpoint), never a rebuild.

    Checkpoints *stack* over the one journal: a nested checkpoint marks
    the journal's length when it is taken, committing it keeps its
    entries in place for the parent, so a later parent rollback still
    undoes the committed inner changes.  Commit and rollback must consume
    checkpoints innermost-first (LIFO).
    """

    ever_used: int
    repairs: int
    rng_state: object
    mark: int


class _AdjacencyView:
    """Read-only ``vertex -> neighbour list`` view over a mask graph.

    Decodes neighbour masks lazily so the Kempe search never materialises
    the full adjacency; only vertices the chain actually reaches pay the
    decode.
    """

    __slots__ = ("_graph",)

    def __init__(self, graph: ConflictGraph) -> None:
        self._graph = graph

    def __getitem__(self, v: int) -> List[int]:
        return bit_list(self._graph.neighbor_mask(v))


class OnlineWavelengthAssigner:
    """Incremental colouring of arriving/departing members of a family.

    Parameters
    ----------
    family:
        The live :class:`~repro.dipaths.family.DipathFamily` whose members
        are coloured; the assigner's colour index reads its arc ids.
    wavelengths:
        The colour budget ``W``; assigned colours are ``0..W-1``.
    policy:
        One of :data:`POLICIES`.
    kempe_repair:
        Attempt one Kempe chain swap before declaring a vertex blocked.
    seed:
        Seed for the ``random`` policy (ignored by the others).
    metrics:
        Registry the colour index publishes its ``colorindex.*``
        counters into.
    """

    def __init__(self, family: DipathFamily, wavelengths: int,
                 policy: str = "first_fit", kempe_repair: bool = False,
                 seed: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if wavelengths < 1:
            raise ValueError("wavelengths must be >= 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}")
        self._family = family
        self._index = ArcColorIndex(family, metrics=metrics)
        self._wavelengths = wavelengths
        self._policy = policy
        self._kempe_repair = kempe_repair
        self._rng = random.Random(seed)
        self._color: Dict[int, int] = {}
        self._usage: List[int] = [0] * wavelengths
        self._used_mask: int = 0            # bitmask of colours in use now
        self._ever_used: int = 0            # bitmask of colours ever assigned
        self._repairs = 0
        # Active checkpoints, outermost first, each marking its start in
        # the one journal of colour changes (see repro.online.transaction
        # for the nesting rules); the journal is empty with none active.
        self._checkpoints: List[AssignerCheckpoint] = []
        self._journal: List[JournalEntry] = []

    @property
    def color_index(self) -> ArcColorIndex:
        """The per-fibre colour occupancy index the assigner keeps.

        Exposed for readers of per-arc colours (the defrag bound) and the
        audit layer: ``OnlineEngine.audit()`` replays the colouring
        against the index's per-arc counts.
        """
        return self._index

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def wavelengths(self) -> int:
        """The colour budget ``W``."""
        return self._wavelengths

    @property
    def policy(self) -> str:
        """The active selection policy."""
        return self._policy

    @property
    def kempe_repair(self) -> bool:
        """Whether blocked vertices get one Kempe chain swap attempt."""
        return self._kempe_repair

    @property
    def coloring(self) -> Mapping[int, int]:
        """The current ``vertex -> colour`` assignment (live view)."""
        return self._color

    @property
    def kempe_repairs(self) -> int:
        """Number of successful Kempe repairs performed so far."""
        return self._repairs

    def color_of(self, vertex: int) -> int:
        """The colour currently assigned to ``vertex``."""
        return self._color[vertex]

    def colors_in_use(self) -> int:
        """Number of distinct colours with at least one current user.  O(1)."""
        return self._used_mask.bit_count()

    @property
    def used_mask(self) -> int:
        """Bitmask of the colours with at least one current user."""
        return self._used_mask

    def colors_ever_used(self) -> int:
        """Number of distinct colours assigned at any point of the run."""
        return self._ever_used.bit_count()

    def usage(self) -> List[int]:
        """Current user count per colour (a copy)."""
        return list(self._usage)

    def users_of(self, color: int) -> int:
        """Number of vertices currently holding ``color``.  O(1)."""
        return self._usage[color]

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def assign(self, graph: ConflictGraph, vertex: int) -> Optional[int]:
        """Colour ``vertex`` of ``graph``; return its colour or ``None``.

        ``None`` means the vertex is blocked: every colour of the budget is
        used on one of its fibres and (if enabled) the Kempe repair found
        no admissible swap.  A blocked vertex is left uncoloured — the
        caller removes it from the graph.  An already coloured vertex is
        refused with :class:`~repro.exceptions.EngineStateError` before
        any state changes.
        """
        if vertex in self._color:
            raise EngineStateError(
                f"member {vertex} already holds wavelength "
                f"{self._color[vertex]}")
        color = self._pick(self._index.forbidden_mask(vertex))
        if color is None and self._kempe_repair:
            color = self._try_kempe_repair(graph, vertex)
        if color is not None:
            self._recolor(vertex, None, color)
        return color

    def adopt(self, vertex: int, color: int) -> None:
        """Apply an externally decided colour change (replay/preload).

        Used by crash recovery to re-apply a snapshot's colouring: a
        fresh assignment when ``vertex`` is uncoloured, a recolouring
        otherwise.  Journalled and mirrored into the colour index exactly
        like :meth:`assign`, so replayed state is bit-identical to having
        decided locally.  A colour outside the budget raises
        :class:`ValueError`, a ``vertex`` that is not a live member of the
        family :class:`~repro.exceptions.EngineStateError`, both before
        any state changes.
        """
        if not 0 <= color < self._wavelengths:
            raise ValueError(f"colour {color} outside the budget")
        if not self._family.is_active(vertex):
            raise EngineStateError(
                f"cannot colour member {vertex}: not a live member")
        self._recolor(vertex, self._color.get(vertex), color)

    def release(self, vertex: int) -> int:
        """Forget the colour of a departing vertex; return it."""
        color = self._color[vertex]
        self._recolor(vertex, color, None)
        return color

    # ------------------------------------------------------------------ #
    # speculation (see repro.online.transaction)
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> AssignerCheckpoint:
        """Start journalling colour changes; return the undo token.

        Checkpoints nest: each call marks the journal's current length and
        every subsequent colour change is journalled until :meth:`commit`
        or :meth:`rollback` consumes its token.  Tokens must be consumed
        innermost-first — resolving an outer checkpoint while an inner one
        is still open raises.
        """
        # getstate() builds a 625-element tuple; only the "random" policy
        # ever draws from the RNG, so the other policies skip the capture
        # (rollback restores the state only when one was taken).
        rng_state = self._rng.getstate() if self._policy == "random" else None
        token = AssignerCheckpoint(self._ever_used, self._repairs, rng_state,
                                   len(self._journal))
        self._checkpoints.append(token)
        return token

    def commit(self, token: AssignerCheckpoint) -> None:
        """Accept the changes since ``token``.  O(1).

        With a parent checkpoint still active the committed entries stay
        in the journal, so rolling the parent back later still undoes the
        inner, committed changes; the outermost commit drops the journal.
        """
        self._pop(token)
        if not self._checkpoints:
            self._journal.clear()

    def rollback(self, token: AssignerCheckpoint) -> None:
        """Undo every colour change since ``token`` was taken.

        Replays the journal inverted, newest change first — O(changes) —
        and restores the ``colors_ever_used`` / ``kempe_repairs`` counters
        and the policy RNG state, leaving the assigner bit-identical to its
        state at :meth:`checkpoint` time and its colour index with the
        same occupancy.
        """
        self._pop(token)
        journal = self._journal
        while len(journal) > token.mark:
            vertex, arcs, old, new = journal.pop()
            self._recolor(vertex, new, old, arcs)
        self._index.count_rollback()
        self._ever_used = token.ever_used
        self._repairs = token.repairs
        if token.rng_state is not None:
            self._rng.setstate(token.rng_state)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _pop(self, token: AssignerCheckpoint) -> None:
        """Retire ``token``, which must be the innermost checkpoint."""
        if not self._checkpoints or self._checkpoints[-1] is not token:
            raise TransactionError("token does not match the active checkpoint")
        self._checkpoints.pop()

    def _recolor(self, vertex: int, old: Optional[int], new: Optional[int],
                 arcs: Optional[Tuple[int, ...]] = None) -> None:
        """Move ``vertex`` from colour ``old`` to ``new`` (``None``: none).

        The one colour change: the colouring, the usage counts, the used
        and ever-used masks and the colour index move together.  A new
        change (``arcs`` omitted) reads the member's arc ids, is journalled
        while a checkpoint is open and counts as an index record;
        :meth:`rollback` passes a journal entry inverted with the arc ids
        it captured, and journals nothing.
        """
        usage = self._usage
        if old is not None:
            usage[old] -= 1
            if not usage[old]:
                self._used_mask &= ~(1 << old)
        if new is None:
            del self._color[vertex]
        else:
            self._color[vertex] = new
            usage[new] += 1
            self._used_mask |= 1 << new
            self._ever_used |= 1 << new
        undo = arcs is not None
        if not undo:
            arcs = self._family.member_arc_ids(vertex)
            if self._checkpoints:
                self._journal.append((vertex, arcs, old, new))
        self._index.record(arcs, old, new, undo)

    def _pick(self, forbidden: int) -> Optional[int]:
        """Choose a colour ``< W`` outside ``forbidden`` per the policy."""
        wavelengths = self._wavelengths
        if self._policy == "first_fit":
            color = lowest_missing_bit(forbidden)
            return color if color < wavelengths else None
        free = [c for c in range(wavelengths) if not (forbidden >> c) & 1]
        if not free:
            return None
        if self._policy == "least_used":
            return min(free, key=lambda c: (self._usage[c], c))
        if self._policy == "most_used":
            return min(free, key=lambda c: (-self._usage[c], c))
        return self._rng.choice(free)       # "random"

    def _try_kempe_repair(self, graph: ConflictGraph,
                          vertex: int) -> Optional[int]:
        """One chain swap freeing a colour for ``vertex``, or ``None``.

        For each colour pair ``(a, b)``: if the Kempe component (colours
        ``a``/``b``) of the first ``a``-coloured neighbour contains *all*
        ``a``-coloured neighbours of ``vertex`` and *no* ``b``-coloured
        one, swapping it turns every such neighbour to ``b`` and frees
        ``a``.  The first admissible pair is applied.
        """
        color_of = self._color
        by_color: Dict[int, List[int]] = {}
        for j in iter_bits(graph.neighbor_mask(vertex)):
            c = color_of.get(j)
            if c is not None:
                by_color.setdefault(c, []).append(j)
        adjacency = _AdjacencyView(graph)
        for a in sorted(by_color):
            holders = by_color[a]
            for b in range(self._wavelengths):
                if b == a:
                    continue
                component = kempe_component(adjacency, color_of, holders[0],
                                            a, b)
                if not all(u in component for u in holders):
                    continue
                if any(u in component for u in by_color.get(b, ())):
                    continue
                for u in component:         # every member holds a or b
                    old = color_of[u]
                    self._recolor(u, old, b if old == a else a)
                self._repairs += 1
                return a
        return None
