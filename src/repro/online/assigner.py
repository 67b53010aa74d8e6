"""Online wavelength assignment over a dynamic conflict graph.

:class:`OnlineWavelengthAssigner` colours conflict-graph vertices as they
arrive, under a hard budget of ``wavelengths`` colours.  A colour is *free*
for a vertex when no currently-coloured neighbour uses it; among the free
colours the pluggable policy picks:

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .._bitops import bit_list, iter_bits, lowest_missing_bit
from ..coloring.kempe import kempe_component
from ..conflict.conflict_graph import ConflictGraph
from ..exceptions import EngineStateError, TransactionError

__all__ = ["POLICIES", "AssignerCheckpoint", "OnlineWavelengthAssigner"]

#: The wavelength-selection policies understood by the assigner.
POLICIES = ("first_fit", "least_used", "most_used", "random")


#: One colour change: ``(vertex, old colour or None, new colour or None)``.
#: ``old is None`` records a fresh assignment, ``new is None`` a release,
#: both set a Kempe recolouring.
JournalEntry = Tuple[int, Optional[int], Optional[int]]


@dataclass
class AssignerCheckpoint:
    """Undo token for the transaction layer (:mod:`repro.online.transaction`).

    While a checkpoint is active every colour change of the assigner is
    journalled; :meth:`OnlineWavelengthAssigner.rollback` replays the
    journal in reverse and restores the two monotone counters and the
    policy RNG state (the ``random`` policy draws during speculation),
    leaving the assigner exactly as it was when the checkpoint was taken —
    in O(changes since the checkpoint), never a rebuild.

    Checkpoints *stack*: a nested checkpoint journals on top of its parent,
    and committing it splices its journal into the parent's, so a later
    parent rollback still undoes the committed inner changes.  Commit and
    rollback must consume checkpoints innermost-first (LIFO).
    """

    ever_used: int
    repairs: int
    rng_state: object
    journal: List[JournalEntry] = field(default_factory=list)


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
    """Incremental colouring of arriving/departing conflict-graph vertices.

    Parameters
    ----------
    wavelengths:
        The colour budget ``W``; assigned colours are ``0..W-1``.
    policy:
        One of :data:`POLICIES`.
    kempe_repair:
        Attempt one Kempe chain swap before declaring a vertex blocked.
    seed:
        Seed for the ``random`` policy (ignored by the others).
    """

    def __init__(self, wavelengths: int, policy: str = "first_fit",
                 kempe_repair: bool = False,
                 seed: Optional[int] = None) -> None:
        if wavelengths < 1:
            raise ValueError("wavelengths must be >= 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}")
        self._wavelengths = wavelengths
        self._policy = policy
        self._kempe_repair = kempe_repair
        self._rng = random.Random(seed)
        self._color: Dict[int, int] = {}
        self._usage: List[int] = [0] * wavelengths
        self._used_mask: int = 0            # bitmask of colours in use now
        self._ever_used: int = 0            # bitmask of colours ever assigned
        self._repairs = 0
        # Active checkpoints, outermost first; mutations journal into the
        # innermost one (see repro.online.transaction for the nesting rules).
        self._checkpoints: List[AssignerCheckpoint] = []
        # Optional per-fibre colour occupancy (the online engine's O(arcs)
        # forbidden-mask source, see repro.online.sharding.ArcColorIndex);
        # a bare assigner walks the conflict neighbourhood instead.
        self._color_index = None

    def attach_color_index(self, index) -> None:
        """Source forbidden masks from a per-arc colour occupancy index.

        ``index`` must implement the :class:`repro.online.sharding.
        ArcColorIndex` protocol: ``forbidden_mask(vertex)``,
        ``record(vertex, old, new)`` and ``checkpoint``/``commit``/
        ``rollback`` mirroring this assigner's.  With an index attached,
        :meth:`assign` computes the forbidden colours of a vertex as the
        union of its arcs' occupancy masks — O(arcs) — instead of walking
        its conflict neighbours, and every colour change (including Kempe
        chains and journal rollbacks) is mirrored into the index.  The
        forbidden set is identical by construction: a colour is used by a
        conflicting lightpath iff it is in use on a shared fibre.
        """
        if self._color or self._checkpoints:
            raise EngineStateError(
                "attach the colour index before any assignment")
        self._color_index = index

    @property
    def color_index(self):
        """The attached colour occupancy index, or ``None``.

        Exposed for the audit layer: ``OnlineEngine.audit()`` replays the
        colouring against the index's per-arc counts.
        """
        return self._color_index

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
        used by a neighbour and (if enabled) the Kempe repair found no
        admissible swap.  A blocked vertex is left uncoloured — the caller
        removes it from the graph.
        """
        color_of = self._color
        index = self._color_index
        if index is not None:
            forbidden = index.forbidden_mask(vertex)
        else:
            forbidden = 0
            for j in iter_bits(graph.neighbor_mask(vertex)):
                c = color_of.get(j)
                if c is not None:
                    forbidden |= 1 << c
        color = self._pick(forbidden)
        if color is None and self._kempe_repair:
            color = self._try_kempe_repair(graph, vertex)
        if color is None:
            return None
        color_of[vertex] = color
        self._usage[color] += 1
        self._used_mask |= 1 << color
        self._ever_used |= 1 << color
        if self._checkpoints:
            self._checkpoints[-1].journal.append((vertex, None, color))
        if index is not None:
            index.record(vertex, None, color)
        return color

    def adopt(self, vertex: int, color: int) -> None:
        """Apply an externally decided colour change (replay/preload).

        Used by crash recovery to re-apply a snapshot's colouring: a
        fresh assignment when ``vertex`` is uncoloured, a recolouring
        otherwise.  Journalled and mirrored into the colour index exactly
        like :meth:`assign`, so replayed state is bit-identical to having
        decided locally.
        """
        if not 0 <= color < self._wavelengths:
            raise ValueError(f"colour {color} outside the budget")
        old = self._color.get(vertex)
        self._color[vertex] = color
        self._usage[color] += 1
        self._used_mask |= 1 << color
        if old is not None:
            self._usage[old] -= 1
            if not self._usage[old]:
                self._used_mask &= ~(1 << old)
        self._ever_used |= 1 << color
        if self._checkpoints:
            self._checkpoints[-1].journal.append((vertex, old, color))
        if self._color_index is not None:
            self._color_index.record(vertex, old, color)

    def release(self, vertex: int) -> int:
        """Forget the colour of a departing vertex; return it."""
        color = self._color.pop(vertex)
        self._usage[color] -= 1
        if not self._usage[color]:
            self._used_mask &= ~(1 << color)
        if self._checkpoints:
            self._checkpoints[-1].journal.append((vertex, color, None))
        if self._color_index is not None:
            self._color_index.record(vertex, color, None)
        return color

    # ------------------------------------------------------------------ #
    # speculation (see repro.online.transaction)
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> AssignerCheckpoint:
        """Start journalling colour changes; return the undo token.

        Checkpoints nest: each call pushes a new journal and every
        subsequent :meth:`assign` / :meth:`release` / Kempe recolouring is
        recorded in the innermost one until :meth:`commit` or
        :meth:`rollback` consumes its token.  Tokens must be consumed
        innermost-first — resolving an outer checkpoint while an inner one
        is still open raises.
        """
        # getstate() builds a 625-element tuple; only the "random" policy
        # ever draws from the RNG, so the other policies skip the capture
        # (rollback restores the state only when one was taken).
        rng_state = self._rng.getstate() if self._policy == "random" else None
        token = AssignerCheckpoint(self._ever_used, self._repairs, rng_state)
        self._checkpoints.append(token)
        if self._color_index is not None:
            self._color_index.checkpoint()
        return token

    def commit(self, token: AssignerCheckpoint) -> None:
        """Accept the changes since ``token``; stop journalling.  O(1).

        With a parent checkpoint still active the committed journal is
        spliced into the parent's, so rolling the parent back later still
        undoes the inner, committed changes.
        """
        if not self._checkpoints or self._checkpoints[-1] is not token:
            raise TransactionError("token does not match the active checkpoint")
        self._checkpoints.pop()
        if self._checkpoints:
            self._checkpoints[-1].journal.extend(token.journal)
        if self._color_index is not None:
            self._color_index.commit()

    def rollback(self, token: AssignerCheckpoint) -> None:
        """Undo every colour change since ``token`` was taken.

        Replays the journal in reverse — O(changes) — and restores the
        ``colors_ever_used`` / ``kempe_repairs`` counters and the policy
        RNG state, leaving the assigner bit-identical to its state at
        :meth:`checkpoint` time.
        """
        if not self._checkpoints or self._checkpoints[-1] is not token:
            raise TransactionError("token does not match the active checkpoint")
        self._checkpoints.pop()
        color_of = self._color
        usage = self._usage
        used = self._used_mask
        for vertex, old, new in reversed(token.journal):
            if old is None:                 # fresh assignment: take it back
                del color_of[vertex]
                usage[new] -= 1
                if not usage[new]:
                    used &= ~(1 << new)
            elif new is None:               # release: colour comes back
                color_of[vertex] = old
                usage[old] += 1
                used |= 1 << old
            else:                           # Kempe recolouring: swap back
                color_of[vertex] = old
                usage[new] -= 1
                if not usage[new]:
                    used &= ~(1 << new)
                usage[old] += 1
                used |= 1 << old
        self._used_mask = used
        self._ever_used = token.ever_used
        self._repairs = token.repairs
        if token.rng_state is not None:
            self._rng.setstate(token.rng_state)
        if self._color_index is not None:
            self._color_index.rollback()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
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
                for u in component:
                    old = color_of[u]
                    if old == a:
                        color_of[u] = b
                    elif old == b:
                        color_of[u] = a
                    else:
                        continue
                    self._usage[old] -= 1
                    if not self._usage[old]:
                        self._used_mask &= ~(1 << old)
                    self._usage[color_of[u]] += 1
                    self._used_mask |= 1 << color_of[u]
                    self._ever_used |= 1 << color_of[u]
                    if self._checkpoints:
                        self._checkpoints[-1].journal.append(
                            (u, old, color_of[u]))
                    if self._color_index is not None:
                        self._color_index.record(u, old, color_of[u])
                self._repairs += 1
                return a
        return None
