"""Per-fibre colour occupancy for the online engine.

:class:`ArcColorIndex` is the per-fibre wavelength occupancy table.  For
every interned arc it tracks how many provisioned lightpaths hold each
colour on that fibre, plus the derived one-word colour bitmask.  The
forbidden colours of an arriving lightpath are then the union of its
arcs' masks — **O(arcs)**.  That is the paper's conflict relation read
per fibre: a colour is held by a conflicting lightpath iff it is in use
on a shared fibre.  The index is owned by the
:class:`~repro.online.assigner.OnlineWavelengthAssigner`, the one writer
of colour state; it keeps no journal of its own — what-if rollbacks
replay the assigner's journal, whose entries carry the arc ids each
change touched, so the index is restored bit-identically without ever
consulting the (possibly already rolled back) structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..exceptions import EngineStateError
from ..dipaths.family import DipathFamily
from ..obs.registry import Instrumented, MetricsRegistry

__all__ = ["ArcColorIndex"]


class ArcColorIndex(Instrumented):
    """Per-arc wavelength occupancy of one family's coloured members.

    Built by an :class:`~repro.online.assigner.OnlineWavelengthAssigner`
    over its family: the assigner sources forbidden masks from
    :meth:`forbidden_mask` and applies every colour change (assignments,
    releases, Kempe chains, and their undoing) through :meth:`record`.

    Operation counts publish into the registry under ``colorindex.*`` as
    *diagnostic* metrics: a recovered engine re-seeds its index from the
    snapshot and replays only the journal tail, so the counts depend on
    the path that reached a state and stay out of the cross-path
    deterministic snapshot.
    """

    __slots__ = ("_family", "_counts", "_masks",
                 "_m_records", "_m_rollbacks") + Instrumented._OBS_SLOTS

    def __init__(self, family: DipathFamily,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._obs_init("colorindex", metrics)
        self._family = family
        self._counts: List[Dict[int, int]] = []    # arc id -> colour -> users
        self._masks: List[int] = []                # arc id -> colour bitmask
        self._m_records = self._obs_counter("records", diagnostic=True)
        self._m_rollbacks = self._obs_counter("rollbacks", diagnostic=True)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def forbidden_mask(self, vertex: int) -> int:
        """Colours in use on any fibre of member ``vertex`` (a bitmask).

        O(arcs) one-word unions.  Arcs interned after the last recorded
        change carry no colour yet and are skipped.
        """
        masks = self._masks
        known = len(masks)
        forbidden = 0
        for aid in self._family.member_arc_ids(vertex):
            if aid < known:
                forbidden |= masks[aid]
        return forbidden

    def colors_on_arc_id(self, aid: int) -> int:
        """The colour bitmask of arc id ``aid`` (0 if never recorded)."""
        return self._masks[aid] if aid < len(self._masks) else 0

    def audit(self) -> List[str]:
        """Check the index's internal invariants; return the violations.

        Same protocol as :meth:`repro.conflict.sharding.ShardTracker.audit`
        (and composed by ``OnlineEngine.audit()``): an empty list means
        the bookkeeping is coherent —

        * the per-arc count table and the per-arc mask table cover the
          same arc ids;
        * every recorded ``(arc, colour)`` user count is positive (zero
          entries are deleted eagerly by :meth:`record`);
        * each arc's colour bitmask has exactly the bits of its count
          table — the O(1) forbidden-mask fast path and the exact counts
          never disagree;
        * no colour sits on an arc id the family no longer interns.

        Magnitude checks against ground truth (does the count equal the
        number of lightpaths actually colouring this arc?) need the
        engine's view and live in ``OnlineEngine.audit()``.
        """
        problems: List[str] = []
        counts, masks = self._counts, self._masks
        if len(counts) != len(masks):
            problems.append(
                f"colour index tracks {len(counts)} arcs in counts but "
                f"{len(masks)} in masks")
        interned = self._family.num_arc_ids
        for aid, per_color in enumerate(counts):
            expected = 0
            for color in sorted(per_color):
                users = per_color[color]
                if users <= 0:
                    problems.append(
                        f"arc {aid} colour {color} has non-positive "
                        f"count {users}")
                expected |= 1 << color
            mask = masks[aid] if aid < len(masks) else 0
            if mask != expected:
                problems.append(
                    f"arc {aid} mask {mask:#x} disagrees with its counts "
                    f"({expected:#x})")
            if per_color and aid >= interned:
                problems.append(
                    f"arc id {aid} holds colours but is no longer "
                    f"interned by the family")
        return problems

    # ------------------------------------------------------------------ #
    # mutation (driven by the assigner's colour changes)
    # ------------------------------------------------------------------ #
    def record(self, arcs: Tuple[int, ...], old: Optional[int],
               new: Optional[int], undo: bool = False) -> None:
        """Move one user of fibres ``arcs`` from colour ``old`` to ``new``.

        ``None`` is no colour: an assignment, a release or a recolouring.
        ``undo`` marks a rollback replaying a change inverted, which is
        not counted in ``colorindex.records``.
        """
        if not undo:
            self._m_records.inc()
        for aid in arcs:
            if old is not None:
                self._bump(aid, old, -1)
            if new is not None:
                self._bump(aid, new, 1)

    def count_rollback(self) -> None:
        """Count one what-if rollback of the assigner."""
        self._m_rollbacks.inc()

    def _bump(self, aid: int, color: int, delta: int) -> None:
        counts = self._counts
        if aid >= len(counts):
            masks = self._masks
            grow = aid + 1 - len(counts)
            counts.extend({} for _ in range(grow))
            masks.extend([0] * grow)
        per_color = counts[aid]
        value = per_color.get(color, 0) + delta
        if value:
            if value < 0:
                raise EngineStateError(
                    f"arc {aid} colour {color} count went negative")
            per_color[color] = value
            if value == delta:              # 0 -> positive transition
                self._masks[aid] |= 1 << color
        else:
            del per_color[color]
            self._masks[aid] &= ~(1 << color)
