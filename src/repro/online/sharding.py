"""Per-fibre colour occupancy for the online engine.

:class:`ArcColorIndex` is the per-fibre wavelength occupancy table: for
every interned arc, one word whose bit ``c`` is set iff a provisioned
lightpath holds colour ``c`` on that fibre.  The forbidden colours of an
arriving lightpath are then the union of its arcs' masks — **O(arcs)**.
That is the paper's conflict relation read per fibre: a colour is held
by a conflicting lightpath iff it is in use on a shared fibre.

The index keeps masks only, no per-colour user counts.  A colour change
flips ``(1 << old) ^ (1 << new)`` into each fibre's mask, so a mask bit
is the *parity* of the fibre's users of that colour.  Under a proper
colouring each fibre carries each wavelength at most once, so parity is
presence.  The colouring is improper only in the middle of a Kempe chain
swap or a rollback replay, and nothing reads a mask there; the one
outside writer, :meth:`~repro.online.assigner.OnlineWavelengthAssigner.
adopt`, refuses a colour already on one of the member's fibres.

The index is owned by the
:class:`~repro.online.assigner.OnlineWavelengthAssigner`, the one writer
of colour state; it keeps no journal of its own — what-if rollbacks
replay the assigner's journal, whose entries carry the arc ids each
change touched, so the index is restored bit-identically without ever
consulting the (possibly already rolled back) structure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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

    __slots__ = ("_family", "_masks",
                 "_m_records", "_m_rollbacks") + Instrumented._OBS_SLOTS

    def __init__(self, family: DipathFamily,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._obs_init("colorindex", metrics)
        self._family = family
        self._masks: List[int] = []         # arc id -> colour bitmask
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
        no colour sits on an arc id the family no longer interns.

        Whether each mask holds exactly the colours of the lightpaths on
        its fibre needs the engine's view: ``OnlineEngine.audit()``
        replays the colouring over each member's raw route and compares
        every mask with the result.
        """
        interned = self._family.num_arc_ids
        return [f"arc id {aid} holds colours {mask:#x} but is no longer "
                f"interned by the family"
                for aid, mask in enumerate(self._masks)
                if mask and aid >= interned]

    # ------------------------------------------------------------------ #
    # mutation (driven by the assigner's colour changes)
    # ------------------------------------------------------------------ #
    def record(self, arcs: Tuple[int, ...], old: Optional[int],
               new: Optional[int], undo: bool = False) -> None:
        """Move one user of fibres ``arcs`` from colour ``old`` to ``new``.

        ``None`` is no colour: an assignment, a release or a recolouring.
        Each fibre's mask flips both colours' bits (see the module
        docstring for why that is exact wherever a mask is read).
        ``undo`` marks a rollback replaying a change inverted, which is
        not counted in ``colorindex.records``.
        """
        if not undo:
            self._m_records.inc()
        flip = ((0 if old is None else 1 << old)
                ^ (0 if new is None else 1 << new))
        masks = self._masks
        try:
            for aid in arcs:
                masks[aid] ^= flip
        except IndexError:
            # an arc interned since the table last grew: the loop stopped
            # at the first such arc, having flipped every arc before it
            known = len(masks)
            first = next(i for i, aid in enumerate(arcs) if aid >= known)
            masks.extend([0] * (max(arcs) + 1 - known))
            for aid in arcs[first:]:
                masks[aid] ^= flip

    def count_rollback(self) -> None:
        """Count one what-if rollback of the assigner."""
        self._m_rollbacks.inc()
