"""Defragmentation passes: reclaiming wavelengths on the live engine.

After enough churn an online system is *fragmented*: lightpaths sit on
longer routes and higher wavelengths than a fresh assignment would give
them, because each was admitted against whatever the state happened to be
at its arrival.  The paper's offline bound (wavelengths = load on
internal-cycle-free topologies) says how good a from-scratch assignment
could be; the gap between that and the live colouring is capacity the
network is paying for but not using — it shows up operationally as
avoidable ``no_wavelength`` blocking.

:class:`DefragPass` walks the provisioned lightpaths (three orderings:
highest wavelength first, longest route first, most conflicted first) and
*speculatively re-admits* each one on the live engine: the lightpath is
released and removed inside an outer :class:`~repro.online.transaction.
WhatIfTransaction`, :func:`~repro.online.transaction.admit_best` then
ranks the candidate routes by post-admission load and commits the first
one that colours (a nested what-if per attempt) into the outer
transaction, and the outer transaction commits only if the move is a
**strict improvement** of the lexicographic objective

    ``(distinct wavelengths in use, highest wavelength in use,
       maximum fibre load, the moved lightpath's wavelength)``

— otherwise the whole move rolls back bit-identically and the lightpath
keeps its route and colour.  Every accepted move strictly decreases that
potential (each component is a non-negative integer), so repeated passes
terminate; ``max_moves`` and ``time_budget`` bound a single pass for
engines that defragment inside a latency budget.

Most attempts cannot improve, and proving that needs no speculation.
Before opening the outer transaction, :meth:`DefragPass._may_improve`
evaluates the objective for every pair a re-admission could commit — a
candidate route ``R'`` and a colour ``c'`` free on it — from tables the
engine already keeps, with the member taken out:

* *colours in use and the highest colour*: the assigner's used mask,
  minus the member's colour when the member is its only user;
* *maximum fibre load*: the family's load histogram says whether an arc
  off the member's route still sits at ``π``; if not, the maximum drops
  to ``π - 1``.  Admitting ``R'`` makes it the larger of that and the
  highest load on ``R'`` plus one;
* *free colours on* ``R'``: the union of the
  :class:`~repro.online.sharding.ArcColorIndex` masks of its arcs, with
  the member's colour cleared on the arcs it shares with ``R'`` (a
  proper colouring gives the member sole use of its colour on its own
  fibres; clearing it anyway could only free more colours).

For a fixed pair these four values are exactly the objective the move
would reach: loads and colours move only on ``R'`` and ``c'``.  The pass
speculates only if some pair is strictly below the current objective;
otherwise the move is *pruned*.  This is sound because every policy
picks a free colour, so the committed pair is one of those evaluated,
and because a Kempe repair — the only way to colour a route with no free
colour, and the only step that recolours other lightpaths — makes the
bound answer "may improve".  A pruned move is one that would have rolled
back bit-identically, so pruning changes no decision; only the
path-dependent diagnostic counters of the skipped speculation
(``colorindex.*``) read lower.

The pass never disconnects a lightpath for good: a move is an atomic
remove + re-admit, and the remove is only committed together with a
successful, strictly better re-admission.  Blocked re-admissions (the
candidate set no longer fits the budget — possible, since the member's own
old colour is speculatively freed but other lightpaths moved meanwhile)
simply leave the lightpath untouched.

:func:`repro.online.simulator.simulate_online` triggers passes every N
events, on blocking (with a single re-try of the blocked arrival after a
fruitful pass) or on a wavelength-utilisation threshold; see the E15
benchmark in :mod:`repro.analysis.erlang` for measured reclaim numbers
against the from-scratch recolouring lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..conflict.dynamic import ShardedConflictGraph
from ..dipaths.dipath import Dipath
from ..exceptions import TransactionError
from ..obs.registry import Instrumented, MetricsRegistry
from .assigner import OnlineWavelengthAssigner
from .transaction import WhatIfTransaction, admit_best

__all__ = ["DEFRAG_ORDERINGS", "DefragMove", "DefragPass", "DefragReport",
           "defrag_objective", "max_color_in_use"]

#: Walk orders for a pass — which provisioned lightpath to try to move
#: first.  ``highest_wavelength`` attacks the spectrum tail (the classic
#: first-fit compaction), ``longest_route`` frees the most arc capacity
#: per successful move, ``most_conflicted`` targets the lightpaths whose
#: colour constrains the most neighbours.
DEFRAG_ORDERINGS = ("highest_wavelength", "longest_route", "most_conflicted")


def max_color_in_use(assigner: OnlineWavelengthAssigner) -> int:
    """Highest wavelength index with a current user (``-1`` when idle)."""
    return assigner.used_mask.bit_length() - 1


def defrag_objective(conflict: ShardedConflictGraph,
                     assigner: OnlineWavelengthAssigner) -> Tuple[int, int, int]:
    """The global part of the move-acceptance objective.

    ``(distinct wavelengths in use, highest wavelength in use, maximum
    fibre load)`` — :class:`DefragPass` appends the moved lightpath's own
    wavelength as the final tie-breaker and requires a strict lexicographic
    decrease before committing a move.
    """
    return (assigner.colors_in_use(), max_color_in_use(assigner),
            conflict.family.load())


@dataclass(frozen=True)
class DefragMove:
    """One committed defragmentation move."""

    index: int          #: member index before the move
    new_index: int      #: member index after the move (normally unchanged)
    old_color: int      #: wavelength before the move
    new_color: int      #: wavelength after the move
    old_route: Dipath   #: route before the move
    new_route: Dipath   #: route after the move

    @property
    def rerouted(self) -> bool:
        """Whether the move changed the route (not just the wavelength)."""
        return self.old_route != self.new_route


@dataclass
class DefragReport:
    """Outcome of one :meth:`DefragPass.run`.

    ``attempted`` counts every walked member, ``pruned`` those of them
    whose move the bound proved could not improve (never speculated).
    ``colors_*`` count distinct wavelengths in use, ``max_color_*`` the
    highest wavelength index in use and ``load_*`` the maximum fibre load,
    each sampled immediately before and after the pass.
    """

    order: str
    attempted: int = 0
    pruned: int = 0
    moves: List[DefragMove] = field(default_factory=list)
    colors_before: int = 0
    colors_after: int = 0
    max_color_before: int = -1
    max_color_after: int = -1
    load_before: int = 0
    load_after: int = 0
    budget_exhausted: bool = False

    @property
    def moves_committed(self) -> int:
        """Number of committed moves."""
        return len(self.moves)

    @property
    def reclaimed(self) -> int:
        """Distinct wavelengths freed by the pass."""
        return self.colors_before - self.colors_after


#: ``candidates(index, dipath) -> candidate routes`` for re-admitting one
#: provisioned lightpath.  ``None`` re-admits on the current route only
#: (pure wavelength compaction).
CandidateFunction = Callable[[int, Dipath], Sequence[Dipath]]


class DefragPass(Instrumented):
    """One bounded walk over the provisioned lightpaths, moving improvers.

    Parameters
    ----------
    conflict, assigner:
        The live engine state (as owned by
        :class:`~repro.online.simulator.OnlineEngine`).
    candidates:
        Candidate routes per lightpath (see :data:`CandidateFunction`);
        the current route is always added as a candidate so a pure
        recolouring stays possible.  Default: current route only.
    order:
        One of :data:`DEFRAG_ORDERINGS`.
    max_moves:
        Commit at most this many moves per pass (``None`` = unbounded).
    time_budget:
        Wall-clock budget in seconds for one pass (``None`` = unbounded).
    members:
        Restrict the walk to these member indices (e.g. one shard of the
        conflict graph, see :meth:`~repro.conflict.ShardedConflictGraph.
        shard_map`); ``None`` walks every provisioned lightpath.  The
        move-acceptance objective stays global either way — a restricted
        pass attempts fewer moves, it does not change what counts as an
        improvement.
    metrics:
        Shared :class:`~repro.obs.registry.MetricsRegistry` to publish
        the pass counters into (``defrag.attempted`` /
        ``defrag.pruned`` / ``defrag.committed``); a private registry is
        created otherwise.
    """

    def __init__(self, conflict: ShardedConflictGraph,
                 assigner: OnlineWavelengthAssigner,
                 candidates: Optional[CandidateFunction] = None,
                 order: str = "highest_wavelength",
                 max_moves: Optional[int] = None,
                 time_budget: Optional[float] = None,
                 members: Optional[Sequence[int]] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if order not in DEFRAG_ORDERINGS:
            raise TransactionError(f"unknown defrag ordering {order!r}; "
                                   f"expected one of {DEFRAG_ORDERINGS}")
        if max_moves is not None and max_moves < 0:
            raise TransactionError("max_moves must be >= 0")
        if time_budget is not None and time_budget < 0:
            raise TransactionError("time_budget must be >= 0")
        self._obs_init("defrag", metrics)
        self._m_attempted = self._obs_counter("attempted")
        self._m_pruned = self._obs_counter("pruned")
        self._m_committed = self._obs_counter("committed")
        self._conflict = conflict
        self._assigner = assigner
        self._candidates = candidates
        self._order = order
        self._max_moves = max_moves
        self._time_budget = time_budget
        self._members = None if members is None else list(members)

    # ------------------------------------------------------------------ #
    # walk order
    # ------------------------------------------------------------------ #
    def _ordered_members(self) -> List[int]:
        """Coloured members in move-attempt order (ties: lower index first)."""
        conflict, assigner = self._conflict, self._assigner
        family = conflict.family
        coloring = assigner.coloring
        pool = (family.active_indices() if self._members is None
                else [i for i in self._members if family.is_active(i)])
        members = [i for i in pool if i in coloring]
        if self._order == "highest_wavelength":
            key = lambda i: (-coloring[i], i)
        elif self._order == "longest_route":
            key = lambda i: (-len(family[i]), i)
        else:                                   # most_conflicted
            key = lambda i: (-conflict.degree(i), i)
        return sorted(members, key=key)

    # ------------------------------------------------------------------ #
    # one move
    # ------------------------------------------------------------------ #
    def _candidate_routes(self, idx: int, current: Dipath) -> List[Dipath]:
        """A fresh candidate list for ``idx``, ending with ``current``
        unless the candidate function already offers it."""
        if self._candidates is None:
            return [current]
        routes = list(self._candidates(idx, current))
        if current not in routes:
            routes.append(current)
        return routes

    def _may_improve(self, idx: int, routes: Sequence[Dipath],
                     before: Tuple[int, int, int, int]) -> bool:
        """Whether re-admitting member ``idx`` could beat ``before``.

        Evaluates the move objective of every (candidate route, free
        colour) pair exactly, from the live tables with the member taken
        out (see the module docstring); ``False`` proves the speculative
        move would roll back.  O(arcs) per candidate.
        """
        assigner = self._assigner
        index = assigner.color_index
        family = self._conflict.family
        _, _, load, old_color = before
        old_bit = 1 << old_color
        used = assigner.used_mask
        if assigner.users_of(old_color) == 1:
            used &= ~old_bit
        top = used.bit_length() - 1
        own = family.member_arc_ids(idx)
        at_peak = sum(1 for aid in own if family.load_of_arc_id(aid) == load)
        base_load = (load - 1
                     if at_peak and family.arcs_at_load(load) == at_peak
                     else load)
        budget = (1 << assigner.wavelengths) - 1
        for route in routes:
            peak, forbidden = base_load, 0
            for arc in route.arcs():
                aid = family.find_arc_id(arc)
                if aid is None:         # a fibre no lightpath ever used
                    arc_load, mask = 0, 0
                else:
                    arc_load = family.load_of_arc_id(aid)
                    mask = index.colors_on_arc_id(aid)
                    if aid in own:
                        arc_load -= 1
                        mask &= ~old_bit
                if arc_load >= peak:
                    peak = arc_load + 1
                forbidden |= mask
            free = budget & ~forbidden
            if not free:
                if assigner.kempe_repair:   # may recolour other lightpaths
                    return True
                continue                    # admit_best cannot colour it
            # the best pair on this route: the lowest free colour already
            # in use elsewhere, else the lowest free colour
            pick = (free & used) or free
            color = (pick & -pick).bit_length() - 1
            best = ((used | 1 << color).bit_count(), max(top, color), peak,
                    color)
            if best < before:
                return True
        return False

    def _try_move(self, idx: int,
                  report: DefragReport) -> Optional[DefragMove]:
        """Speculatively re-admit member ``idx``; commit a strict improver.

        A move :meth:`_may_improve` rules out is counted in
        ``report.pruned`` and never speculated.
        """
        conflict, assigner = self._conflict, self._assigner
        old_route = conflict.family[idx]
        old_color = assigner.color_of(idx)
        routes = self._candidate_routes(idx, old_route)
        before = defrag_objective(conflict, assigner) + (old_color,)
        if not self._may_improve(idx, routes, before):
            report.pruned += 1
            self._m_pruned.inc()
            return None
        with WhatIfTransaction(conflict, assigner) as move:
            move.release(idx)
            move.remove_dipath(idx)
            decision = admit_best(conflict, assigner, routes)
            if decision is None:        # no longer admissible: keep as-is
                return None
            after = defrag_objective(conflict, assigner) + (decision.color,)
            if not after < before:      # not a strict improvement
                return None
            move.commit()
        return DefragMove(index=idx, new_index=decision.index,
                          old_color=old_color, new_color=decision.color,
                          old_route=old_route, new_route=decision.dipath)

    # ------------------------------------------------------------------ #
    # the pass
    # ------------------------------------------------------------------ #
    def run(self) -> DefragReport:
        """Walk the provisioned lightpaths once; return the move report."""
        conflict, assigner = self._conflict, self._assigner
        report = DefragReport(
            order=self._order,
            colors_before=assigner.colors_in_use(),
            max_color_before=max_color_in_use(assigner),
            load_before=conflict.family.load())
        deadline = (None if self._time_budget is None
                    else time.monotonic()  # noqa: REPRO-D1 -- wall-clock budget is this knob's contract
                    + self._time_budget)
        for idx in self._ordered_members():
            if self._max_moves is not None and \
                    len(report.moves) >= self._max_moves:
                report.budget_exhausted = True
                break
            if deadline is not None and \
                    time.monotonic() >= deadline:  # noqa: REPRO-D1 -- see above
                report.budget_exhausted = True
                break
            report.attempted += 1
            self._m_attempted.inc()
            move = self._try_move(idx, report)
            if move is not None:
                report.moves.append(move)
                self._m_committed.inc()
        report.colors_after = assigner.colors_in_use()
        report.max_color_after = max_color_in_use(assigner)
        report.load_after = conflict.family.load()
        return report
