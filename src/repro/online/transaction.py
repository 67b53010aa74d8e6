"""Transactional what-if admission: checkpoint, speculate, commit/rollback.

The online engine can answer "what happens if I admit this candidate?"
only by actually admitting it — routing fixes the dipath, the conflict
graph gains a vertex, the assigner picks a wavelength (possibly via a
Kempe repair that recolours other lightpaths).  Before this module the
only way to *un*-ask the question was to rebuild family + conflict graph
from scratch.  :class:`WhatIfTransaction` instead journals every mutation
and undoes them in reverse:

* **commit is O(1)** — drop the journal;
* **rollback is O(touched)** — one inverse operation per mutation: the
  assigner's colour changes (including whole Kempe chains) are replayed
  backwards from its one colour journal, which also restores its per-fibre
  colour index; then the added member leaves again, arcs it interned
  first are un-interned, and the freed slot and load cache are restored.
  Nothing builds the family's conflict-mask cache, so ``mask_rebuilds``
  stays put — the invariant the differential harness pins down.

After rollback the family, the conflict graph and the assigner are
**bit-identical** to a never-touched twin: every internal mask, list,
free-slot stack, load cache and counter compares equal
(``tests/test_differential_online.py`` asserts exactly this); a warm
conflict-mask cache is dropped, as by any mutation.

:func:`admit_best` builds the paper-level feature on top: admit the
candidate route of an arrival that leaves the least-loaded fibres behind.
The ranking needs no speculation and is exact — the objective depends
only on loads, admitting a dipath adds exactly one to the load of each of
its arcs, and neither the wavelength choice nor a Kempe repair moves a
load — so the candidates are ranked up front.  Each candidate in rank
order is then added and coloured (Kempe repair included); one that does
not colour has recoloured nothing, so removing it and retracting its add
restores the state exactly, and the next candidate is tried.  The first
that colours is admitted.  This is what ``k_shortest`` routing with
``speculative=True`` in :func:`repro.online.simulator.simulate_online`
runs per arrival.

Transactions **nest**: opening a transaction while another is active makes
it a child of the innermost open one.  A child must resolve before its
parent (LIFO); committing a child splices its journal into the parent, so
the parent's rollback still undoes the child's committed mutations.  This
is what lets :class:`~repro.online.defrag.DefragPass` wrap a whole
remove → :func:`admit_best` → compare move in an outer transaction and
drop it bit-identically when the move is not a strict improvement, and
what :func:`admit_batch` uses to admit a burst of arrivals atomically
under the partial-commit policies (:data:`BATCH_POLICIES`): one
transaction per burst, and no child per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..conflict.dynamic import ShardedConflictGraph
from ..dipaths.dipath import Dipath
from ..exceptions import TransactionError
from .assigner import AssignerCheckpoint, OnlineWavelengthAssigner
from .routing import live_load_cost

__all__ = ["AdmissionDecision", "BATCH_POLICIES", "BatchResult",
           "WhatIfTransaction", "admit_batch", "admit_best"]

#: Journal entry tags for the structural (family + conflict graph) log.
_ADD, _REMOVE = "add", "remove"


class WhatIfTransaction:
    """Checkpoint/rollback over the online engine state, nestable.

    Wraps a :class:`~repro.conflict.ShardedConflictGraph` and the
    :class:`~repro.online.assigner.OnlineWavelengthAssigner` colouring its
    family, and journals every mutation made *through the transaction*:
    structural ones in its own log, colour changes under an assigner
    checkpoint.
    ``commit()`` keeps them (O(1)); ``rollback()`` — or leaving a ``with``
    block without committing — undoes them in O(touched).

    Mutations must go through the transaction's methods while it is open;
    reads (loads, masks, colours) can use the underlying objects freely.
    Transactions nest per engine: a transaction opened while another is
    active becomes its child and must resolve first (LIFO — resolving an
    outer transaction while a child is open raises).  Committing a child
    merges its journal into the parent, so the parent's rollback undoes
    the child's committed mutations too.  Nested transactions over the
    same engine must share the same assigner.

    Examples
    --------
    >>> from repro.conflict import ShardedConflictGraph
    >>> from repro.dipaths.family import DipathFamily
    >>> dyn = ShardedConflictGraph(DipathFamily([["a", "b"]]))
    >>> assigner = OnlineWavelengthAssigner(dyn.family, 2)
    >>> with WhatIfTransaction(dyn, assigner) as tx:
    ...     _ = tx.admit(["a", "b", "c"])        # speculative: not committed
    >>> len(dyn.family), dict(assigner.coloring)
    (1, {})
    """

    def __init__(self, conflict: ShardedConflictGraph,
                 assigner: OnlineWavelengthAssigner) -> None:
        self._conflict = conflict
        self._family = conflict.family
        self._assigner = assigner
        stack: List["WhatIfTransaction"] = conflict._tx_stack
        self._stack = stack
        self._parent: Optional["WhatIfTransaction"] = \
            stack[-1] if stack else None
        self._log: List[Tuple] = []
        self._checkpoint: AssignerCheckpoint = assigner.checkpoint()
        self._open = True
        stack.append(self)

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def is_open(self) -> bool:
        """Whether the transaction is still accepting operations."""
        return self._open

    def _require_open(self) -> None:
        if not self._open:
            raise TransactionError("the transaction is already closed")

    def _detach(self) -> None:
        """Close this transaction and leave the engine's nesting stack.

        Resolution is LIFO: a parent cannot resolve while a child is still
        open (the child's journal would be stranded half-applied).
        """
        if self._stack[-1] is not self:
            raise TransactionError(
                "a nested transaction is still open; resolve it first")
        self._open = False
        self._stack.pop()

    # ------------------------------------------------------------------ #
    # journalled operations
    # ------------------------------------------------------------------ #
    def add_dipath(self, dipath) -> int:
        """Speculatively add a dipath to family + conflict graph."""
        self._require_open()
        state = self._family._spec_state()
        idx = self._conflict.add_dipath(dipath)
        self._log.append((_ADD, idx, state))
        return idx

    def remove_dipath(self, idx: int) -> Dipath:
        """Speculatively remove member ``idx`` (release its colour first)."""
        self._require_open()
        load_cache = self._family._spec_state()[2]
        path = self._conflict.remove_dipath(idx)
        self._log.append((_REMOVE, idx, path, load_cache))
        return path

    def assign(self, idx: int) -> Optional[int]:
        """Colour member ``idx`` (journalled, Kempe repair included)."""
        self._require_open()
        return self._assigner.assign(self._conflict, idx)

    def release(self, idx: int) -> int:
        """Release member ``idx``'s colour (journalled)."""
        self._require_open()
        return self._assigner.release(idx)

    def admit(self, dipath) -> Tuple[int, Optional[int]]:
        """Add + colour in one step; returns ``(index, colour or None)``.

        A ``None`` colour means the candidate is not admissible under the
        current budget — the caller typically rolls the transaction back.
        """
        idx = self.add_dipath(dipath)
        return idx, self.assign(idx)

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def commit(self) -> None:
        """Keep every journalled mutation.  O(1).

        With a parent transaction open the journal is handed to the parent
        instead of dropped, so a later parent rollback undoes this
        transaction's committed mutations as well.
        """
        self._require_open()
        self._detach()
        self._assigner.commit(self._checkpoint)
        if self._parent is not None:
            self._parent._log.extend(self._log)
        self._log.clear()

    def rollback(self) -> None:
        """Undo every journalled mutation, newest first.  O(touched)."""
        self._require_open()
        self._detach()
        # Colour state is disjoint from the structural state, so the
        # whole colour journal can be unwound before the structure.
        self._assigner.rollback(self._checkpoint)
        conflict, family = self._conflict, self._family
        for entry in reversed(self._log):
            if entry[0] is _ADD:
                _, idx, state = entry
                conflict.remove_dipath(idx)
                family._retract_add(idx, state)
            else:
                _, idx, path, load_cache = entry
                readded = conflict.add_dipath(path)
                if readded != idx:
                    raise TransactionError(
                        f"rollback re-added member at slot {readded}, "
                        f"expected {idx}")
                family._restore_load_cache(load_cache)
        self._log.clear()

    def __enter__(self) -> "WhatIfTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Roll back unless committed; never mask an in-flight exception.

        Leaving the block without :meth:`commit` rolls the speculation
        back — *also* when an exception is propagating (an exception can
        never commit a speculation).  If the rollback itself fails while an
        exception is in flight, the rollback failure is attached to the
        original exception as a note instead of replacing it: the caller
        sees the error that actually broke the block, annotated with the
        (graver) fact that the engine state could not be restored.
        """
        if not self._open:
            return False
        if exc is None:
            self.rollback()
            return False
        try:
            self.rollback()
        except BaseException as rollback_exc:   # noqa: BLE001 - re-attached
            note = (f"[WhatIfTransaction] rollback failed while handling "
                    f"the exception above: {rollback_exc!r} — engine state "
                    f"may be inconsistent")
            add_note = getattr(exc, "add_note", None)
            if add_note is not None:            # Python >= 3.11
                add_note(note)
            else:       # pragma: no cover - pre-3.11 interpreters only
                exc.__context__ = rollback_exc  # chained, never replaces
        return False


# ---------------------------------------------------------------------- #
# speculative admission
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of :func:`admit_best`: the committed candidate."""

    index: int          #: member index of the admitted dipath
    color: int          #: wavelength assigned to it
    candidate: int      #: position of the winner in the candidate list
    dipath: Dipath      #: the admitted dipath


def _place(conflict: ShardedConflictGraph,
           assigner: OnlineWavelengthAssigner,
           dipath: Dipath) -> Tuple[Optional[int], Optional[int]]:
    """Add and colour one routed dipath, or leave the state as it was.

    Returns ``(member index, colour)``, or ``(None, None)`` when the
    dipath does not colour.  One path: add the dipath, then let the
    assigner colour it (Kempe repair included).  A blocked attempt has
    changed no colour — a failed Kempe search recolours nothing — so it
    is undone exactly by removing the member and retracting the add to
    the family state captured before it: the freed slot, the arcs it
    interned first and the load cache.  A coloured member's add is
    journalled in the innermost open transaction (for a parent's
    rollback); its colour changes are journalled by the assigner.
    """
    state = conflict.family._spec_state()
    idx = conflict.add_dipath(dipath)
    color = assigner.assign(conflict, idx)
    if color is None:
        conflict.remove_dipath(idx)
        conflict.family._retract_add(idx, state)
        return None, None
    stack = conflict._tx_stack
    if stack:
        stack[-1]._log.append((_ADD, idx, state))
    return idx, color


def admit_best(conflict: ShardedConflictGraph,
               assigner: OnlineWavelengthAssigner,
               candidates: Sequence[Dipath]) -> Optional[AdmissionDecision]:
    """Commit the least-loaded admissible candidate, or none.

    Candidates are ranked by the :func:`~repro.online.routing.
    live_load_cost` they would have *after* admission — ``(max arc load +
    1, total load + hops, hops)``, computed from the current loads since
    admitting a dipath adds exactly one to each of its arcs.  The sort is
    stable, so ties keep the earliest candidate (with candidates ordered
    shortest-first the tie-break matches static routing).  Candidates are
    then tried in rank order, route × wavelength × Kempe repair exactly
    as a real arrival, and the first that colours is admitted.  Each
    attempt adds, colours and, if blocked, removes and retracts the
    candidate exactly (see :func:`_place`), so no attempt needs a
    transaction of its own.  ``None`` means no candidate fits the
    wavelength budget, and leaves the state bit-identical.  Under an
    enclosing transaction (defrag moves, batches) the admission is
    journalled into the innermost one, so the outer rollback can still
    undo it.
    """
    family = conflict.family

    def cost_after(pos: int) -> Tuple[int, int, int]:
        max_load, total, hops = live_load_cost(family, candidates[pos])
        return (max_load + 1, total + hops, hops)

    for pos in sorted(range(len(candidates)), key=cost_after):
        dipath = candidates[pos]
        idx, color = _place(conflict, assigner, dipath)
        if color is not None:
            return AdmissionDecision(index=idx, color=color,
                                     candidate=pos, dipath=dipath)
    return None


# ---------------------------------------------------------------------- #
# batched admission
# ---------------------------------------------------------------------- #
#: Partial-commit policies for :func:`admit_batch`:
#:
#: * ``all_or_nothing``  — the whole burst is admitted or the engine is
#:   rolled back to its pre-batch state (one blocked arrival blocks all);
#: * ``best_prefix``     — arrivals are admitted in order up to (not
#:   including) the first inadmissible one; the rest of the burst is
#:   blocked unattempted;
#: * ``greedy``          — maximum-cardinality greedy: every arrival is
#:   attempted, inadmissible ones are skipped, the rest commit.
BATCH_POLICIES = ("all_or_nothing", "best_prefix", "greedy")


@dataclass
class BatchResult:
    """Outcome of one atomic batch admission.

    Attributes
    ----------
    policy:
        The partial-commit policy that produced this result.
    admitted:
        ``(position, member index, colour)`` per admitted arrival, in
        batch order.  Empty when the batch rolled back.
    blocked:
        Batch positions that were not admitted (inadmissible, skipped
        after an ``all_or_nothing`` failure, or unattempted past a
        ``best_prefix`` cut).
    committed:
        Whether the batch transaction committed (``all_or_nothing``
        batches roll back entirely on the first failure).
    """

    policy: str
    admitted: List[Tuple[int, int, Optional[int]]] = field(
        default_factory=list)
    blocked: List[int] = field(default_factory=list)
    committed: bool = True

    def __post_init__(self) -> None:
        if self.policy not in BATCH_POLICIES:
            raise TransactionError(f"unknown batch policy {self.policy!r}; "
                                   f"expected one of {BATCH_POLICIES}")


def admit_batch(conflict: ShardedConflictGraph,
                assigner: OnlineWavelengthAssigner,
                dipaths: Sequence[Dipath],
                policy: str = "all_or_nothing") -> BatchResult:
    """Admit a burst of pre-routed arrivals atomically.

    The whole batch runs inside one outer :class:`WhatIfTransaction`, so
    the engine never holds a half-admitted arrival and an
    ``all_or_nothing`` failure unwinds every earlier admission of the
    burst bit-identically.  Each arrival is decided by :func:`_place`:
    it is added and coloured (Kempe repair included); one that colours
    is journalled in the burst's transaction, one that does not is
    removed and its add retracted exactly, leaving nothing behind.  See
    :data:`BATCH_POLICIES` for the partial-commit semantics.
    """
    result = BatchResult(policy=policy)       # validates the policy name
    batch = [d if isinstance(d, Dipath) else Dipath(d) for d in dipaths]
    outer = WhatIfTransaction(conflict, assigner)
    try:
        for pos, dipath in enumerate(batch):
            idx, color = _place(conflict, assigner, dipath)
            if color is not None:
                result.admitted.append((pos, idx, color))
                continue
            if policy == "all_or_nothing":
                return BatchResult(policy=policy, admitted=[],
                                   blocked=list(range(len(batch))),
                                   committed=False)
            if policy == "best_prefix":
                result.blocked.extend(range(pos, len(batch)))
                break
            result.blocked.append(pos)        # greedy: skip and carry on
        outer.commit()
        return result
    finally:
        if outer.is_open:                     # all_or_nothing failure path
            outer.rollback()
