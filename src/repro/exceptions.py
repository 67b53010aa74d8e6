"""Exception hierarchy for :mod:`repro`.

All library-specific errors derive from :class:`ReproError` so that callers can
catch any failure originating from this package with a single ``except``
clause.  Errors that correspond to a *mathematical* situation described in the
paper (e.g. the presence of an internal cycle breaking Theorem 1's hypothesis)
carry the combinatorial certificate that triggered them, so that callers can
inspect or report it.
"""

from __future__ import annotations

from typing import Any, Sequence


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation is not present in the graph."""

    def __init__(self, vertex: Any) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class ArcNotFoundError(GraphError, KeyError):
    """An arc referenced by an operation is not present in the graph."""

    def __init__(self, arc: tuple[Any, Any]) -> None:
        super().__init__(f"arc {arc!r} is not in the graph")
        self.arc = arc


class DuplicateArcError(GraphError, ValueError):
    """An arc was added twice to a simple digraph."""

    def __init__(self, arc: tuple[Any, Any]) -> None:
        super().__init__(f"arc {arc!r} is already in the graph")
        self.arc = arc


class SelfLoopError(GraphError, ValueError):
    """A self-loop ``(v, v)`` was added; DAGs never contain self-loops."""

    def __init__(self, vertex: Any) -> None:
        super().__init__(f"self-loop on vertex {vertex!r} is not allowed")
        self.vertex = vertex


class NotADAGError(GraphError, ValueError):
    """The digraph contains a directed cycle, so it is not a DAG.

    Attributes
    ----------
    cycle:
        A directed cycle witnessing the violation, as a sequence of vertices
        ``v0, v1, ..., vk`` with ``vk == v0`` (when available).
    """

    def __init__(self, message: str = "digraph contains a directed cycle",
                 cycle: Sequence[Any] | None = None) -> None:
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class InvalidDipathError(ReproError, ValueError):
    """A vertex sequence does not describe a dipath of the given digraph."""


class RoutingError(ReproError):
    """A request could not be routed (no dipath between its endpoints)."""


class NotUPPError(ReproError, ValueError):
    """The digraph violates the Unique diPath Property (UPP).

    Attributes
    ----------
    pair:
        A pair ``(x, y)`` of vertices joined by at least two distinct dipaths.
    """

    def __init__(self, pair: tuple[Any, Any] | None = None) -> None:
        message = "digraph is not a UPP-DAG"
        if pair is not None:
            message += f": at least two dipaths from {pair[0]!r} to {pair[1]!r}"
        super().__init__(message)
        self.pair = pair


class InternalCycleError(ReproError, ValueError):
    """An internal cycle was found where the algorithm requires none.

    Raised by the Theorem 1 machinery when the recolouring process reaches the
    proof's Case C — which, by the theorem, can only happen when the input DAG
    contains an internal cycle.  The reconstructed cycle (a closed walk of the
    underlying undirected graph, all of whose vertices are internal in ``G``)
    is attached when available, mirroring Figure 4 of the paper.
    """

    def __init__(self, message: str = "the DAG contains an internal cycle",
                 cycle: Sequence[Any] | None = None) -> None:
        super().__init__(message)
        self.cycle = list(cycle) if cycle is not None else None


class NoInternalCycleError(ReproError, ValueError):
    """An operation that needs an internal cycle was given a DAG without one.

    Raised e.g. by the Theorem 2 gadget builder or the Theorem 6 algorithm when
    the input DAG has no internal cycle (in which case Theorem 1 applies and
    the caller should use it instead).
    """


class ColoringError(ReproError):
    """A wavelength assignment / colouring could not be produced or verified."""


class InvalidColoringError(ColoringError, ValueError):
    """A colouring violates a conflict constraint.

    Attributes
    ----------
    conflict:
        A pair of dipath (or vertex) identifiers that received the same colour
        while being in conflict.
    """

    def __init__(self, message: str = "colouring is not proper",
                 conflict: tuple[Any, Any] | None = None) -> None:
        super().__init__(message)
        self.conflict = conflict


class BoundViolationError(ColoringError, AssertionError):
    """An algorithm exceeded the colour budget guaranteed by the paper.

    This should never happen on inputs satisfying the relevant hypotheses; it
    indicates either an input violating the hypotheses or an implementation
    bug, and carries both the budget and the number of colours actually used.
    """

    def __init__(self, used: int, budget: int, message: str | None = None) -> None:
        if message is None:
            message = (f"colouring uses {used} colours, exceeding the "
                       f"guaranteed budget of {budget}")
        super().__init__(message)
        self.used = used
        self.budget = budget


class CapacityError(ReproError):
    """A WDM network operation exceeded the per-fibre wavelength capacity."""


class SimulationError(ReproError):
    """An optical-network admission simulation reached an inconsistent state."""


class EngineStateError(SimulationError, RuntimeError, ValueError):
    """An internal bookkeeping invariant of the online engine broke.

    Raised when the engine's redundant structures disagree — a colour
    count going negative in the :class:`~repro.online.sharding.ArcColorIndex`,
    or a colour index attached to an assigner that already holds
    colours.  These are *state* failures, not
    argument mistakes: they mean a bug (or corruption) upstream of the
    raise.  Historically surfaced as bare ``RuntimeError``/``ValueError``;
    deriving from both keeps existing ``except`` clauses working (the
    same compatibility pattern as :class:`TransactionError`).
    """


class ShardNotFoundError(EngineStateError):
    """A shard lookup by anchor member found no such shard.

    Raised by :meth:`~repro.online.OnlineEngine.defrag` with ``shard=``
    when the anchor member does not identify a live shard — either the
    caller raced a departure or the shard tracker lost it.  Subclasses
    :class:`EngineStateError` (hence ``ValueError``, which these
    lookups historically raised).

    Attributes
    ----------
    shard:
        The anchor member that failed to resolve.
    """

    def __init__(self, shard: int) -> None:
        super().__init__(f"no shard anchored at member {shard}")
        self.shard = shard


class AuditError(SimulationError):
    """A runtime audit (``audit_every=`` in ``simulate_online``) failed.

    Carries every violation string the engine's :meth:`audit` reported,
    so the failure message shows the first broken invariant and the
    ``problems`` attribute preserves the full list.

    Attributes
    ----------
    problems:
        The violation strings, as returned by ``OnlineEngine.audit()``.
    """

    def __init__(self, message: str,
                 problems: Sequence[str] | None = None) -> None:
        self.problems = list(problems) if problems is not None else []
        if self.problems:
            message = f"{message}: {self.problems[0]}" + (
                f" (+{len(self.problems) - 1} more)"
                if len(self.problems) > 1 else "")
        super().__init__(message)


class TransactionError(ReproError, RuntimeError, ValueError):
    """A what-if transaction or defragmentation pass violated its contract.

    Raised for lifecycle violations (operating on a closed transaction,
    resolving a parent while a child is open, a rollback that does not
    restore the captured state) and for argument validation (unknown batch
    policies, negative move budgets).  The transaction layer historically
    raised bare ``RuntimeError`` for the former and bare ``ValueError``
    for the latter; deriving from both keeps every existing ``except``
    clause working while ``except ReproError`` now also sees these
    failures.
    """


class RecoveryError(ReproError):
    """Journal replay could not rebuild the pre-crash engine state.

    Raised by :func:`repro.online.persistence.recover` when the journal is
    unreadable (a torn line anywhere but the tail, a missing genesis
    record) or when re-executing a journalled decision produces a
    different outcome than the one recorded — the recovered state would
    then silently diverge from the pre-crash engine.

    Attributes
    ----------
    record:
        Index of the journal record that failed to replay (``None`` when
        the failure is not tied to one record).
    """

    def __init__(self, message: str, record: int | None = None) -> None:
        if record is not None:
            message = f"journal record {record}: {message}"
        super().__init__(message)
        self.record = record


class FaultError(ReproError):
    """An invalid fault-injection operation on the online engine.

    Cutting a fibre that is already cut (or absent from the topology),
    or repairing one that is not cut.
    """


class ServiceError(ReproError, RuntimeError):
    """An :class:`repro.service.RwaService` lifecycle violation.

    Submitting to a service that was never started (or already stopped),
    starting it twice, or requesting an operation the service was not
    configured for.  Distinct from :class:`SimulationError`, which covers
    malformed *traffic* (out-of-order timestamps, duplicate arrivals) —
    those fail only the offending request's future, while a
    ``ServiceError`` means the caller is holding the service wrong.
    """


class TimedOut(ServiceError, TimeoutError):
    """A caller's wait for a service decision elapsed (client-side).

    Raised by :meth:`repro.service.RwaService.submit` with ``timeout=``
    when the decision does not arrive in time.  This is purely a
    *caller-side* outcome: the submission stays queued and the engine
    still decides it exactly once — re-submitting the same ``request_id``
    with ``retry=True`` (what :class:`repro.service.RetryingClient` does
    on this exception) is answered from the service's decision log, never
    decided a second time.  Derives from the builtin ``TimeoutError`` so
    generic ``except TimeoutError`` / ``except asyncio.TimeoutError``
    handlers see it too.

    Attributes
    ----------
    request_id:
        The undecided submission.
    timeout:
        The elapsed wait, in wall-clock seconds.
    """

    def __init__(self, request_id: int | None, timeout: float) -> None:
        super().__init__(f"request {request_id} undecided after "
                         f"{timeout}s; it remains queued and will be "
                         f"decided exactly once")
        self.request_id = request_id
        self.timeout = timeout


class Expired(ServiceError):
    """A submission's event-time deadline passed before processing.

    Raised through the submission's future when
    :meth:`repro.service.RwaService.submit` was given ``deadline=`` and
    the service clock had already moved past it by the time the arrival
    reached the front of the queue.  Expired arrivals are dropped before
    any routing work or admission-guard accounting, are recorded as
    blocked with the ``"expired"`` rejection reason (their own
    ``result.blocked.expired`` counter partition), and are *not*
    retryable — the deadline does not move, so a retry would expire
    again.

    Attributes
    ----------
    request_id:
        The expired submission.
    deadline:
        Its event-time deadline.
    time:
        The service's event-time clock when the arrival was examined.
    """

    def __init__(self, request_id: int | None, deadline: float | None,
                 time: float | None = None) -> None:
        super().__init__(f"request {request_id} expired: deadline "
                         f"{deadline} is behind the service clock"
                         + (f" at time {time}" if time is not None else ""))
        self.request_id = request_id
        self.deadline = deadline
        self.time = time
