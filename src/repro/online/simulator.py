"""Event-driven online RWA simulation.

:func:`simulate_online` drives a trace of arrivals and departures (see
:mod:`repro.online.events`) through the incremental engine:

1. each arrival is routed by the selected *online router*
   (:mod:`repro.online.routing`) — statically on the bare topology
   (``shortest`` / ``unique``, as the paper assumes) or adaptively against
   the live per-arc load (``least_loaded`` / ``k_shortest`` / ``widest``)
   — unless the event carries a pre-routed dipath;
2. the routed dipath joins the :class:`~repro.conflict.ShardedConflictGraph`
   (O(arcs), no neighbourhood walk, no rebuild);
3. the :class:`~repro.online.assigner.OnlineWavelengthAssigner` picks a
   wavelength under the budget ``W`` off its per-fibre colour index —
   or blocks the request, in which case
   the dipath leaves the graph again.  With ``speculative=True`` the
   arrival's candidate routes are instead ranked by their post-admission
   load and admitted in that order inside
   :class:`~repro.online.transaction.WhatIfTransaction` speculations; the
   first one that colours is committed
   (:func:`~repro.online.transaction.admit_best`);
4. departures release the wavelength and detach the dipath.

Blocked arrivals carry a *rejection reason*: :data:`NO_ROUTE` when the
topology offers no dipath at all, :data:`NO_WAVELENGTH` when a route
exists but no wavelength fits the budget (even after an optional Kempe
repair).  The distinction matters operationally — no amount of extra
spectrum fixes a :data:`NO_ROUTE` rejection, while the paper's
load/wavelength gap shows up entirely in the :data:`NO_WAVELENGTH` ones.
Two further reasons come from the fault-tolerance layer: :data:`SHED`
(the admission guard refused the arrival before any routing work, see
:class:`AdmissionGuard`) and :data:`FIBRE_CUT` (the lightpath was
provisioned, lost its fibre to a cut and could not be restored).

The result records acceptance/blocking per request plus per-event time
series (active lightpaths, wavelengths in use, maximum fibre load), which
is the blocking-vs-budget data the paper's load/wavelength gap shows up in:
on internal-cycle-free topologies a budget equal to the offline load
admits everything in static order, while internal cycles make the gap
appear as avoidable blocking.

:class:`OnlineEngine` is the reusable core — the live family, conflict
graph, router and assigner plus the per-arrival admission logic — exposed
so tests, benchmarks and what-if tooling can drive and inspect the state
directly instead of round-tripping through event lists.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import (
    RoutingError,
    ShardNotFoundError,
    SimulationError,
    TransactionError,
    VertexNotFoundError,
)
from ..conflict.dynamic import ShardedConflictGraph
from .._bitops import bit_list
from ..dipaths.dipath import Dipath
from ..dipaths.family import DipathFamily
from ..dipaths.requests import Request
from ..graphs.digraph import DiGraph
from ..obs.profiling import get_default_profile
from ..obs.registry import Instrumented, MetricsRegistry
from ..obs.trace import NullSink, Tracer
from .assigner import OnlineWavelengthAssigner
from .defrag import DEFRAG_ORDERINGS, DefragPass, DefragReport
from .events import Event
from .routing import make_online_router
from .transaction import admit_batch as _admit_dipath_batch
from .transaction import admit_best

__all__ = ["DEFAULT_TENANT", "FIBRE_CUT", "NO_ROUTE", "NO_WAVELENGTH",
           "SHED", "AdmissionGuard", "EngineConfig", "OnlineEngine",
           "OnlineResult", "simulate_online"]

#: Rejection reason: the topology has no dipath for the request at all.
NO_ROUTE = "no_route"
#: Rejection reason: routed, but no wavelength fits the budget.
NO_WAVELENGTH = "no_wavelength"
#: Rejection reason: the admission guard shed the arrival unexamined
#: (work budget or queue depth exceeded) — no routing work was done.
SHED = "shed"
#: Rejection reason: provisioned, then stranded by a fibre cut and not
#: restored by the end of the run.
FIBRE_CUT = "fibre_cut"

#: Tenant name used for arrivals that carry none (and for arrivals of
#: tenants the guard was not configured with).
DEFAULT_TENANT = "default"

#: Field metadata of the restoration-plane knobs, which configure the
#: engine's :class:`~repro.online.faults.FaultInjector` rather than the
#: engine itself.
_RESTORATION = {"restoration": True}


@dataclass(frozen=True)
class EngineConfig:
    """The engine knobs, declared once.

    :class:`OnlineEngine` takes the first six as keywords;
    :func:`simulate_online`, :class:`~repro.service.RwaService` and
    :class:`~repro.online.persistence.DurableEngine` take all of them
    (``simulate_online`` derives ``restore_order`` from its
    ``defrag_order``) and collect them here.  A durable journal's genesis
    record stores every field, and recovery reads them back from it.

    Attributes
    ----------
    routing:
        Routing policy, one of
        :data:`~repro.online.routing.ONLINE_ROUTINGS` — static
        (``"shortest"`` / ``"unique"``) or adaptive (``"least_loaded"`` /
        ``"k_shortest"`` / ``"widest"``).  Ignored for arrivals carrying a
        pre-routed dipath.
    policy:
        Wavelength policy, one of :data:`~repro.online.assigner.POLICIES`.
    kempe_repair:
        Attempt one Kempe chain swap before blocking an arrival.
    seed:
        RNG seed for the ``random`` policy.
    k_candidates:
        Candidate budget per endpoint pair for ``k_shortest`` routing.
    speculative:
        Admit arrivals by trying the candidate routes, least
        post-admission load first, each inside a what-if transaction and
        committing the first that colours
        (:func:`~repro.online.transaction.admit_best`); only routers with
        a real candidate set (``k_shortest``) offer more than one.
    restoration:
        Re-route lightpaths stranded by a fibre cut through batched
        re-admission + defrag retries (see
        :class:`~repro.online.faults.FaultInjector`).  With ``False``
        cuts still tear stranded lightpaths down (the spectrum is
        released), but no re-route is attempted until the fibre is
        repaired.
    restore_retries:
        Bounded retries of the restoration loop per fault event: after
        the first batched re-admission, up to this many further rounds,
        each preceded by a defrag pass (backoff stops early when a pass
        commits no move).
    restore_move_budget:
        ``max_moves`` for each restoration defrag pass (``None`` =
        unbounded).
    revert_on_repair:
        After a repair, offer every restoration-rerouted lightpath its
        original route back, keeping only strict-improvement moves (the
        defrag acceptance objective).
    restore_order:
        Walk order of the restoration defrag passes.
    """

    routing: str = "shortest"
    policy: str = "first_fit"
    kempe_repair: bool = False
    seed: Optional[int] = None
    k_candidates: int = 4
    speculative: bool = False
    #: Not a knob: the component-sharded engine is the only engine.  Kept
    #: init-only (out of ``asdict`` and genesis records) because existing
    #: callers, the ``perfbench`` workloads among them, pass ``True``.
    sharded: InitVar[bool] = True
    restoration: bool = field(default=True, metadata=_RESTORATION)
    restore_retries: int = field(default=2, metadata=_RESTORATION)
    restore_move_budget: Optional[int] = field(default=None,
                                               metadata=_RESTORATION)
    revert_on_repair: bool = field(default=False, metadata=_RESTORATION)
    restore_order: str = field(default="highest_wavelength",
                               metadata=_RESTORATION)

    def __post_init__(self, sharded: bool) -> None:
        if sharded is not True:
            raise ValueError("sharded=False is no longer supported: the "
                             "component-sharded engine is the only engine")
        if self.restore_retries < 0:
            raise ValueError("restore_retries must be >= 0")
        if self.restore_move_budget is not None and \
                self.restore_move_budget < 0:
            raise ValueError("restore_move_budget must be >= 0")
        if self.restore_order not in DEFRAG_ORDERINGS:
            raise ValueError(f"unknown restore_order {self.restore_order!r}; "
                             f"expected one of {DEFRAG_ORDERINGS}")

    @classmethod
    def for_engine(cls, knobs: Dict[str, object]) -> "EngineConfig":
        """The config of a bare :class:`OnlineEngine`, which refuses the
        restoration knobs as unexpected keywords."""
        for f in fields(cls):
            if f.metadata and f.name in knobs:
                raise TypeError(f"unexpected keyword argument {f.name!r}")
        return cls(**knobs)

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "EngineConfig":
        """The config stored in a journal genesis record (keys that are
        not fields, such as the ``"sharded"`` of older journals, are
        ignored)."""
        return cls(**{f.name: record[f.name] for f in fields(cls)})

    def components(self, family: DipathFamily, wavelengths: int,
                   metrics: MetricsRegistry
                   ) -> Tuple[ShardedConflictGraph, OnlineWavelengthAssigner]:
        """The conflict graph and assigner these knobs wire over ``family``.

        A component-sharded conflict graph (O(arcs) structural events)
        and an assigner, which reads forbidden colours from its per-fibre
        :class:`~repro.online.sharding.ArcColorIndex` (O(arcs) masks);
        both publish into ``metrics``.  :class:`OnlineEngine` and
        snapshot recovery wire their components here and nowhere else.
        """
        return (ShardedConflictGraph(family, metrics=metrics),
                OnlineWavelengthAssigner(
                    family, wavelengths, policy=self.policy,
                    kempe_repair=self.kempe_repair, seed=self.seed,
                    metrics=metrics))

    def build(self, graph: DiGraph, wavelengths: int,
              metrics: Optional[MetricsRegistry] = None,
              tracer: Optional[Tracer] = None,
              profile=None) -> "OnlineEngine":
        """An :class:`OnlineEngine` with this config's engine knobs."""
        return OnlineEngine(graph, wavelengths, metrics=metrics,
                            tracer=tracer, profile=profile,
                            **{f.name: getattr(self, f.name)
                               for f in fields(self) if not f.metadata})


class _TenantBucket:
    """One tenant's token-bucket state (see :class:`AdmissionGuard`)."""

    __slots__ = ("rate", "burst", "tokens", "last", "group")

    def __init__(self, rate: Optional[float], burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst          # start full: an initial burst is fine
        self.last: Optional[float] = None
        self.group = 0


class AdmissionGuard(Instrumented):
    """Deterministic token-bucket load shedding for the admission loop.

    Under a burst, routing + speculation work per arrival is what stalls
    an online engine — so the guard measures *work*, not arrivals: each
    arrival costs its candidate budget (``k_candidates`` under
    speculation, ``1`` otherwise), the bucket refills at ``work_budget``
    units per unit of *event time* and holds at most ``burst`` units.  An
    arrival whose cost exceeds the available tokens is shed — rejected
    with :data:`SHED` before any routing work — so a burst degrades into
    bounded per-timestamp work instead of an unbounded stall, and blocking
    rises smoothly instead of latency.  ``queue_depth`` additionally caps
    how many arrivals sharing one timestamp are even considered (the rest
    shed regardless of tokens).

    **Per-tenant quotas.**  With ``tenants`` set (``name -> weight``),
    every declared tenant gets its *own* token bucket holding a
    deterministic weighted fair share of the global work budget: tenant
    ``t`` refills at ``work_budget * weight(t) / total_weight`` and holds
    at most ``burst * weight(t) / total_weight`` tokens, and
    ``queue_depth`` caps same-timestamp arrivals per tenant.  A tenant
    can therefore only ever exhaust its own share — a flooding tenant is
    shed against its own bucket while a quiet tenant's bucket stays full,
    which is the starvation-freedom contract the service tests pin down.
    Arrivals with no tenant (or an undeclared one) draw from an implicit
    :data:`DEFAULT_TENANT` bucket of weight ``1.0`` (declare ``"default"``
    explicitly to change its share).  Without ``tenants`` all arrivals
    share one global bucket, exactly as before.

    Shed accounting: the deterministic ``guard.shed`` counter holds the
    total, and per-tenant ``guard.tenant.<name>.shed`` diagnostic
    counters split it by the tenant named at :meth:`admits` time — they
    partition the total exactly in both modes.

    Everything is a pure function of the event timestamps, so runs are
    reproducible — no wall clock is consulted.
    """

    def __init__(self, work_budget: Optional[float] = None,
                 burst: Optional[float] = None,
                 queue_depth: Optional[int] = None,
                 tenants: Optional[Dict[str, float]] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._obs_init("guard", metrics)
        if work_budget is not None and work_budget <= 0:
            raise ValueError("work_budget must be positive")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if burst is not None and work_budget is None:
            raise ValueError("burst needs a work_budget")
        self._budget = work_budget
        if work_budget is None:
            self._burst = 0.0
        else:
            self._burst = burst if burst is not None else 10.0 * work_budget
            if self._burst < work_budget:
                raise ValueError("burst must be >= work_budget")
        self._queue_depth = queue_depth
        self._buckets: Dict[str, _TenantBucket] = {}
        if tenants:
            weights = dict(tenants)
            weights.setdefault(DEFAULT_TENANT, 1.0)
            for name, weight in weights.items():
                if weight <= 0:
                    raise ValueError(
                        f"tenant {name!r} needs a positive weight")
            total = sum(weights.values())
            for name in sorted(weights):
                share = weights[name] / total
                self._buckets[name] = _TenantBucket(
                    None if self._budget is None else self._budget * share,
                    self._burst * share)
        else:
            self._buckets[DEFAULT_TENANT] = _TenantBucket(
                self._budget, self._burst)
        self._m_shed = self._obs_counter("shed")
        self._m_considered = self._obs_counter("considered")
        self._m_tenant_shed: Dict[str, object] = {}

    @property
    def shed_count(self) -> int:
        """Arrivals refused by the guard (registry-backed accessor)."""
        return self._m_shed.value

    def tenants(self) -> List[str]:
        """The tenant names holding a dedicated bucket (sorted)."""
        return sorted(self._buckets)

    def tenant_shed_counts(self) -> Dict[str, int]:
        """``tenant -> shed arrivals``; the values sum to ``shed_count``."""
        return {name: counter.value
                for name, counter in sorted(self._m_tenant_shed.items())}

    def tokens_available(self, tenant: Optional[str] = None) -> float:
        """Tokens currently in ``tenant``'s bucket (introspection only)."""
        name = tenant if tenant is not None else DEFAULT_TENANT
        bucket = self._buckets.get(name) or self._buckets[DEFAULT_TENANT]
        return bucket.tokens

    def _shed(self, tenant: str) -> bool:
        self._m_shed.inc()
        counter = self._m_tenant_shed.get(tenant)
        if counter is None:
            counter = self._m_tenant_shed[tenant] = self._obs_counter(
                f"tenant.{tenant}.shed", diagnostic=True)
        counter.inc()
        return False

    def admits(self, time: float, cost: float = 1.0,
               tenant: Optional[str] = None) -> bool:
        """Whether one arrival at ``time`` costing ``cost`` may proceed.

        ``tenant`` selects the quota bucket (``None`` and undeclared
        names draw from the :data:`DEFAULT_TENANT` bucket); the shed
        accounting always uses the name as given.
        """
        self._m_considered.inc()
        name = tenant if tenant is not None else DEFAULT_TENANT
        bucket = self._buckets.get(name)
        if bucket is None:
            bucket = self._buckets[DEFAULT_TENANT]
        if bucket.last is None or time > bucket.last:
            if bucket.rate is not None and bucket.last is not None:
                bucket.tokens = min(
                    bucket.burst,
                    bucket.tokens + (time - bucket.last) * bucket.rate)
            bucket.group = 0
            bucket.last = time
        bucket.group += 1
        if self._queue_depth is not None and \
                bucket.group > self._queue_depth:
            return self._shed(name)
        if bucket.rate is not None:
            if bucket.tokens < cost:
                return self._shed(name)
            bucket.tokens -= cost
        return True


@dataclass
class OnlineResult:
    """Outcome of an online simulation run.

    Attributes
    ----------
    accepted, blocked:
        ``request_id`` of admitted / blocked arrivals.  Without faults
        both lists are in arrival order; fibre cuts move stranded
        requests from ``accepted`` to ``blocked`` (and restoration moves
        them back by re-appending), so under faults the lists are in
        *final-decision* order.
    rejections:
        ``request_id -> reason`` for every blocked arrival —
        :data:`NO_ROUTE`, :data:`NO_WAVELENGTH`, :data:`SHED` or
        :data:`FIBRE_CUT`.
    wavelengths_available:
        The per-fibre budget ``W``.
    wavelengths_used:
        Distinct wavelengths assigned at any point of the run.
    routing, policy:
        The routing and wavelength-selection policies used.
    speculative:
        Whether arrivals were admitted through what-if speculation.
    kempe_repairs:
        Successful Kempe chain swaps (0 unless ``kempe_repair=True``).
    batch_policy:
        The partial-commit policy applied to equal-timestamp arrival
        bursts (``None`` = arrivals admitted one by one).
    defrag_passes, defrag_moves:
        Defragmentation passes run and moves they committed (0 unless a
        defrag trigger is configured).
    wavelengths_reclaimed:
        Total distinct wavelengths freed by defrag passes (sum of each
        pass's reclaim, fragmentation can rebuild between passes).
    fibre_cuts, fibre_repairs:
        Fault events processed during the run.
    lightpaths_stranded:
        Lightpaths torn down by fibre cuts (each counted once per cut
        that stranded it, restored or not).
    lightpaths_restored:
        Successful re-admissions of stranded lightpaths (at cut time,
        on later retries, or at repair time).
    component_merges, component_splits, shard_rebuilds:
        Shard-tracker counters at the end of the run.
    timeline:
        One sample per processed event: ``time``, ``active`` (concurrent
        lightpaths), ``wavelengths_active`` (colours currently in use),
        ``max_fibre_load``, ``blocked_total``.  Empty when timeline
        recording is off.
    metrics:
        Snapshot of the run's :class:`~repro.obs.registry.MetricsRegistry`
        (``{"counters": ..., "gauges": ..., "histograms": ...,
        "diagnostics": ...}``).  The final ``result.*`` counters are the
        source of truth for :attr:`blocking_rate` and
        :meth:`blocked_count`; the ``diagnostics`` section may differ
        between equivalent code paths (see
        :meth:`~repro.obs.registry.MetricsRegistry.snapshot`).
    """

    accepted: List[int] = field(default_factory=list)
    blocked: List[int] = field(default_factory=list)
    rejections: Dict[int, str] = field(default_factory=dict)
    wavelengths_available: int = 0
    wavelengths_used: int = 0
    routing: str = EngineConfig.routing
    policy: str = EngineConfig.policy
    speculative: bool = EngineConfig.speculative
    kempe_repairs: int = 0
    batch_policy: Optional[str] = None
    defrag_passes: int = 0
    defrag_moves: int = 0
    wavelengths_reclaimed: int = 0
    fibre_cuts: int = 0
    fibre_repairs: int = 0
    lightpaths_stranded: int = 0
    lightpaths_restored: int = 0
    component_merges: int = 0
    component_splits: int = 0
    shard_rebuilds: int = 0
    timeline: List[Dict[str, float]] = field(default_factory=list)
    metrics: Optional[Dict[str, object]] = None

    @property
    def blocking_rate(self) -> float:
        """Fraction of arrivals that ended the run unprovisioned.

        Every rejection reason counts: shed arrivals never got routing
        work and cut-stranded lightpaths *were* provisioned for a while,
        but both represent service the network ultimately failed to
        deliver, which is what an operator's blocking SLA measures.  Use
        the ``blocked_*`` accessors to split the rate by cause.

        Reads the run's ``result.accepted`` / ``result.blocked`` registry
        counters when a metrics snapshot is attached (every
        :func:`simulate_online` run); falls back to the id lists for
        hand-built results.
        """
        if self.metrics is not None:
            counters = self.metrics["counters"]
            accepted = counters.get("result.accepted", 0)
            blocked = counters.get("result.blocked", 0)
            total = accepted + blocked
            return blocked / total if total else 0.0
        total = len(self.accepted) + len(self.blocked)
        return len(self.blocked) / total if total else 0.0

    def blocked_count(self, reason: Optional[str] = None) -> int:
        """Registry-backed blocked-arrival count, optionally per reason.

        ``reason`` is one of :data:`NO_ROUTE`, :data:`NO_WAVELENGTH`,
        :data:`SHED`, :data:`FIBRE_CUT` (``None`` = all).  Every blocked
        request is counted under exactly one reason, so the per-reason
        counts sum to the total — the regression suite asserts it.
        """
        key = "result.blocked" if reason is None \
            else f"result.blocked.{reason}"
        if self.metrics is not None:
            return self.metrics["counters"].get(key, 0)
        if reason is None:
            return len(self.blocked)
        return sum(1 for r in self.rejections.values() if r == reason)

    @property
    def blocked_no_route(self) -> List[int]:
        """Blocked arrivals the topology could not route at all."""
        return [rid for rid in self.blocked
                if self.rejections.get(rid) == NO_ROUTE]

    @property
    def blocked_no_wavelength(self) -> List[int]:
        """Blocked arrivals that routed but found no free wavelength."""
        return [rid for rid in self.blocked
                if self.rejections.get(rid) == NO_WAVELENGTH]

    @property
    def blocked_shed(self) -> List[int]:
        """Arrivals the admission guard shed before any routing work."""
        return [rid for rid in self.blocked
                if self.rejections.get(rid) == SHED]

    @property
    def blocked_fibre_cut(self) -> List[int]:
        """Lightpaths stranded by a fibre cut and never restored."""
        return [rid for rid in self.blocked
                if self.rejections.get(rid) == FIBRE_CUT]

    def peak_active(self) -> int:
        """Maximum number of concurrent lightpaths (0 without a timeline)."""
        return max((int(s["active"]) for s in self.timeline), default=0)


class OnlineEngine(Instrumented):
    """Live state of an online RWA run, one admission decision at a time.

    Owns the dynamic quartet — :class:`~repro.dipaths.family.DipathFamily`,
    :class:`~repro.conflict.ShardedConflictGraph`, an online router bound
    to the live family, and the
    :class:`~repro.online.assigner.OnlineWavelengthAssigner` with its
    :class:`~repro.online.sharding.ArcColorIndex` — and exposes
    :meth:`admit` / :meth:`depart` as the two state transitions.
    :func:`simulate_online` is a trace loop over an engine; tests and
    benchmarks use the engine directly to inspect (or speculate on) the
    state between events.

    Observability: the engine owns (or shares, via ``metrics=``) a
    :class:`~repro.obs.registry.MetricsRegistry` that every attached
    component — conflict graph shard tracker, per-fibre colour index and
    the engine's own admission/defrag counters — publishes into.  An
    optional :class:`~repro.obs.trace.Tracer` wraps the state transitions
    in structured spans (``admit`` / ``admit_batch`` / ``depart`` /
    ``defrag``); ``profile=`` attaches a
    :class:`~repro.obs.profiling.SpanProfiler` to those spans (with no
    tracer given, a null-sink tracer is created so the profiler still
    sees the span stream).  None of it feeds back into decisions: with
    or without instrumentation, decisions and ``engine_fingerprint`` are
    bit-identical — the differential suites assert it.

    The engine knobs (``routing``, ``policy``, ``kempe_repair``, ``seed``,
    ``k_candidates``, ``speculative``) are keywords, documented and
    defaulted by :class:`EngineConfig`.
    """

    def __init__(self, graph: DiGraph, wavelengths: int, *,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 profile=None, **knobs) -> None:
        if wavelengths < 1:
            raise ValueError("wavelengths must be >= 1")
        config = EngineConfig.for_engine(knobs)
        self._obs_init("engine", metrics)
        if profile is None:
            profile = get_default_profile()
        if profile is not None:
            if tracer is None:
                tracer = Tracer(sink=NullSink())
            tracer.attach_profiler(profile)
        self.tracer = tracer
        self.graph = graph
        self.family = DipathFamily()
        self.conflict, self.assigner = config.components(
            self.family, wavelengths, self._obs_registry)
        self.router = make_online_router(graph, config.routing,
                                         family=self.family,
                                         wavelengths=wavelengths,
                                         k=config.k_candidates)
        self.speculative = config.speculative
        self.vertex_of: Dict[int, int] = {}     # request_id -> member index
        self._m_admitted = self._obs_counter("admitted")
        self._m_rejected_route = self._obs_counter("rejected.no_route")
        self._m_rejected_wavelength = \
            self._obs_counter("rejected.no_wavelength")
        self._m_departed = self._obs_counter("departed")
        self._m_batches = self._obs_counter("batch.bursts")
        self._m_batch_arrivals = self._obs_counter("batch.arrivals")
        self._h_batch_size = self._obs_histogram(
            "batch.size", (1, 2, 4, 8, 16, 32, 64))
        self._m_defrag_passes = self._obs_counter("defrag.passes")
        self._m_defrag_moves = self._obs_counter("defrag.moves")
        self._m_defrag_reclaimed = self._obs_counter("defrag.reclaimed")

    # Backward-compatible counter accessors (settable: crash recovery
    # restores them from snapshots, see repro.online.persistence).
    @property
    def defrag_passes(self) -> int:
        return self._m_defrag_passes.value

    @defrag_passes.setter
    def defrag_passes(self, value: int) -> None:
        self._m_defrag_passes.set(value)

    @property
    def defrag_moves(self) -> int:
        return self._m_defrag_moves.value

    @defrag_moves.setter
    def defrag_moves(self, value: int) -> None:
        self._m_defrag_moves.set(value)

    @property
    def wavelengths_reclaimed(self) -> int:
        return self._m_defrag_reclaimed.value

    @wavelengths_reclaimed.setter
    def wavelengths_reclaimed(self, value: int) -> None:
        self._m_defrag_reclaimed.set(value)

    @property
    def active(self) -> int:
        """Number of currently provisioned lightpaths."""
        return len(self.vertex_of)

    def arc_names(self) -> Dict[int, str]:
        """``arc id -> "u->v"`` labels for trace/metrics consumers.

        Spans tag lightpath routes with interned arc ids (cheap on the
        hot path); this mapping turns them back into fibre names for
        :class:`~repro.obs.analyze.TraceAnalyzer` reports.
        """
        return {aid: f"{arc[0]}->{arc[1]}"
                for arc, aid in self.family._arc_ids.items()}

    def shard_map(self) -> Dict[int, List[int]]:
        """``anchor -> member indices`` of the live conflict components.

        Runs the pending lazy split-checks first, so the returned shards
        are the exact connected components of the conflict graph.
        """
        return self.conflict.shard_map()

    def audit(self) -> List[str]:
        """Cross-check every redundant structure; return the violations.

        The composing end of the ``audit() -> list[str]`` protocol
        (:meth:`~repro.conflict.sharding.ShardTracker.audit`,
        :meth:`~repro.online.sharding.ArcColorIndex.audit`): runs the
        component tracker's and colour index's own audits, then verifies
        the invariants only the engine can see against each active
        member's raw route (``Dipath.arcs()``), never against the tables
        under audit:

        * request bookkeeping: every ``request_id`` maps to a distinct
          active member and every active member is owned by a request;
        * the family's per-member arc ids and per-fibre member tables,
          and the conflict adjacency, equal the routes' fibres and
          shared-fibre relation;
        * the colouring is total on active members, within the
          wavelength budget, and proper on every fibre;
        * the assigner's per-wavelength usage counters and used-mask
          match a recount of the colouring;
        * the colour index's per-arc mask equals a replay of the
          colouring over each member's raw route (with the per-fibre
          properness check, this pins every mask bit the index's
          parity flips could get wrong).

        O(active · arcs) — meant for tests and the opt-in
        ``audit_every=`` hook of :func:`simulate_online`, not the
        admission hot path.  An empty list means the state is coherent.
        """
        problems = [f"tracker: {p}" for p in self.conflict.audit()]
        family, assigner, conflict = self.family, self.assigner, self.conflict
        index = assigner.color_index
        problems.extend(f"colorindex: {p}" for p in index.audit())
        coloring = dict(assigner.coloring)
        active = family.active_indices()
        active_set = set(active)
        owners: Dict[int, int] = {}
        for rid in sorted(self.vertex_of):
            idx = self.vertex_of[rid]
            if idx in owners:
                problems.append(f"engine: requests {owners[idx]} and {rid} "
                                f"both map to member {idx}")
            owners[idx] = rid
            if idx not in active_set:
                problems.append(f"engine: request {rid} maps to inactive "
                                f"member {idx}")
        for idx in active:
            if idx not in owners:
                problems.append(f"engine: active member {idx} has no "
                                f"owning request")
        wavelengths = assigner.wavelengths
        for idx in sorted(coloring):
            if idx not in active_set:
                problems.append(f"colours: inactive member {idx} still "
                                f"holds wavelength {coloring[idx]}")
        for idx in active:
            color = coloring.get(idx)
            if color is None:
                problems.append(f"colours: active member {idx} has no "
                                f"wavelength")
            elif not 0 <= color < wavelengths:
                problems.append(f"colours: member {idx} wavelength {color} "
                                f"is outside the budget {wavelengths}")
        # ground truth: fibre -> active members whose raw route uses it
        routes = {idx: tuple(family[idx].arcs()) for idx in active}
        users: Dict[Tuple, int] = {}
        for idx, arcs in routes.items():
            for arc in arcs:
                users[arc] = users.get(arc, 0) | 1 << idx
        interned = family._arc_ids          # arc -> id, for the index
        for aid in range(family.num_arc_ids):
            arc = family.arc_of_id(aid)
            if family.members_on_arc(arc) != bit_list(users.get(arc, 0)):
                problems.append(f"family: the member table of arc {arc} "
                                f"disagrees with the routes using it")
        for idx, arcs in routes.items():
            if family.member_arc_ids(idx) != tuple(interned.get(arc)
                                                   for arc in arcs):
                problems.append(f"family: member {idx} arc ids disagree "
                                f"with its route")
            expected = 0
            for arc in arcs:
                expected |= users[arc]
            if conflict.neighbor_mask(idx) != expected & ~(1 << idx):
                problems.append(f"conflict: member {idx} adjacency "
                                f"disagrees with its route's shared-fibre "
                                f"members")
        # properness per fibre, and the colour index's expected masks
        expected_masks: Dict[int, int] = {}
        for arc, mask in users.items():
            holder: Dict[int, int] = {}
            for idx in bit_list(mask):
                color = coloring.get(idx)
                if color is None:
                    continue
                other = holder.setdefault(color, idx)
                if other != idx:
                    problems.append(f"colours: members {other} and {idx} "
                                    f"share wavelength {color} on fibre "
                                    f"{arc}")
            # an un-interned arc was reported as an arc-id mismatch above
            aid = interned.get(arc)
            if aid is not None:
                expected_masks[aid] = sum(1 << c for c in holder)
        recount = [0] * wavelengths
        used_mask = 0
        for idx, color in coloring.items():
            if 0 <= color < wavelengths:
                recount[color] += 1
                used_mask |= 1 << color
        if assigner.usage() != recount:
            problems.append("assigner: per-wavelength usage counters "
                            "disagree with a recount of the colouring")
        if assigner.used_mask != used_mask:
            problems.append("assigner: used-wavelength mask disagrees "
                            "with a recount of the colouring")
        # arc ids past the family's are the index's own audit (above)
        for aid in range(family.num_arc_ids):
            expected_arc = expected_masks.get(aid, 0)
            actual_arc = index.colors_on_arc_id(aid)
            if actual_arc != expected_arc:
                problems.append(f"colorindex: arc {aid} mask "
                                f"{actual_arc:#x} disagrees with a replay "
                                f"of the colouring ({expected_arc:#x})")
        return problems

    def admit(self, request_id: int, request: Optional[Request] = None,
              dipath: Optional[Dipath] = None) -> Optional[str]:
        """Try to provision one arrival; return the rejection reason.

        ``None`` means admitted.  A pre-routed ``dipath`` skips routing
        (one over an arc the topology lacks, or has cut, is refused with
        :data:`NO_ROUTE`); otherwise the engine's router picks the route
        (or the candidate set, under speculation) from the live state.

        With a tracer attached, the decision is wrapped in an ``admit``
        span tagged with the request id, the outcome, and — on success —
        the colour, the route's arc ids and the conflict-component
        anchor.  Refused while a what-if transaction is open (see
        :meth:`_refuse_in_transaction`).
        """
        if self.conflict._tx_stack:
            self._refuse_in_transaction("admit")
        tracer = self.tracer
        if tracer is None:
            return self._admit(request_id, request, dipath)
        if tracer.profiler is None and not tracer.wall_clock:
            # hot path: decide first, then emit one flat span record —
            # no context-manager machinery per arrival
            t0 = tracer.now
            reason = self._admit(request_id, request, dipath)
            tracer.emit_span("admit", t0, self._admit_tags(
                request_id, reason))
            return reason
        with tracer.span("admit", rid=request_id) as span:
            reason = self._admit(request_id, request, dipath)
            span.tags.update(self._admit_tags(request_id, reason))
            return reason

    def _admit_tags(self, request_id: int,
                    reason: Optional[str]) -> Dict[str, object]:
        """Tags of one admit span/event (shared by the trace paths)."""
        if reason is not None:
            return {"rid": request_id, "outcome": reason}
        idx = self.vertex_of[request_id]
        return {
            "rid": request_id,
            "outcome": "admitted",
            "color": self.assigner.color_of(idx),
            # the interned-arc-id tuple serializes as a JSON array;
            # no copy on the hot path
            "arcs": self.family.member_arc_ids(idx),
            "shard": self.conflict.shard_of_member(idx).anchor(),
        }

    def _admit(self, request_id: int, request: Optional[Request],
               dipath: Optional[Dipath]) -> Optional[str]:
        candidates = self._route(request_id, request, dipath,
                                 self.speculative)
        if not candidates:
            self._m_rejected_route.inc()
            return NO_ROUTE
        if len(candidates) > 1:
            decision = admit_best(self.conflict, self.assigner, candidates)
            if decision is None:
                self._m_rejected_wavelength.inc()
                return NO_WAVELENGTH
            self.vertex_of[request_id] = decision.index
            self._m_admitted.inc()
            return None
        # A lone arrival is added, coloured and, if blocked, only removed,
        # not retracted as the transaction layer's placement is: its freed
        # slot and the arcs it interned stay behind.  Journals already
        # written record that state in their snapshots (the v1 journals of
        # tests/test_recovery.py among them), so replay needs this path.
        idx = self.conflict.add_dipath(candidates[0])
        if self.assigner.assign(self.conflict, idx) is None:
            self.conflict.remove_dipath(idx)
            self._m_rejected_wavelength.inc()
            return NO_WAVELENGTH
        self.vertex_of[request_id] = idx
        self._m_admitted.inc()
        return None

    def _route(self, request_id: int, request: Optional[Request],
               dipath: Optional[Dipath], speculative: bool) -> List[Dipath]:
        """The routing step of one arrival: its candidate routes.

        Raises :class:`~repro.exceptions.SimulationError` for a duplicate
        request id or an arrival with neither request nor dipath.  A
        pre-routed ``dipath`` is the one candidate if :meth:`_check_arrival`
        passes it; else the router's candidates (``speculative``) or its
        route.  An empty list is a :data:`NO_ROUTE` rejection whose
        endpoints :meth:`_check_vertices` has checked.
        """
        if request_id in self.vertex_of:
            raise SimulationError(
                f"duplicate arrival for request {request_id}")
        if dipath is not None:
            return [dipath] if self._check_arrival(request, dipath) else []
        if request is None:
            raise SimulationError(
                f"arrival {request_id} has no request or dipath")
        if speculative:
            candidates = self.router.candidates(request)
        else:
            routed = self.router.route(request)
            candidates = [] if routed is None else [routed]
        if not candidates:
            self._check_vertices((request.source, request.target))
        return candidates

    def _check_arrival(self, request: Optional[Request],
                       dipath: Dipath) -> bool:
        """Check a pre-routed arrival: its dipath's vertices and, when
        it carries one too, its request's endpoints (journalled beside
        the dipath even though only the dipath is routed).

        Returns whether every arc of the dipath is an arc of the live
        topology; a dipath over an arc that never existed, or one that is
        cut now, is refused with :data:`NO_ROUTE` before any state
        changes."""
        vertices = dipath.vertices if isinstance(dipath, Dipath) else dipath
        self._check_vertices(vertices)
        if request is not None:
            self._check_vertices((request.source, request.target))
        has_arc = self.graph.has_arc
        return all(has_arc(u, v) for u, v in zip(vertices, vertices[1:]))

    def _check_vertices(self, vertices) -> None:
        """Refuse an arrival naming a vertex the topology lacks — a
        request endpoint or a pre-routed dipath vertex — before any state
        changes, whatever the router (the journal's vertex table holds
        only topology vertices).

        A routed request needs the check only when no route came back:
        a route's vertices are the topology's, and the BFS and k-shortest
        routers already raise on an unknown endpoint."""
        has_vertex = self.graph.has_vertex
        for v in vertices:
            if not has_vertex(v):
                raise VertexNotFoundError(v)

    def admit_batch(self, arrivals: List[Event],
                    policy: str = "all_or_nothing"
                    ) -> Dict[int, Optional[str]]:
        """Admit a burst of arrival events atomically; reasons per request.

        Each arrival is routed first (pre-routed dipaths are used verbatim
        if every arc is live; unroutable requests and off-topology dipaths
        are rejected with :data:`NO_ROUTE` without touching the batch);
        the routed burst is then admitted through
        :func:`repro.online.transaction.admit_batch` under the given
        partial-commit policy.  Returns ``request_id -> None`` (admitted)
        or a rejection reason.  The burst runs as one what-if
        transaction of its own, and is refused while a caller's is open
        (see :meth:`_refuse_in_transaction`).

        With a tracer attached the burst is wrapped in an
        ``admit_batch`` span and every admitted member additionally
        emits an ``admit`` point event (same tags as a single-admit
        span), so trace analysis sees batched and singleton admissions
        uniformly.
        """
        if self.conflict._tx_stack:
            self._refuse_in_transaction("admit_batch")
        tracer = self.tracer
        if tracer is None:
            return self._admit_batch(arrivals, policy)
        with tracer.span("admit_batch", size=len(arrivals),
                         policy=policy) as span:
            reasons = self._admit_batch(arrivals, policy)
            admitted_rids = [rid for rid, reason in reasons.items()
                             if reason is None]
            span.tags["admitted"] = len(admitted_rids)
            for rid in admitted_rids:
                tracer.event("admit", **self._admit_tags(rid, None))
            return reasons

    def _admit_batch(self, arrivals: List[Event],
                     policy: str) -> Dict[int, Optional[str]]:
        reasons: Dict[int, Optional[str]] = {}
        routed: List[tuple] = []
        for event in arrivals:
            rid = event.request_id
            candidates = self._route(rid, event.request, event.dipath, False)
            if candidates:
                routed.append((rid, candidates[0]))
            else:
                reasons[rid] = NO_ROUTE
        self._m_batches.inc()
        self._m_batch_arrivals.inc(len(arrivals))
        self._h_batch_size.observe(len(arrivals))
        outcome = _admit_dipath_batch(
            self.conflict, self.assigner, [d for _, d in routed],
            policy=policy)
        admitted = {pos: idx for pos, idx, _ in outcome.admitted}
        for pos, (request_id, _) in enumerate(routed):
            if pos in admitted:
                self.vertex_of[request_id] = admitted[pos]
                reasons[request_id] = None
            else:
                reasons[request_id] = NO_WAVELENGTH
        for reason in reasons.values():
            if reason is None:
                self._m_admitted.inc()
            elif reason == NO_ROUTE:
                self._m_rejected_route.inc()
            else:
                self._m_rejected_wavelength.inc()
        return reasons

    def depart(self, request_id: int) -> bool:
        """Tear down a provisioned lightpath; ``False`` if it never held one
        (blocked arrivals depart silently).  Refused while a what-if
        transaction is open (see :meth:`_refuse_in_transaction`)."""
        if self.conflict._tx_stack:
            self._refuse_in_transaction("depart")
        tracer = self.tracer
        if tracer is None:
            return self._depart(request_id)
        if tracer.profiler is None and not tracer.wall_clock:
            t0 = tracer.now
            held = self._depart(request_id)
            tracer.emit_span("depart", t0,
                             {"rid": request_id, "held": held})
            return held
        with tracer.span("depart", rid=request_id) as span:
            held = self._depart(request_id)
            span.tags["held"] = held
            return held

    def depart_batch(self, request_ids: Sequence[int]) -> List[bool]:
        """Tear down a run of lightpaths in order; one ``held`` flag each.

        A plain loop over :meth:`depart`: every departure keeps its own
        span and counters, so a run departs exactly as its ops would one
        by one."""
        depart = self.depart
        return [depart(rid) for rid in request_ids]

    def _refuse_in_transaction(self, op: str) -> None:
        """Refuse ``op`` with :class:`~repro.exceptions.TransactionError`.

        :meth:`admit`, :meth:`admit_batch` and :meth:`depart` call this
        before any change while a what-if transaction is open: the
        request map is not journalled (nor a lone arrival's add), so a
        rollback could not undo them.  Speculate through the transaction.
        """
        raise TransactionError(
            f"{op} inside an open what-if transaction: the engine's "
            f"request map is not journalled; resolve the transaction first")

    def _depart(self, request_id: int) -> bool:
        idx = self.vertex_of.pop(request_id, None)
        if idx is None:
            return False
        self.assigner.release(idx)
        self.conflict.remove_dipath(idx)
        self._m_departed.inc()
        return True

    # ------------------------------------------------------------------ #
    # defragmentation
    # ------------------------------------------------------------------ #
    def _defrag_candidates(self, idx: int, dipath: Dipath
                           ) -> Sequence[Dipath]:
        """The router's candidate routes for re-admitting lightpath
        ``idx`` (:class:`DefragPass` adds the current route)."""
        try:
            return self.router.candidates(Request(dipath.source,
                                                  dipath.target))
        except RoutingError:        # e.g. 'unique' routing on an ambiguous pair
            return []

    def defrag(self, order: str = "highest_wavelength",
               max_moves: Optional[int] = None,
               time_budget: Optional[float] = None,
               shard: Optional[int] = None) -> DefragReport:
        """Run one defragmentation pass over the provisioned lightpaths.

        Candidate routes come from the engine's router (the current route
        is always kept as a candidate), moves commit only on a strict
        improvement — see :class:`~repro.online.defrag.DefragPass`.  The
        ``request_id -> member`` map is kept coherent and the engine's
        defrag counters are updated.

        ``shard`` restricts the walk to one conflict component (an anchor
        from :meth:`shard_map`): only that component's lightpaths are
        attempted, under the unchanged global acceptance objective.
        """
        tracer = self.tracer
        if tracer is None:
            return self._defrag(order, max_moves, time_budget, shard)
        with tracer.span("defrag", order=order) as span:
            report = self._defrag(order, max_moves, time_budget, shard)
            span.tags["moves"] = len(report.moves)
            span.tags["reclaimed"] = report.reclaimed
            return report

    def _defrag(self, order: str, max_moves: Optional[int],
                time_budget: Optional[float],
                shard: Optional[int]) -> DefragReport:
        # a pass is the natural maintenance point: settle the pending
        # lazy split-checks so per-shard scheduling sees true components
        self.conflict.refresh_shards()
        members = None
        if shard is not None:
            members = self.shard_map().get(shard)
            if members is None:
                raise ShardNotFoundError(shard)
        report = DefragPass(self.conflict, self.assigner,
                            candidates=self._defrag_candidates, order=order,
                            max_moves=max_moves,
                            time_budget=time_budget, members=members,
                            metrics=self._obs_registry).run()
        remapped = {m.index: m.new_index for m in report.moves
                    if m.new_index != m.index}
        if remapped:    # pragma: no cover - moves recycle their own slot
            for request_id, idx in list(self.vertex_of.items()):
                if idx in remapped:
                    self.vertex_of[request_id] = remapped[idx]
        self._m_defrag_passes.inc()
        self._m_defrag_moves.inc(len(report.moves))
        self._m_defrag_reclaimed.inc(max(0, report.reclaimed))
        return report


def simulate_online(graph: DiGraph, events: List[Event], wavelengths: int,
                    *, record_timeline: bool = True,
                    batch_policy: Optional[str] = None,
                    defrag_every: Optional[int] = None,
                    defrag_on_block: bool = False,
                    defrag_utilization: Optional[float] = None,
                    defrag_order: str = "highest_wavelength",
                    defrag_max_moves: Optional[int] = None,
                    shed_work_budget: Optional[float] = None,
                    shed_burst: Optional[float] = None,
                    shed_queue_depth: Optional[int] = None,
                    audit_every: Optional[int] = None,
                    metrics: Optional[MetricsRegistry] = None,
                    tracer: Optional[Tracer] = None,
                    profile=None, **knobs) -> OnlineResult:
    """Run an event trace through the incremental online RWA engine.

    Validates the options, builds the engine, feeds the sorted trace to
    a :class:`~repro.online.dispatch.Dispatcher` and samples the
    timeline; the dispatcher makes every decision.

    Parameters
    ----------
    graph:
        The network topology (routes are computed on the bare graph).
    events:
        Time-ordered trace (see :mod:`repro.online.events`).
    wavelengths:
        Per-fibre wavelength budget ``W`` (>= 1).
    record_timeline:
        Record one sample per event (turn off for benchmarking hot loops).
    batch_policy:
        When set (one of :data:`~repro.online.transaction.BATCH_POLICIES`),
        consecutive arrivals sharing a timestamp are admitted as one
        atomic burst through :meth:`OnlineEngine.admit_batch` instead of
        one by one, and consecutive departures sharing a timestamp go
        through :meth:`OnlineEngine.depart_batch`, which decides exactly
        what they would one by one.  A periodic trigger (``defrag_every``,
        ``audit_every``) a group crosses fires once, after the group, and
        the timeline gets one sample per group, repeated for each of its
        events.
    defrag_every:
        Run a defragmentation pass every this many processed events.
    defrag_on_block:
        On a ``no_wavelength`` rejection, run a defragmentation pass and
        re-try the blocked arrival once if the pass committed any move.
    defrag_utilization:
        Run a pass whenever the fraction of wavelengths in use crosses
        this threshold from below (re-armed once utilisation drops back).
    defrag_order, defrag_max_moves:
        Walk order and per-pass move budget for every triggered pass
        (see :class:`~repro.online.defrag.DefragPass`); the walk order
        is also the restoration passes' ``restore_order``.
    shed_work_budget, shed_burst, shed_queue_depth:
        Configure an :class:`AdmissionGuard` (any of them set turns it
        on): arrivals beyond the work budget — ``k_candidates`` units
        under speculation, ``1`` otherwise, refilled per unit of event
        time, bucket capped at ``shed_burst`` — or beyond
        ``shed_queue_depth`` same-timestamp arrivals are rejected with
        :data:`SHED` before any routing work.  Shed arrivals never
        trigger ``defrag_on_block``.
    audit_every:
        Opt-in runtime auditing: every ``audit_every`` processed events
        (and once more after the trace drains) run
        :meth:`OnlineEngine.audit` and raise
        :class:`~repro.exceptions.AuditError` carrying the violations if
        any redundant structure disagrees.  O(state) per check — a
        debugging/validation harness, not a production setting.
    metrics, tracer, profile:
        Observability hooks, all decision-neutral (see
        :mod:`repro.obs`): ``metrics`` shares a
        :class:`~repro.obs.registry.MetricsRegistry` (one is created
        otherwise; its snapshot is attached as ``result.metrics``
        either way), ``tracer`` wraps admissions/departures/defrag/
        faults in structured spans with the event-time clock advanced
        per trace event, and ``profile`` attaches a
        :class:`~repro.obs.profiling.SpanProfiler` per span category.
    **knobs:
        The engine knobs of :class:`EngineConfig` except
        ``restore_order``, which follows ``defrag_order``.
    """
    from .dispatch import Dispatcher            # deferred: heavy layers
    from .faults import fault_surface

    config = EngineConfig(restore_order=defrag_order, **knobs)
    engine = config.build(fault_surface(graph, events), wavelengths,
                          metrics=metrics, tracer=tracer, profile=profile)
    dispatcher = Dispatcher(
        engine, config, batch_policy=batch_policy,
        work_budget=shed_work_budget, burst=shed_burst,
        queue_depth=shed_queue_depth, defrag_every=defrag_every,
        defrag_on_block=defrag_on_block,
        defrag_utilization=defrag_utilization,
        defrag_max_moves=defrag_max_moves, audit_every=audit_every)
    tracer = engine.tracer      # may have been created for a profiler
    timeline: List[Dict[str, float]] = []
    last_time = float("-inf")
    for group in dispatcher.groups(events):
        now = group[0].time
        if now < last_time:
            raise SimulationError(
                f"trace is not time-ordered at request {group[0].request_id}")
        last_time = now
        if tracer is not None:
            tracer.advance(now)
        dispatcher.dispatch(group)
        if record_timeline:
            sample = {
                "time": now,
                "active": float(engine.active),
                "wavelengths_active": float(engine.assigner.colors_in_use()),
                "max_fibre_load": float(engine.family.load()),
                "blocked_total": float(len(dispatcher.blocked)),
            }
            timeline.extend(dict(sample) for _ in group)
    result = dispatcher.result()
    result.timeline = timeline
    return result
