"""Online RWA engine: dynamic dipath families, incremental conflict
maintenance and event-driven admission simulation.

The static pipeline (family -> conflict graph -> colouring) answers the
paper's offline question; this package answers its operational one:
lightpaths arrive and depart, and the gap between load and wavelengths
shows up as avoidable blocking.  The moving parts:

* :mod:`repro.online.events`     — seeded Poisson / replay / churn traces;
* :class:`repro.conflict.DynamicConflictGraph` (re-exported here) — the
  conflict graph patched in O(degree) per event;
* :mod:`repro.online.routing`    — static (shortest / unique) and adaptive
  (least-loaded / k-shortest / widest) online routers consulting the live
  per-arc load;
* :mod:`repro.online.assigner`   — first-fit / least-used / most-used /
  random wavelength policies with optional Kempe-chain repair;
* :mod:`repro.online.transaction` — what-if speculation: nestable
  checkpoint / O(touched) rollback over family + conflict graph +
  assigner, :func:`admit_best` committing the least-loaded admissible
  candidate of an arrival and :func:`admit_batch` admitting a burst
  atomically under a partial-commit policy;
* :mod:`repro.online.defrag`     — defragmentation passes speculatively
  re-admitting provisioned lightpaths and committing only strict
  improvements (wavelengths reclaimed, never a service interruption);
* :mod:`repro.online.simulator`  — :class:`OnlineEngine`, the reusable
  per-event core, its knobs (:class:`EngineConfig`), and
  :func:`simulate_online`, the trace front-end;
* :mod:`repro.online.dispatch`   — the :class:`~repro.online.dispatch.
  Dispatcher` both the trace loop and :class:`repro.service.RwaService`
  run every op through: timestamp batching, :class:`AdmissionGuard`
  load shedding, periodic / on-block / utilisation-triggered defrag,
  fault reconciliation and the result bookkeeping;
* :mod:`repro.online.faults`     — fibre-cut / repair injection with
  bounded mass re-route restoration and optional reversion;
* :mod:`repro.online.persistence` — :class:`DurableEngine`'s append-only
  decision journal with snapshots, and verified journal-replay crash
  recovery (:func:`recover`).

:func:`repro.optical.simulation.simulate_admission` is a thin static-order
front-end over this engine.  See the "Dynamic engine" and "What-if
transaction" sections of PERFORMANCE.md for the mask-patching and
rollback contracts and per-event complexity.
"""

from ..conflict.dynamic import DynamicConflictGraph, ShardedConflictGraph
from ..conflict.sharding import Shard, ShardTracker, ShardView
from .assigner import POLICIES, AssignerCheckpoint, OnlineWavelengthAssigner
from .sharding import ArcColorIndex
from .defrag import (
    DEFRAG_ORDERINGS,
    DefragMove,
    DefragPass,
    DefragReport,
    defrag_objective,
    max_color_in_use,
)
from .events import (
    ARRIVAL,
    CUT,
    DEPARTURE,
    REPAIR,
    Event,
    churn_trace,
    cut_event,
    poisson_trace,
    repair_event,
    replay_trace,
    sort_events,
)
from .faults import FaultInjector, FaultReport
from .persistence import DurableEngine, engine_fingerprint, recover
from .routing import ONLINE_ROUTINGS, OnlineRouter, make_online_router
from .simulator import (
    FIBRE_CUT,
    NO_ROUTE,
    NO_WAVELENGTH,
    SHED,
    AdmissionGuard,
    EngineConfig,
    OnlineEngine,
    OnlineResult,
    simulate_online,
)
from .transaction import (
    BATCH_POLICIES,
    AdmissionDecision,
    BatchResult,
    WhatIfTransaction,
    admit_batch,
    admit_best,
)

__all__ = [
    "ARRIVAL",
    "AdmissionDecision",
    "AdmissionGuard",
    "ArcColorIndex",
    "AssignerCheckpoint",
    "BATCH_POLICIES",
    "BatchResult",
    "CUT",
    "DEFRAG_ORDERINGS",
    "DEPARTURE",
    "DefragMove",
    "DefragPass",
    "DefragReport",
    "DurableEngine",
    "DynamicConflictGraph",
    "EngineConfig",
    "Event",
    "FIBRE_CUT",
    "FaultInjector",
    "FaultReport",
    "NO_ROUTE",
    "NO_WAVELENGTH",
    "ONLINE_ROUTINGS",
    "OnlineEngine",
    "OnlineResult",
    "OnlineRouter",
    "OnlineWavelengthAssigner",
    "POLICIES",
    "REPAIR",
    "SHED",
    "Shard",
    "ShardTracker",
    "ShardView",
    "ShardedConflictGraph",
    "WhatIfTransaction",
    "admit_batch",
    "admit_best",
    "churn_trace",
    "cut_event",
    "defrag_objective",
    "engine_fingerprint",
    "make_online_router",
    "max_color_in_use",
    "poisson_trace",
    "recover",
    "repair_event",
    "replay_trace",
    "simulate_online",
    "sort_events",
]
