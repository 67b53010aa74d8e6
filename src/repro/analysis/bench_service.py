"""RWA-service benchmark (E19): identity, throughput, tenant isolation.

Two claims, recorded in ``BENCH_service.json`` (suite ``service`` of
:mod:`repro.analysis.suites`):

* **Service identity + latency** (``kind == "service"``) — replaying a
  flash-crowd burst trace through :func:`repro.service.serve_trace`
  makes **bit-identical decisions** to
  :func:`~repro.online.simulator.simulate_online` on the same ordered
  trace: accepted/blocked lists, rejection reasons and the
  :func:`~repro.online.persistence.engine_fingerprint` of the final
  engines all compare equal (``decisions_equal`` /
  ``fingerprint_identical`` — the gated facts).  The record also samples
  sustained admissions/sec and the wall-clock p99 submit→decision
  latency of the service under the burst; like every absolute wall-clock
  number in these suites they are **recorded for information** and never
  compared across runs — only the within-run identity facts gate.

* **Tenant isolation** (``kind == "tenant_isolation"``) — with
  per-tenant quotas configured, a flooding tenant saturating its
  weighted-fair share is shed against *its own* bucket while an
  interleaved quiet tenant (arriving under its share) is never shed
  (``quiet_never_shed``), and the per-tenant
  ``guard.tenant.<name>.shed`` counters partition the ``guard.shed``
  total exactly (``shed_partition_exact``).

The same contracts are pinned per-construction by
``tests/test_service.py`` (marker ``service``); this suite is the
replayed-workload / wall-clock side of them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..dipaths.requests import Request
from ..generators.regions import multi_region_topology, multi_region_traffic
from ..obs import Tracer
from ..online.events import ARRIVAL, DEPARTURE, Event, sort_events
from ..online.persistence import engine_fingerprint
from ..online.simulator import OnlineResult, SHED, simulate_online
from ..service import serve_trace

__all__ = [
    "SERVICE_SCENARIOS",
    "TENANT_SCENARIOS",
    "flash_crowd_trace",
    "measure_service_scenario",
    "measure_tenant_scenario",
    "run_service_benchmark",
]


def flash_crowd_trace(pairs: List[Tuple], bursts: int, burst_size: int,
                      spacing: float, holding: float,
                      quiet_every: Optional[int] = None
                      ) -> List[Event]:
    """A flash crowd: ``bursts`` equal-deadline arrival waves.

    Every wave lands ``burst_size`` arrivals on one timestamp (the
    coalescing / shedding stressor), each departing ``holding`` time
    units later (deterministic — the suite's identity facts must be a
    pure function of the trace).  With ``quiet_every`` set, every
    ``quiet_every``-th arrival of a wave is the *quiet tenant's* —
    :func:`measure_tenant_scenario` maps those ids to a separate quota
    bucket via ``tenant_of``.
    """
    events: List[Event] = []
    rid = 0
    for burst in range(bursts):
        now = burst * spacing
        for _ in range(burst_size):
            source, target = pairs[rid % len(pairs)]
            events.append(Event(now, ARRIVAL, rid,
                                request=Request(source, target)))
            events.append(Event(now + holding, DEPARTURE, rid))
            rid += 1
    return sort_events(events)


def _quiet_tenant_of(quiet_every: int) -> Callable[[Event], Optional[str]]:
    """Tenant mapper: every ``quiet_every``-th arrival is ``quiet``."""
    def tenant_of(event: Event) -> Optional[str]:
        return "quiet" if event.request_id % quiet_every == \
            quiet_every - 1 else "flood"
    return tenant_of


def _identity_workload(seed_topo: int, seed_traffic: int, bursts: int,
                       burst_size: int) -> Tuple[object, List[Event]]:
    graph = multi_region_topology(regions=2, region_size=16,
                                  arc_probability=0.18, coupling=2,
                                  seed=seed_topo)
    pool = multi_region_traffic(graph, bursts * burst_size,
                                inter_fraction=0.25, seed=seed_traffic)
    trace = flash_crowd_trace(pool.pairs(), bursts, burst_size,
                              spacing=1.0, holding=2.5)
    return graph, trace


#: name -> (workload builder, wavelengths, service kwargs,
#:          matching simulate_online kwargs).  The service/simulator
#: kwarg pairs describe the SAME configuration through both APIs.
SERVICE_SCENARIOS: Dict[str, Tuple] = {
    "service-flash-crowd-singleton": (
        lambda: _identity_workload(23, 29, bursts=36, burst_size=22),
        10, {}, {}),
    "service-flash-crowd-batched-guarded": (
        lambda: _identity_workload(31, 37, bursts=36, burst_size=22),
        10,
        dict(batch_policy="best_prefix", work_budget=8.0, burst=24.0,
             queue_depth=16),
        dict(batch_policy="best_prefix", shed_work_budget=8.0,
             shed_burst=24.0, shed_queue_depth=16)),
}

#: name -> (workload seeds/shape, wavelengths, guard kwargs).  One quiet
#: arrival rides in every wave; the flood gets the rest.  The quiet
#: tenant's fair-share refill rate strictly exceeds its arrival rate, so
#: starvation-freedom predicts zero quiet sheds no matter how hard the
#: flood pushes.
TENANT_SCENARIOS: Dict[str, Tuple] = {
    "service-tenant-flood-vs-quiet": (
        (41, 43, 30, 13), 10,
        dict(work_budget=6.0, burst=12.0,
             tenants={"flood": 1.0, "quiet": 1.0})),
}


def _decisions(result: OnlineResult) -> Tuple:
    """The decision-bearing projection of a result (identity checks)."""
    return (result.accepted, result.blocked, result.rejections,
            result.wavelengths_used, result.kempe_repairs)


def measure_service_scenario(name: str, repeats: int = 3,
                             tracer: Optional[Tracer] = None,
                             warmup: bool = True) -> Dict[str, object]:
    """Replay one flash crowd through the service and the trace loop.

    The identity facts are deterministic; the throughput/latency
    numbers keep the *best* (least contended) of ``repeats`` replays.
    ``tracer`` rides along on every service replay (decision-neutral by
    the E18 contract — the identity facts still gate); ``warmup=False``
    skips the untimed warm-up replay (smoke mode).
    """
    build, wavelengths, svc_kwargs, sim_kwargs = SERVICE_SCENARIOS[name]
    graph, trace = build()
    arrivals = sum(1 for e in trace if e.kind == ARRIVAL)

    reference = simulate_online(graph, trace, wavelengths,
                                record_timeline=False, **sim_kwargs)

    if warmup:
        serve_trace(graph, trace, wavelengths, tracer=tracer, **svc_kwargs)
    best_wall = float("inf")
    served = None
    p99_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        candidate = serve_trace(graph, trace, wavelengths, tracer=tracer,
                                **svc_kwargs)
        wall = time.perf_counter() - start
        p99_s = min(p99_s, candidate.latency["p99_s"])
        if wall < best_wall:
            best_wall, served = wall, candidate

    return {
        "kind": "service",
        "scenario": name,
        "events": len(trace),
        "arrivals": arrivals,
        "wavelengths": wavelengths,
        "blocking": served.blocking_rate,
        "shed": served.blocked_count(SHED),
        "decisions_equal": _decisions(served) == _decisions(reference),
        "fingerprint_identical": (engine_fingerprint(served.engine)
                                  == engine_fingerprint(reference.engine)),
        # wall-clock (informational; never compared across runs)
        "serve_total_s": best_wall,
        "admissions_per_s": arrivals / best_wall if best_wall else
        float("inf"),
        "p99_latency_s": p99_s,
    }


def measure_tenant_scenario(name: str,
                            tracer: Optional[Tracer] = None
                            ) -> Dict[str, object]:
    """Flood one tenant, interleave a quiet one, check isolation."""
    ((seed_topo, seed_traffic, bursts, burst_size), wavelengths,
     guard_kwargs) = TENANT_SCENARIOS[name]
    graph = multi_region_topology(regions=2, region_size=16,
                                  arc_probability=0.18, coupling=2,
                                  seed=seed_topo)
    pool = multi_region_traffic(graph, bursts * burst_size,
                                inter_fraction=0.25, seed=seed_traffic)
    trace = flash_crowd_trace(pool.pairs(), bursts, burst_size,
                              spacing=1.0, holding=2.5)
    tenant_of = _quiet_tenant_of(burst_size)
    quiet_ids = {e.request_id for e in trace if e.kind == ARRIVAL
                 and tenant_of(e) == "quiet"}

    start = time.perf_counter()
    result = serve_trace(graph, trace, wavelengths, tenant_of=tenant_of,
                         tracer=tracer, **guard_kwargs)
    wall = time.perf_counter() - start

    shed_ids = set(result.blocked_shed)
    quiet_shed = len(shed_ids & quiet_ids)
    flood_shed = len(shed_ids - quiet_ids)
    counters = result.metrics["counters"]
    diagnostics = result.metrics["diagnostics"]["counters"]
    tenant_shed = {key.split(".")[2]: value
                   for key, value in diagnostics.items()
                   if key.startswith("guard.tenant.")
                   and key.endswith(".shed")}
    return {
        "kind": "tenant_isolation",
        "scenario": name,
        "events": len(trace),
        "quiet_arrivals": len(quiet_ids),
        "flood_arrivals": bursts * burst_size - len(quiet_ids),
        "quiet_shed": quiet_shed,
        "flood_shed": flood_shed,
        "shed_total": counters.get("guard.shed", 0),
        "shed_by_tenant": tenant_shed,
        "quiet_never_shed": quiet_shed == 0,
        "flood_is_shed": flood_shed > 0,
        "shed_partition_exact": (sum(tenant_shed.values())
                                 == counters.get("guard.shed", 0)
                                 == len(shed_ids)),
        "blocking": result.blocking_rate,
        "serve_total_s": wall,     # informational
    }


def run_service_benchmark(repeats: int = 3,
                          tracer: Optional[Tracer] = None,
                          smoke: bool = False) -> List[Dict[str, object]]:
    """Run every E19 scenario and return the records.

    ``tracer`` is attached to every service replay (``bench_report.py
    --trace`` hands in a JSONL-backed one and closes it afterwards).
    ``smoke=True`` is the cheap wiring check used by ``scripts/smoke.py``
    and the tier-1 smoke test: one replay per scenario, no warm-up — the
    deterministic identity/isolation facts still gate, only the
    wall-clock samples get noisier.
    """
    if smoke:
        repeats = 1
    return ([measure_service_scenario(name, repeats=repeats, tracer=tracer,
                                      warmup=not smoke)
             for name in SERVICE_SCENARIOS]
            + [measure_tenant_scenario(name, tracer=tracer)
               for name in TENANT_SCENARIOS])
