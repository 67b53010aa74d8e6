"""Component-sharded engine benchmark (E16).

Two claims, recorded in ``BENCH_sharding.json`` (suite ``sharding`` of
:mod:`repro.analysis.suites`), each replayed once on the one online
engine (:class:`~repro.conflict.ShardedConflictGraph` structure +
:class:`~repro.online.ArcColorIndex` forbidden masks) against the audit
oracle, :meth:`~repro.online.OnlineEngine.audit`, which checks the
conflict adjacency against the raw routes' shared-fibre relation and the
colour index against a replay of the colouring — the only two inputs a
decision reads besides the colouring itself — and the on-demand conflict
components (:meth:`~repro.online.OnlineEngine.shard_map`) against a flood
fill over the routes' shared-fibre relation:

* **Throughput** (``kind == "throughput"``) — on a multi-region topology
  holding 800+ concurrent lightpaths, time the admission churn and
  defragmentation passes (``total_s``), auditing every
  :data:`THROUGHPUT_AUDIT_EVERY` events outside the timed region.  At
  this scale one audit costs over a hundred events, so the throughput
  replays audit at a stride; the differential ones audit every event.
  ``components`` is the number of conflict components at the end, a
  function of the decisions alone, which the closing audit found equal
  to the routes' shared-fibre components.

* **Differential** (``kind == "differential"``) — full
  :func:`~repro.online.simulator.simulate_online` runs (speculative
  routing, defrag triggers, timestamp batching) with ``audit_every=1``,
  on traces whose inter-region lightpaths join components and whose
  departures split them again; each event's audit checks the components
  (a trace's last departure leaves none to report at its end).

An audit violation raises :class:`~repro.exceptions.AuditError` naming
every broken invariant, so a run that returns records has passed the
oracle on every audited event.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from ..exceptions import AuditError
from ..generators.families import random_walk_family
from ..generators.regions import multi_region_topology, multi_region_traffic
from ..online.events import ARRIVAL, Event, churn_trace, poisson_trace
from ..online.simulator import OnlineEngine, simulate_online

__all__ = [
    "THROUGHPUT_AUDIT_EVERY",
    "THROUGHPUT_SCENARIOS",
    "DIFFERENTIAL_SCENARIOS",
    "measure_throughput_scenario",
    "measure_differential_scenario",
    "run_sharding_benchmark",
]

#: Churn events between two audits of a throughput replay (a divisor of
#: every scenario's ``defrag every``, so each defrag pass is audited).
THROUGHPUT_AUDIT_EVERY = 25


# ---------------------------------------------------------------------- #
# throughput scenarios
# ---------------------------------------------------------------------- #
#: name -> (regions, region size, coupling, wavelengths, concurrent
#:          lightpaths, timed churn events, defrag every).  Lightpaths
#: are multi-arc random walks (3+ fibres each), so members genuinely
#: conflict — short shortest-path routes would leave the conflict graph
#: too sparse to stress the engine.  Walks cross the bridge fibres
#: whenever they wander onto one, which joins the regions' components.
THROUGHPUT_SCENARIOS: Dict[str, Tuple[int, int, int, int, int, int, int]] = {
    "shard-4regions-860": (4, 48, 2, 128, 900, 3000, 1500),
    "shard-6regions-850": (6, 36, 2, 128, 900, 3000, 1500),
}


def _throughput_trace(name: str) -> Tuple[object, List[Event], int, int]:
    """The deterministic pre-routed churn trace of a throughput scenario."""
    (regions, size, coupling, wavelengths, concurrent, events,
     defrag_every) = THROUGHPUT_SCENARIOS[name]
    graph = multi_region_topology(regions=regions, region_size=size,
                                  coupling=coupling, seed=929 + regions)
    pool = random_walk_family(graph, 3300, seed=35, min_length=3)
    trace = churn_trace(pool, concurrent, events, seed=47)
    return graph, trace, wavelengths, defrag_every


def _audit(engine: OnlineEngine, name: str, when: str) -> None:
    """Audit ``engine``; raise :class:`~repro.exceptions.AuditError` on
    any violation."""
    problems = engine.audit()
    if problems:
        raise AuditError(f"{name}: engine audit failed {when}", problems)


def measure_throughput_scenario(name: str) -> Dict[str, object]:
    """Replay one throughput scenario, audited; return its record.

    The warm-up (the leading pure-arrival prefix that fills the system)
    is shared setup; the timed region is the steady-state churn plus one
    defragmentation pass every ``defrag every`` processed events.  The
    engine is audited after the warm-up, every
    :data:`THROUGHPUT_AUDIT_EVERY` events and at the end, with the clock
    stopped; a violation raises :class:`~repro.exceptions.AuditError`.
    """
    graph, trace, wavelengths, defrag_every = _throughput_trace(name)
    (regions, _, _, _, _, events, _) = THROUGHPUT_SCENARIOS[name]
    engine = OnlineEngine(graph, wavelengths, routing="shortest")
    cut = 0
    while cut < len(trace) and trace[cut].kind == ARRIVAL:
        cut += 1
    for event in trace[:cut]:
        engine.admit(event.request_id, dipath=event.dipath)
    _audit(engine, name, "after the warm-up")
    audits = 1
    total = 0.0
    start = time.perf_counter()
    for processed, event in enumerate(trace[cut:], 1):
        if event.kind == ARRIVAL:
            engine.admit(event.request_id, dipath=event.dipath)
        else:
            engine.depart(event.request_id)
        if processed % defrag_every == 0:
            engine.defrag(order="highest_wavelength")
        if processed % THROUGHPUT_AUDIT_EVERY == 0:
            total += time.perf_counter() - start
            _audit(engine, name, f"after {processed} events")
            audits += 1
            start = time.perf_counter()
    total += time.perf_counter() - start
    _audit(engine, name, "at the end")
    audits += 1
    return {
        "scenario": name,
        "kind": "throughput",
        "regions": regions,
        "concurrent": engine.active,
        "wavelengths": wavelengths,
        "churn_events": events,
        "defrag_passes": engine.defrag_passes,
        "defrag_moves": engine.defrag_moves,
        "total_s": total,
        "event_us": total / events * 1e6,
        "audits": audits,
        "components": len(engine.shard_map()),
    }


# ---------------------------------------------------------------------- #
# differential scenarios
# ---------------------------------------------------------------------- #
#: name -> (regions, region size, coupling, inter fraction, wavelengths,
#:          arrivals, offered load, simulate_online extras)
DIFFERENTIAL_SCENARIOS: Dict[str, Tuple] = {
    "diff-4regions-defrag": (
        4, 22, 2, 0.12, 6, 400, 60.0,
        dict(routing="k_shortest", defrag_every=40, defrag_on_block=True)),
    "diff-4regions-speculative-batch": (
        4, 22, 2, 0.12, 6, 400, 60.0,
        dict(routing="k_shortest", speculative=True, batch_policy="greedy")),
}


def measure_differential_scenario(name: str) -> Dict[str, object]:
    """One full trace under ``audit_every=1``; return its record."""
    (regions, size, coupling, inter, wavelengths, arrivals, load,
     extras) = DIFFERENTIAL_SCENARIOS[name]
    graph = multi_region_topology(regions=regions, region_size=size,
                                  coupling=coupling, seed=17 + regions)
    pool = multi_region_traffic(graph, 300, inter_fraction=inter, seed=23)
    trace = poisson_trace(pool, arrivals, arrival_rate=load / 3.0,
                          mean_holding=3.0, seed=5)
    result = simulate_online(graph, trace, wavelengths,
                             record_timeline=False, audit_every=1, **extras)
    return {
        "scenario": name,
        "kind": "differential",
        "regions": regions,
        "wavelengths": wavelengths,
        "arrivals": arrivals,
        "blocking": result.blocking_rate,
    }


def run_sharding_benchmark() -> List[Dict[str, object]]:
    """Run every E16 scenario once and return the records."""
    return ([measure_throughput_scenario(name)
             for name in THROUGHPUT_SCENARIOS]
            + [measure_differential_scenario(name)
               for name in DIFFERENTIAL_SCENARIOS])
