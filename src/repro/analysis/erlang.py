"""Erlang-load sweeps, the adaptive-routing benchmark (E14) and the
defragmentation benchmark (E15).

Two questions, one record file (``BENCH_online_routing.json``):

* **Does adaptive routing pay?**  :func:`erlang_sweep` drives the same
  seeded Poisson trace (offered load ``arrival_rate * mean_holding``
  Erlang) through the online engine once per routing policy and reports
  the steady-state blocking probability of each — the curves the paper's
  load/wavelength bounds frame.  :func:`run_routing_benchmark` pins two
  deterministic hotspot scenarios and asserts the tentpole claim: at equal
  offered load, ``least_loaded`` and ``k_shortest`` block *strictly less*
  than fixed shortest-path routing.

* **Is what-if speculation cheap?**  The speculation scenarios time the
  evaluation of candidate admissions two ways on a 500+-concurrent warm
  system: through :class:`~repro.online.transaction.WhatIfTransaction`
  admit→score→rollback (O(touched) per candidate) versus the
  rebuild-per-candidate strategy (copy the family, rebuild the conflict
  graph, re-derive the colour constraints).  Both strategies must agree on
  every decision and the transactional path must be at least
  :data:`SPECULATION_SPEEDUP_TARGET` times faster.

Record kinds share one list: ``kind == "blocking"`` rows carry the
blocking comparison, ``kind == "speculation"`` rows the familiar
``legacy_* / new_* / speedup_total`` timing schema of the other suites.
The claims on both are declared in :mod:`repro.analysis.suites` (suite
``routing``, gate E14).

**E15 — does defragmentation pay?**  ``BENCH_defrag.json`` holds two
record kinds: ``kind == "defrag_blocking"`` replays the same hotspot
scenarios with and without defrag triggers and asserts blocking with
defrag never exceeds blocking without; ``kind == "defrag_reclaim"``
fragments a warm engine, runs one :class:`~repro.online.defrag.DefragPass`
per walk order and reports the wavelengths reclaimed against the
from-scratch recolouring (DSATUR on the rebuilt conflict graph) and the
true lower bound (the fibre load).  The claims are declared in
:mod:`repro.analysis.suites` (suite ``defrag``, gate E15).

:func:`erlang_sweep` can also fan the (offered load × routing) grid out
across worker processes (``workers=``) through
:func:`repro.parallel.sweep.run_sweep`; the parallel path is record-for-
record byte-identical to the serial one (the tests assert it), it only
changes where the simulations run.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .._bitops import iter_bits, lowest_missing_bit
from ..coloring.dsatur import dsatur_coloring_masks
from ..coloring.verify import is_proper_coloring
from ..conflict.conflict_graph import build_conflict_graph
from ..conflict.dynamic import ShardedConflictGraph
from ..dipaths.dipath import Dipath
from ..dipaths.family import DipathFamily
from ..dipaths.requests import RequestFamily
from ..generators.families import random_walk_family
from ..generators.random_dags import random_dag, random_internal_cycle_free_dag
from ..graphs.digraph import DiGraph
from ..obs.registry import MetricsRegistry
from ..online.assigner import OnlineWavelengthAssigner
from ..online.events import ARRIVAL, poisson_trace
from ..online.routing import live_load_cost
from ..online.simulator import EngineConfig, OnlineEngine, simulate_online
from ..online.transaction import WhatIfTransaction
from ..optical.traffic import hotspot_traffic
from ..parallel.sweep import Sweep, run_sweep

__all__ = [
    "ADAPTIVE_ROUTINGS",
    "DEFRAG_TRIGGERS",
    "SPECULATION_SPEEDUP_TARGET",
    "erlang_sweep",
    "run_routing_benchmark",
    "run_defrag_benchmark",
]

#: Speculative admit+rollback must beat rebuild-per-candidate by at least
#: this factor on 500+ concurrent dipaths (gate E14 and
#: ``benchmarks/bench_suites.py``).
SPECULATION_SPEEDUP_TARGET = 5.0

#: The adaptive policies the blocking records compare against ``shortest``.
ADAPTIVE_ROUTINGS = ("least_loaded", "k_shortest")


# ---------------------------------------------------------------------- #
# Erlang sweeps
# ---------------------------------------------------------------------- #
def _erlang_point(offered_load: float, routing: str, seed: int = 0, *,
                  graph: DiGraph, pool: RequestFamily, wavelengths: int,
                  policy: str, num_arrivals: int, mean_holding: float,
                  trace_seed: Optional[int], kempe_repair: bool,
                  speculative: bool) -> Dict[str, object]:
    """One (offered load, routing) record of :func:`erlang_sweep`.

    Module-level and fully determined by its arguments so the sweep can
    dispatch it to worker processes; the positional ``seed`` injected by
    :func:`repro.parallel.sweep.run_sweep` is ignored — the trace seed is
    pinned by the caller so every grid point replays the same arrivals.
    """
    trace = poisson_trace(pool, num_arrivals,
                          arrival_rate=offered_load / mean_holding,
                          mean_holding=mean_holding, seed=trace_seed)
    result = simulate_online(
        graph, trace, wavelengths, routing=routing, policy=policy,
        kempe_repair=kempe_repair, record_timeline=False,
        speculative=speculative and routing == "k_shortest")
    return {"record": {
        "offered_load": float(offered_load),
        "routing": routing,
        "policy": policy,
        "wavelengths": wavelengths,
        "arrivals": num_arrivals,
        "blocking": result.blocking_rate,
        "blocked_no_route": len(result.blocked_no_route),
        "blocked_no_wavelength": len(result.blocked_no_wavelength),
        "wavelengths_used": result.wavelengths_used,
    }}


def erlang_sweep(graph: DiGraph, pool: RequestFamily, wavelengths: int,
                 offered_loads: Sequence[float],
                 routings: Sequence[str] = ("shortest",) + ADAPTIVE_ROUTINGS,
                 policy: str = "first_fit", num_arrivals: int = 400,
                 mean_holding: float = 3.0, seed: Optional[int] = 0,
                 kempe_repair: bool = False, speculative: bool = False,
                 workers: Optional[int] = 1) -> List[Dict[str, object]]:
    """Steady-state blocking per (offered load, routing policy).

    For each offered load ``L`` (Erlang) one seeded Poisson trace with
    ``arrival_rate = L / mean_holding`` is generated and replayed once per
    routing policy — same arrivals, same holding times, so the blocking
    probabilities are directly comparable.  Returns one record per
    (load, routing) pair with the blocking rate split by rejection reason.

    ``workers`` fans the (load, routing) grid out across processes via
    :func:`repro.parallel.sweep.run_sweep` (``None`` = one per CPU,
    ``1`` = serial).  Every grid point is an independent seeded
    simulation, so the parallel records are byte-identical to the serial
    ones, in the same (load-major) order; on platforms without process
    support the executor transparently degrades to the serial path.
    """
    for load in offered_loads:
        if load <= 0:
            raise ValueError("offered loads must be positive")
    point = functools.partial(
        _erlang_point, graph=graph, pool=pool, wavelengths=wavelengths,
        policy=policy, num_arrivals=num_arrivals, mean_holding=mean_holding,
        trace_seed=seed, kempe_repair=kempe_repair, speculative=speculative)
    grid = Sweep({"offered_load": [float(load) for load in offered_loads],
                  "routing": list(routings)})
    rows = run_sweep(point, grid, workers=workers)
    return [row["record"] for row in rows]


# ---------------------------------------------------------------------- #
# benchmark scenarios
# ---------------------------------------------------------------------- #
def _icf_hotspot() -> Tuple[DiGraph, RequestFamily, int, float]:
    graph = random_internal_cycle_free_dag(36, 90, seed=23)
    pool = hotspot_traffic(graph, 400, num_hotspots=3, seed=23)
    return graph, pool, 5, 75.0


def _dag_hotspot() -> Tuple[DiGraph, RequestFamily, int, float]:
    graph = random_dag(30, 0.25, seed=11)
    pool = hotspot_traffic(graph, 400, num_hotspots=2, seed=11)
    return graph, pool, 5, 75.0


BLOCKING_SCENARIOS: Dict[str, Callable[
    [], Tuple[DiGraph, RequestFamily, int, float]]] = {
    "erlang-icf36-hotspot": _icf_hotspot,
    "erlang-dag30-hotspot": _dag_hotspot,
}

#: Arrivals per blocking scenario (enough for stable steady-state rates).
_BLOCKING_ARRIVALS = 600
_BLOCKING_SEED = 42


def measure_blocking_scenario(name: str) -> Dict[str, object]:
    """One deterministic blocking comparison record for scenario ``name``."""
    graph, pool, wavelengths, offered_load = BLOCKING_SCENARIOS[name]()
    rows = erlang_sweep(graph, pool, wavelengths, [offered_load],
                        num_arrivals=_BLOCKING_ARRIVALS, seed=_BLOCKING_SEED)
    blocking = {row["routing"]: float(row["blocking"]) for row in rows}
    fixed = blocking["shortest"]
    record: Dict[str, object] = {
        "scenario": name,
        "kind": "blocking",
        "wavelengths": wavelengths,
        "offered_load": offered_load,
        "arrivals": _BLOCKING_ARRIVALS,
        "blocking_shortest": fixed,
    }
    for routing in ADAPTIVE_ROUTINGS:
        record[f"blocking_{routing}"] = blocking[routing]
    record["adaptive_beats_fixed"] = all(
        blocking[routing] < fixed for routing in ADAPTIVE_ROUTINGS)
    return record


# ---------------------------------------------------------------------- #
# speculation benchmark
# ---------------------------------------------------------------------- #
def _warm_engine(concurrent: int, seed: int
                 ) -> Tuple[ShardedConflictGraph, OnlineWavelengthAssigner,
                            List[Dipath]]:
    """A 500+-concurrent warm engine plus a pool of candidate dipaths.

    The conflict graph and assigner are wired exactly as the online
    engine wires them (lazy adjacency, colour-indexed assigner).
    """
    graph = random_dag(48, 0.12, seed=20260730)
    pool = list(random_walk_family(graph, 1200, seed=seed))
    # first_fit with a roomy budget: the warm-up admits everything, so both
    # evaluation strategies start from an identical provisioned state.
    conflict, assigner = EngineConfig(policy="first_fit").components(
        DipathFamily(), 96, MetricsRegistry())
    admitted = 0
    for dipath in pool:
        if admitted >= concurrent:
            break
        idx = conflict.add_dipath(dipath)
        if assigner.assign(conflict, idx) is None:   # pragma: no cover
            conflict.remove_dipath(idx)
        else:
            admitted += 1
    return conflict, assigner, pool


def _evaluate_transactional(conflict: ShardedConflictGraph,
                            assigner: OnlineWavelengthAssigner,
                            candidates: Sequence[Dipath]) -> Optional[int]:
    """Best admissible candidate via admit→score→rollback speculation."""
    best: Optional[Tuple[Tuple[int, int, int], int]] = None
    family = conflict.family
    for pos, dipath in enumerate(candidates):
        with WhatIfTransaction(conflict, assigner) as tx:
            _, color = tx.admit(dipath)
            if color is not None:
                value = live_load_cost(family, dipath)
                if best is None or value < best[0]:
                    best = (value, pos)
    return None if best is None else best[1]


def _evaluate_rebuild(conflict: ShardedConflictGraph,
                      assigner: OnlineWavelengthAssigner,
                      candidates: Sequence[Dipath]) -> Optional[int]:
    """Best admissible candidate via copy + conflict-graph rebuild each.

    The pre-transaction strategy: every what-if clones the family, rebuilds
    the conflict graph from scratch and re-derives the candidate's colour
    constraints from the live colouring.  Decision-equivalent to the
    transactional path (same first-fit colour, same score), just paid in
    O(family) per candidate instead of O(touched).
    """
    family = conflict.family
    wavelengths = assigner.wavelengths
    color_of_slot = assigner.coloring
    best: Optional[Tuple[Tuple[int, int, int], int]] = None
    for pos, dipath in enumerate(candidates):
        fresh = family.copy()               # dense 0..n-1 reindex
        idx = fresh.add(dipath)
        rebuilt = build_conflict_graph(fresh)
        slot_of_pos = family.active_indices()
        forbidden = 0
        for j in iter_bits(rebuilt.neighbor_mask(idx)):
            color = color_of_slot.get(slot_of_pos[j])
            if color is not None:           # pragma: no branch
                forbidden |= 1 << color
        if lowest_missing_bit(forbidden) >= wavelengths:
            continue
        value = live_load_cost(fresh, dipath)
        if best is None or value < best[0]:
            best = (value, pos)
    return None if best is None else best[1]


SPECULATION_SCENARIOS: Dict[str, Tuple[int, int, int, int]] = {
    # name -> (concurrent, what_ifs, candidates per what-if, seed)
    "speculate-walks-550": (550, 60, 4, 7),
    "speculate-walks-620": (620, 60, 4, 9),
}


def measure_speculation_scenario(name: str, repeats: int = 3
                                 ) -> Dict[str, object]:
    """Time rebuild-per-candidate vs transactional what-if evaluation."""
    concurrent, what_ifs, num_candidates, seed = SPECULATION_SCENARIOS[name]
    conflict, assigner, pool = _warm_engine(concurrent, seed)
    candidate_sets = [
        [pool[(i * num_candidates + j) % len(pool)]
         for j in range(num_candidates)]
        for i in range(what_ifs)]

    def run(evaluate) -> Tuple[float, List[Optional[int]]]:
        start = time.perf_counter()  # noqa: REPRO-D1 -- benchmark timing
        decisions = [evaluate(conflict, assigner, cands)
                     for cands in candidate_sets]
        return time.perf_counter() - start, decisions  # noqa: REPRO-D1 -- benchmark timing

    legacy_total, legacy_decisions = min(
        (run(_evaluate_rebuild) for _ in range(repeats)),
        key=lambda sample: sample[0])
    new_total, new_decisions = min(
        (run(_evaluate_transactional) for _ in range(repeats)),
        key=lambda sample: sample[0])
    evaluations = what_ifs * num_candidates
    return {
        "scenario": name,
        "kind": "speculation",
        "num_dipaths": len(conflict.family),
        "what_ifs": what_ifs,
        "candidates_per_what_if": num_candidates,
        "legacy_total_s": legacy_total,
        "new_total_s": new_total,
        "legacy_candidate_us": legacy_total / evaluations * 1e6,
        "new_candidate_us": new_total / evaluations * 1e6,
        "speedup_total": legacy_total / new_total if new_total
        else float("inf"),
        "decisions_equal": new_decisions == legacy_decisions,
        "mask_rebuilds": conflict.family.mask_rebuilds,
    }


# ---------------------------------------------------------------------- #
# defragmentation benchmark (E15)
# ---------------------------------------------------------------------- #
#: The trigger configuration the E15 blocking comparison switches on:
#: a periodic pass every 25 events plus an on-block pass with a single
#: re-try of the blocked arrival.
DEFRAG_TRIGGERS: Dict[str, object] = {
    "defrag_every": 25,
    "defrag_on_block": True,
    "defrag_order": "highest_wavelength",
}

#: Multi-candidate router for the defrag runs, so moves can re-route, not
#: only recolour.
_DEFRAG_ROUTING = "k_shortest"


def _blocking_trace(name: str):
    graph, pool, wavelengths, offered_load = BLOCKING_SCENARIOS[name]()
    trace = poisson_trace(pool, _BLOCKING_ARRIVALS,
                          arrival_rate=offered_load / 3.0, mean_holding=3.0,
                          seed=_BLOCKING_SEED)
    return graph, trace, wavelengths, offered_load


def measure_defrag_blocking_scenario(name: str) -> Dict[str, object]:
    """Blocking with vs without defrag triggers on one hotspot scenario."""
    graph, trace, wavelengths, offered_load = _blocking_trace(name)
    base = simulate_online(graph, trace, wavelengths,
                           routing=_DEFRAG_ROUTING, record_timeline=False)
    defrag = simulate_online(graph, trace, wavelengths,
                             routing=_DEFRAG_ROUTING, record_timeline=False,
                             **DEFRAG_TRIGGERS)
    return {
        "scenario": name,
        "kind": "defrag_blocking",
        "wavelengths": wavelengths,
        "offered_load": offered_load,
        "arrivals": _BLOCKING_ARRIVALS,
        "routing": _DEFRAG_ROUTING,
        "blocking_no_defrag": base.blocking_rate,
        "blocking_defrag": defrag.blocking_rate,
        "defrag_passes": defrag.defrag_passes,
        "defrag_moves": defrag.defrag_moves,
        "wavelengths_reclaimed": defrag.wavelengths_reclaimed,
        "defrag_not_worse": defrag.blocking_rate <= base.blocking_rate,
    }


#: name -> (blocking scenario supplying topology+traffic, wavelength
#: budget, events to replay before measuring).  The budget is roomier
#: than the blocking scenarios' so churn leaves genuine fragmentation to
#: reclaim instead of just blocking.
RECLAIM_SCENARIOS: Dict[str, Tuple[str, int, int]] = {
    "reclaim-icf36-hotspot": ("erlang-icf36-hotspot", 12, 500),
    "reclaim-dag30-hotspot": ("erlang-dag30-hotspot", 12, 500),
}


def _fragmented_engine(base_name: str, wavelengths: int,
                       events: int) -> OnlineEngine:
    """A warm engine after ``events`` churn events of the base scenario."""
    graph, pool, _, offered_load = BLOCKING_SCENARIOS[base_name]()
    trace = poisson_trace(pool, _BLOCKING_ARRIVALS,
                          arrival_rate=offered_load / 3.0, mean_holding=3.0,
                          seed=_BLOCKING_SEED)
    engine = OnlineEngine(graph, wavelengths, routing=_DEFRAG_ROUTING)
    for event in trace[:events]:
        if event.kind == ARRIVAL:
            engine.admit(event.request_id, request=event.request,
                         dipath=event.dipath)
        else:
            engine.depart(event.request_id)
    return engine


def _proper_after_defrag(engine: OnlineEngine) -> bool:
    """Post-defrag colouring verifies against a from-scratch rebuild."""
    active = engine.family.active_indices()
    rebuilt = build_conflict_graph(
        DipathFamily([engine.family[i] for i in active]))
    remap = {slot: pos for pos, slot in enumerate(active)}
    dense = {remap[slot]: color
             for slot, color in engine.assigner.coloring.items()}
    return set(dense) == set(range(len(active))) and \
        is_proper_coloring(rebuilt.adjacency(), dense)


def _recolor_from_scratch(engine: OnlineEngine) -> int:
    """Wavelengths DSATUR needs recolouring the engine's current routes."""
    family = engine.family
    active = [family[i] for i in family.active_indices()]
    if not active:
        return 0
    rebuilt = build_conflict_graph(DipathFamily(active))
    colors, _ = dsatur_coloring_masks(
        [rebuilt.neighbor_mask(v) for v in range(len(active))])
    return len(set(colors))


def measure_defrag_reclaim_scenario(name: str) -> Dict[str, object]:
    """Wavelengths reclaimed per walk order vs the recolouring bounds.

    For each walk order a fresh twin of the fragmented engine runs defrag
    passes to quiescence (a pass committing no move — the strictly
    decreasing move potential guarantees this terminates).  The reclaim is
    compared against two numbers measured on the **fragmented pre-defrag
    state**: DSATUR recolouring the fragmented routes from scratch (what a
    maintenance-window recolouring — no rerouting — could do) and the
    fragmented maximum fibre load.  Defrag moves also *re-route*, so it
    can legitimately beat both; what no proper assignment can beat is the
    final state's own fibre load, recorded per order as
    ``load_after_<order>`` and enforced by gate E15's ``within_load_bound``.
    """
    base_name, wavelengths, events = RECLAIM_SCENARIOS[name]
    record: Dict[str, object] = {
        "scenario": name,
        "kind": "defrag_reclaim",
        "wavelengths": wavelengths,
        "events": events,
    }
    # fragmented-state facts, before any defrag pass
    fragmented = _fragmented_engine(base_name, wavelengths, events)
    record["colors_before"] = fragmented.assigner.colors_in_use()
    record["load_before"] = fragmented.family.load()
    record["recolor_from_scratch"] = _recolor_from_scratch(fragmented)
    proper = True
    bounded = True
    best_after: Optional[int] = None
    for order in ("highest_wavelength", "longest_route", "most_conflicted"):
        engine = _fragmented_engine(base_name, wavelengths, events)
        moves = 0
        while True:
            report = engine.defrag(order=order)
            moves += len(report.moves)
            if not report.moves:
                break
        after = engine.assigner.colors_in_use()
        load_after = engine.family.load()
        record[f"colors_after_{order}"] = after
        record[f"load_after_{order}"] = load_after
        record[f"moves_{order}"] = moves
        proper = proper and _proper_after_defrag(engine)
        bounded = bounded and after >= load_after
        best_after = after if best_after is None else min(best_after, after)
    record["colors_after_best"] = best_after
    record["reclaimed_best"] = record["colors_before"] - best_after
    record["coloring_proper_after"] = proper
    record["within_load_bound"] = bounded
    record["reclaims_capacity"] = record["reclaimed_best"] >= 1
    return record


def run_defrag_benchmark() -> List[Dict[str, object]]:
    """Run every E15 scenario and return the records (deterministic)."""
    return ([measure_defrag_blocking_scenario(name)
             for name in BLOCKING_SCENARIOS]
            + [measure_defrag_reclaim_scenario(name)
               for name in RECLAIM_SCENARIOS])


def run_routing_benchmark(repeats: int = 3) -> List[Dict[str, object]]:
    """Run every E14 scenario and return the records."""
    return ([measure_blocking_scenario(name) for name in BLOCKING_SCENARIOS]
            + [measure_speculation_scenario(name, repeats=repeats)
               for name in SPECULATION_SCENARIOS])
