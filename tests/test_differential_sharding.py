"""Differential harness: the online engine against the audit oracle.

The online engine routes its hot paths through per-fibre colour
occupancy and lazy arc-derived adjacency.  A decision reads exactly two
inputs besides the colouring: the conflict adjacency (which members
share a fibre with the arrival) and the forbidden-colour set (which
colours its fibres already carry).  ``simulate_online(...,
audit_every=1)`` proves after **every** event that the adjacency equals
the raw routes' shared-fibre relation and that the colour index equals
a replay of the colouring (:meth:`~repro.online.OnlineEngine.audit`), so
every decision was taken on the inputs the paper's conflict graph
defines:

* a 50-seed sweep of random multi-region churn traces under a rotating
  mix of routing/policy/defrag/batch configurations, fully traced
  (instrumentation must not perturb the audit);
* hand-built traces engineered to join two components (a bridge
  lightpath arriving across two warm regions) and split them again (the
  bridge departing mid-run, with a defrag trigger while the system is
  loaded), asserting the audit stays clean *and* that the trace really
  joins and splits components;
* a Hypothesis differential: after every arrival, departure, blocked
  placement, rolled-back what-if and fibre cut or repair,
  :meth:`~repro.online.OnlineEngine.shard_map` equals a breadth-first
  search over the routes' shared-fibre relation, the relation the audit
  checks the adjacency against.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conflict import ShardedConflictGraph
from repro.dipaths.family import DipathFamily
from repro.generators.families import random_walk_family
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.obs.trace import RingBufferSink, Tracer
from repro.online import (
    ARRIVAL,
    DEPARTURE,
    Event,
    FaultInjector,
    OnlineEngine,
    WhatIfTransaction,
    poisson_trace,
    simulate_online,
    sort_events,
)

#: Per-seed configuration rotation: every seed exercises one of these.
_CONFIGS = (
    dict(routing="shortest", policy="first_fit"),
    dict(routing="shortest", policy="least_used"),
    dict(routing="shortest", policy="random"),
    dict(routing="k_shortest", speculative=True),
    dict(routing="k_shortest", kempe_repair=True),
    dict(routing="least_loaded", defrag_every=30),
    dict(routing="k_shortest", defrag_on_block=True,
         defrag_order="most_conflicted"),
    dict(routing="k_shortest", batch_policy="greedy"),
    dict(routing="shortest", batch_policy="all_or_nothing",
         defrag_every=25),
    dict(routing="widest", policy="most_used"),
)


def _audited(graph, trace, wavelengths, **kwargs):
    """One fully traced run audited after every event (an audit
    violation raises :class:`~repro.exceptions.AuditError`)."""
    result = simulate_online(graph, trace, wavelengths, seed=3,
                             audit_every=1,
                             tracer=Tracer(sink=RingBufferSink(capacity=512)),
                             **kwargs)
    assert len(result.accepted) + len(result.blocked) == sum(
        1 for e in trace if e.kind == ARRIVAL)
    return result


@pytest.mark.parametrize("seed", range(50))
def test_sharded_engine_is_decision_identical(seed):
    graph = multi_region_topology(regions=3, region_size=12, coupling=2,
                                  seed=seed)
    pool = multi_region_traffic(graph, 120, inter_fraction=0.15, seed=seed)
    trace = poisson_trace(pool, 130, arrival_rate=15.0, mean_holding=3.0,
                          seed=seed)
    config = dict(_CONFIGS[seed % len(_CONFIGS)])
    _audited(graph, trace, 4 + seed % 3, record_timeline=True, **config)


def _two_region_graph():
    """Two chain regions joined by one bridge arc ``a3 -> b0``."""
    from repro.graphs.digraph import DiGraph

    return DiGraph(arcs=[("a0", "a1"), ("a1", "a2"), ("a2", "a3"),
                         ("b0", "b1"), ("b1", "b2"), ("b2", "b3"),
                         ("a3", "b0")])


def _component_counts(trace):
    """The number of conflict components after each event of ``trace``,
    every arrival admitted (the engineered traces block nothing)."""
    conflict = ShardedConflictGraph(DipathFamily())
    vertex_of, counts = {}, []
    for event in trace:
        if event.kind == ARRIVAL:
            vertex_of[event.request_id] = conflict.add_dipath(event.dipath)
        else:
            conflict.remove_dipath(vertex_of.pop(event.request_id))
        counts.append(len(conflict.shard_map()))
    return counts


def _joins_and_splits(counts):
    """Whether some event lowers the component count and a later one
    raises it again."""
    steps = list(zip(counts, counts[1:]))
    joins = [i for i, (a, b) in enumerate(steps) if b < a]
    return bool(joins) and any(b > a for a, b in steps[joins[0]:])


def test_engineered_merge_and_split_trace():
    """A bridge lightpath merges two regions mid-run, then splits them.

    The bridge dipath overlaps a warm member's fibres in *both* regions,
    so its arrival joins the two components into one; its departure,
    while both regions are still loaded and a defrag pass is due, splits
    them again.  The audit after every event checks the components.
    """
    graph = _two_region_graph()
    events = [
        Event(0.0, ARRIVAL, 0, dipath=["a0", "a1", "a2"]),
        Event(0.0, ARRIVAL, 1, dipath=["b0", "b1", "b2"]),
        Event(1.0, ARRIVAL, 2, dipath=["a1", "a2", "a3", "b0", "b1"]),
        Event(2.0, ARRIVAL, 3, dipath=["a2", "a3"]),
        Event(3.0, DEPARTURE, 2),
        Event(4.0, DEPARTURE, 3),
        Event(4.0, ARRIVAL, 4, dipath=["b1", "b2", "b3"]),
        Event(5.0, ARRIVAL, 5, dipath=["a0", "a1"]),
    ]
    trace = sort_events(events)
    result = _audited(graph, trace, 4, routing="shortest", defrag_every=6)
    assert not result.blocked
    assert _joins_and_splits(_component_counts(trace))


def test_engineered_merge_split_under_batching_and_speculation():
    """Same merge/split choreography, driven through a timestamp burst."""
    graph = _two_region_graph()
    events = [
        Event(0.0, ARRIVAL, 0, dipath=["a0", "a1", "a2"]),
        Event(0.0, ARRIVAL, 1, dipath=["b0", "b1", "b2"]),
        # an equal-timestamp burst containing the merging bridge
        Event(1.0, ARRIVAL, 2, dipath=["a1", "a2", "a3", "b0", "b1"]),
        Event(1.0, ARRIVAL, 3, dipath=["a2", "a3"]),
        Event(1.0, ARRIVAL, 4, dipath=["b2", "b3"]),
        Event(2.0, DEPARTURE, 2),
        Event(3.0, DEPARTURE, 4),
        Event(3.0, ARRIVAL, 5, dipath=["b1", "b2"]),
        Event(4.0, ARRIVAL, 6, dipath=["a0", "a1"]),
    ]
    trace = sort_events(events)
    result = _audited(graph, trace, 4, routing="shortest",
                      batch_policy="greedy", defrag_every=7)
    assert not result.blocked
    assert _joins_and_splits(_component_counts(trace))


# ---------------------------------------------------------------------- #
# on-demand components against a breadth-first search, op by op
# ---------------------------------------------------------------------- #
def _shared_fibre_components(engine):
    """``anchor -> members`` by breadth-first search over the active
    members' raw routes (``Dipath.arcs()``), two members adjacent when
    they share a fibre."""
    family = engine.family
    users = {}
    for idx in family.active_indices():
        for arc in family[idx].arcs():
            users.setdefault(arc, []).append(idx)
    components, seen = {}, set()
    for start in family.active_indices():
        if start in seen:
            continue
        seen.add(start)
        members, queue = [], deque([start])
        while queue:
            idx = queue.popleft()
            members.append(idx)
            for arc in family[idx].arcs():
                for other in users[arc]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        components[start] = sorted(members)
    return components


def _differential_engine():
    """A two-region network, two wavelengths (so placements block), a
    walk pool and a fault injector over the engine."""
    graph = multi_region_topology(regions=2, region_size=8, coupling=1,
                                  seed=4)
    pool = list(random_walk_family(graph, 40, seed=5, min_length=2))
    engine = OnlineEngine(graph, 2, routing="shortest")
    return engine, pool, FaultInjector(engine), sorted(graph.arcs())


def _apply(op, engine, pool, injector, arcs, rid, seen):
    """Apply one op; check the components after it (and, for a what-if,
    also inside it); tally in ``seen`` which kinds of change happened."""
    kind, a, b = op
    if kind == "arrive":
        before = len(engine.family.active_indices())
        reason = engine.admit(rid, dipath=pool[a % len(pool)])
        seen[kind if reason is None else "blocked"] += 1
        assert reason is not None or \
            len(engine.family.active_indices()) == before + 1
    elif kind == "depart" and engine.vertex_of:
        engine.depart(sorted(engine.vertex_of)[a % len(engine.vertex_of)])
        seen[kind] += 1
    elif kind == "what_if":
        before = engine.shard_map()
        with WhatIfTransaction(engine.conflict, engine.assigner) as tx:
            tx.admit(pool[a % len(pool)])
            tx.admit(pool[b % len(pool)])
            assert engine.shard_map() == _shared_fibre_components(engine)
        assert engine.shard_map() == before
        seen["rollback"] += 1
    elif kind == "fault":
        arc = arcs[a % len(arcs)]
        if arc in injector.cut_arcs():
            injector.repair(arc)
            seen["repair"] += 1
        else:
            seen["stranded"] += len(injector.cut(arc).stranded)
    assert engine.shard_map() == _shared_fibre_components(engine)


_OPS = st.lists(st.tuples(
    st.sampled_from(("arrive", "arrive", "arrive", "depart", "what_if",
                     "fault")),
    st.integers(0, 10 ** 4), st.integers(0, 10 ** 4)),
    min_size=1, max_size=60)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=_OPS)
def test_components_equal_a_shared_fibre_search_after_every_op(ops):
    engine, pool, injector, arcs = _differential_engine()
    seen = dict.fromkeys(("arrive", "blocked", "depart", "rollback",
                          "stranded", "repair"), 0)
    for rid, op in enumerate(ops):
        _apply(op, engine, pool, injector, arcs, rid, seen)
    assert engine.audit() == []


def test_the_op_mix_reaches_every_kind_of_change():
    """The differential's op alphabet really produces admissions,
    blocked placements, departures, rollbacks, stranding cuts and
    repairs (a seeded run of the same ops)."""
    rng = random.Random(7)
    engine, pool, injector, arcs = _differential_engine()
    seen = dict.fromkeys(("arrive", "blocked", "depart", "rollback",
                          "stranded", "repair"), 0)
    kinds = ("arrive", "arrive", "arrive", "depart", "what_if", "fault")
    for rid in range(300):
        op = (rng.choice(kinds), rng.randrange(10 ** 4),
              rng.randrange(10 ** 4))
        _apply(op, engine, pool, injector, arcs, rid, seen)
    assert all(seen.values()), seen
