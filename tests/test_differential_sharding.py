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
* hand-built traces engineered to force component **merges** (a bridge
  lightpath arriving across two warm regions) and **splits** (the bridge
  departing mid-run, with a defrag trigger forcing the split-check while
  the system is loaded), asserting the audit stays clean *and* that the
  counters prove the machinery actually fired.
"""

from __future__ import annotations

import pytest

from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.obs.trace import RingBufferSink, Tracer
from repro.online import (
    ARRIVAL,
    DEPARTURE,
    Event,
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


def test_engineered_merge_and_split_trace():
    """A bridge lightpath merges two regions mid-run, then splits them.

    The bridge dipath overlaps a warm member's fibres in *both* regions,
    so its arrival must fold the two components into one shard; its
    departure leaves the merged shard dirty, and the defrag trigger's
    split-check — running while both regions are still loaded — must
    find the two components again.
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
    assert result.component_merges >= 1
    assert result.component_splits >= 1


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
    assert result.component_merges >= 1
    assert result.component_splits >= 1
