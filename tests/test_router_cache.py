"""K-shortest routes as a function of the topology, cached across faults.

:func:`~repro.graphs.traversal.k_shortest_dipaths` breaks ties by vertex
insertion rank, so its answer depends on the arc set and the vertex order
alone, and :class:`~repro.online.routing.KShortestRouter` keeps its
entries across the arc changes that cannot affect them, reading the
changes from :meth:`~repro.graphs.digraph.DiGraph.arc_changes_since`.
These tests pin the change log, compare every router answer with a cold
recompute under random cut/repair/add sequences, check that a faulted
simulation computes fewer routes than a per-version clear with the same
decisions, and run the routing under two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.dipaths.family import DipathFamily
from repro.dipaths.requests import Request
from repro.generators.random_dags import random_dag
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.graphs.digraph import ARC_LOG_SIZE, DiGraph
from repro.graphs.traversal import k_shortest_dipaths
from repro.online import engine_fingerprint, simulate_online
from repro.online import routing as routing_module
from repro.online.events import maintenance_events, poisson_trace, sort_events
from repro.online.routing import KShortestRouter


class TestArcChangeLog:
    def test_changes_since_a_version_oldest_first(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c")])
        start = g.version
        assert g.arc_changes_since(start) == []
        g.remove_arc("a", "b")
        g.add_arc("a", "c")
        g.add_arc("a", "c")                 # a no-op logs nothing
        assert g.arc_changes_since(start) == [(False, "a", "b"),
                                              (True, "a", "c")]
        assert g.arc_changes_since(start + 1) == [(True, "a", "c")]
        assert g.arc_changes_since(g.version) == []

    def test_gaps_the_log_cannot_cover(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c")], vertices=["z"])
        start = g.version
        assert g.arc_changes_since(start + 1) is None     # the future
        for _ in range(ARC_LOG_SIZE // 2 + 1):
            g.remove_arc("a", "b")
            g.add_arc("a", "b")
        assert g.arc_changes_since(start) is None        # too far back
        assert len(g.arc_changes_since(g.version - ARC_LOG_SIZE)) == \
            ARC_LOG_SIZE
        before = g.version
        g.remove_vertex("c")
        assert g.arc_changes_since(before) is None       # a vertex went
        g.add_vertex("y")                   # isolated: no arc change
        assert g.arc_changes_since(g.version) == []

    def test_copies_and_pickles_start_with_an_empty_log(self):
        g = DiGraph(arcs=[("a", "b")])
        g.add_arc("b", "c")
        for clone in (g.copy(), pickle.loads(pickle.dumps(g))):
            assert clone.version == g.version
            assert clone.arc_changes_since(g.version) == []
            assert clone.arc_changes_since(g.version - 1) is None
        assert g.arc_changes_since(g.version - 1) == [(True, "b", "c")]


def _cold(graph, source, target, k):
    return [tuple(p) for p in k_shortest_dipaths(graph, source, target, k)
            if len(p) >= 2]


def _assert_router_matches_cold(router, graph, k):
    cold = graph.copy()
    vertices = list(graph.vertices())
    for s in vertices:
        for t in vertices:
            if s != t:
                got = router.candidates(Request(s, t))
                assert [d.vertices for d in got] == _cold(cold, s, t, k)


_ROUTER_OPS = st.lists(
    st.tuples(st.sampled_from(["cut", "repair", "add", "add_vertex",
                               "remove_vertex", "cut_repair", "flood",
                               "query"]),
              st.integers(min_value=0, max_value=10 ** 6),
              st.integers(min_value=0, max_value=10 ** 6)),
    max_size=15)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=9),
       st.floats(min_value=0.2, max_value=0.6),
       st.integers(min_value=1, max_value=4), _ROUTER_OPS)
def test_router_answers_equal_a_cold_recompute(seed, n, p, k, ops):
    graph = random_dag(n, p, seed=seed)
    router = KShortestRouter(graph, DipathFamily(), k=k)
    cut = []
    next_label = n
    _assert_router_matches_cold(router, graph, k)
    for op, a, b in ops:
        vertices = list(graph.vertices())
        arcs = sorted(graph.arcs())
        if op == "cut" and arcs:
            arc = arcs[a % len(arcs)]
            graph.remove_arc(*arc)
            cut.append(arc)
        elif op == "repair" and cut:
            arc = cut.pop(a % len(cut))
            if arc[0] in graph and arc[1] in graph:
                graph.add_arc(*arc)
        elif op == "add" and len(vertices) >= 2:
            u, v = vertices[a % len(vertices)], vertices[b % len(vertices)]
            if u != v:                      # smaller -> larger: stays a DAG
                graph.add_arc(min(u, v), max(u, v))
        elif op == "add_vertex":
            graph.add_vertex(next_label)
            next_label += 1
        elif op == "remove_vertex" and len(vertices) > 2:
            graph.remove_vertex(vertices[a % len(vertices)])
        elif op == "cut_repair" and arcs:   # both before the next query
            arc = arcs[a % len(arcs)]
            graph.remove_arc(*arc)
            graph.add_arc(*arc)
        elif op == "flood" and arcs:        # more changes than the log holds
            arc = arcs[a % len(arcs)]
            for _ in range(ARC_LOG_SIZE // 2 + 1):
                graph.remove_arc(*arc)
                graph.add_arc(*arc)
        elif op == "query" and len(vertices) >= 2:
            s, t = vertices[a % len(vertices)], vertices[b % len(vertices)]
            if s != t:
                got = router.candidates(Request(s, t))
                assert [d.vertices for d in got] == _cold(graph.copy(), s,
                                                          t, k)
            continue
        _assert_router_matches_cold(router, graph, k)


def _faulted_trace():
    graph = multi_region_topology(regions=2, region_size=14,
                                  arc_probability=0.18, coupling=3, seed=3)
    pool = multi_region_traffic(graph, 120, inter_fraction=0.3, seed=4)
    trace = poisson_trace(pool, 300, arrival_rate=2.0, mean_holding=10.0,
                          seed=5)
    arcs = sorted(graph.arcs())
    events = list(trace)
    for i, start in enumerate(range(10, int(trace[-1].time) - 20, 25)):
        picked = [arcs[(7 * i) % len(arcs)], arcs[(7 * i + 3) % len(arcs)]]
        events.extend(maintenance_events(picked, float(start), 10.0,
                                         fault_id=2 * i))
    return graph, sort_events(events)


def test_faulted_run_computes_fewer_routes_with_the_same_decisions(
        monkeypatch):
    graph, events = _faulted_trace()
    calls = []
    real = routing_module.k_shortest_dipaths

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(routing_module, "k_shortest_dipaths", counted)

    def run():
        calls.clear()
        result = simulate_online(graph.copy(), events, wavelengths=6,
                                 routing="k_shortest", speculative=True,
                                 defrag_on_block=True)
        return result, len(calls)

    kept, kept_calls = run()
    # the previous contract: every arc change drops the whole cache
    monkeypatch.setattr(DiGraph, "arc_changes_since",
                        lambda self, version: None)
    cleared, cleared_calls = run()
    assert kept.lightpaths_stranded > 0     # the cuts hit live traffic
    assert (kept.accepted, kept.blocked, kept.rejections) == \
        (cleared.accepted, cleared.blocked, cleared.rejections)
    assert engine_fingerprint(kept.engine) == \
        engine_fingerprint(cleared.engine)
    assert kept_calls < cleared_calls


_HASH_SEED_SCRIPT = """
import hashlib, json
from repro.generators.regions import multi_region_topology
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import k_shortest_dipaths

base = multi_region_topology(regions=2, region_size=20,
                             arc_probability=0.2, coupling=3, seed=5)
name = {v: "r%d-v%d" % v for v in base.vertices()}
graph = DiGraph(vertices=[name[v] for v in base.vertices()],
                arcs=[(name[u], name[v]) for u, v in base.arcs()])
answers = [k_shortest_dipaths(graph, s, t, 4)
           for s in graph.vertices() for t in graph.vertices()]
print(json.dumps({
    "digest": hashlib.sha256(repr(answers).encode()).hexdigest(),
    "arc_order": hashlib.sha256(repr(list(graph.arcs())).encode()).hexdigest(),
    "ties": sum(len(a) > 1 and len(a[0]) == len(a[1]) for a in answers),
}))
"""


def test_k_shortest_routes_do_not_depend_on_the_hash_seed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0]["ties"] > 0          # equal-length routes to break
    assert runs[0]["arc_order"] != runs[1]["arc_order"]  # layouts differ
    assert runs[0]["digest"] == runs[1]["digest"]
