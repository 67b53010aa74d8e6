"""The topology index memoised on a graph (``DiGraph._topo_index``).

:func:`~repro.graphs.traversal.topological_order` and
:func:`~repro.graphs.traversal.k_shortest_dipaths` reuse one topological
order, vertex ranks, rank-sorted predecessor lists and per-target
ancestor maps.  These tests pin the index's lifecycle: its next read
replays the arc changes since its version (dropping only what each arc
can affect) unless an added arc might close a cycle, every vertex change
resets it, a cycle caches nothing,
copies and pickles start cold, and no module outside
``graphs/digraph.py`` writes adjacency behind the mutators' back.  The
oracle comparison under random mutation sequences lives in
``tests/test_properties_hypothesis.py``.
"""

import ast
import pickle
from pathlib import Path

import pytest

import repro
from repro.exceptions import NotADAGError
from repro.generators.random_dags import random_dag
from repro.graphs.dag import DAG
from repro.graphs.digraph import ARC_LOG_SIZE, DiGraph
from repro.graphs.traversal import (
    count_dipaths,
    is_acyclic,
    k_shortest_dipaths,
    reachable_from,
    topological_order,
)


def warm(graph):
    """Query ``graph`` so its index is built; return the index."""
    topological_order(graph)
    vertices = list(graph.vertices())
    k_shortest_dipaths(graph, vertices[0], vertices[-1], 3)
    assert graph._topo_index is not None
    return graph._topo_index


def all_k_shortest(graph, k=3):
    return {(s, t): k_shortest_dipaths(graph, s, t, k)
            for s in graph.vertices() for t in graph.vertices()}


class TestLifecycle:
    def test_queries_share_one_index_per_state(self):
        g = random_dag(15, 0.3, seed=4)
        index = warm(g)
        order = topological_order(g)
        order.reverse()                 # callers get a fresh list
        assert topological_order(g) == index.kahn
        assert topological_order(g) is not index.kahn
        k_shortest_dipaths(g, 0, 14, 2)
        assert g._topo_index is index
        assert list(index.ancestors[14])[-1] == 14
        assert set(index.ancestors[14]) == {
            v for v in g.vertices() if 14 in reachable_from(g, v)}

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("fresh"),
        lambda g: g.add_arc(0, "fresh"),
        lambda g: g.remove_vertex(3),
    ], ids=["add_vertex", "add_arc_new_vertex", "remove_vertex"])
    def test_every_mutator_resets_the_index(self, mutate):
        g = random_dag(10, 0.3, seed=1)
        warm(g)
        mutate(g)
        assert g._topo_index is None

    @pytest.mark.parametrize("change", ["add_arc", "remove_arc"])
    def test_arc_changes_patch_the_index(self, change):
        # The next read keeps the index and drops exactly the head's
        # predecessor list and the ancestor maps of the targets the head
        # reaches; every answer then equals a cold copy's.
        g = random_dag(10, 0.3, seed=1)
        if g.has_arc(0, 9):
            g.remove_arc(0, 9)
        arc = (0, 9) if change == "add_arc" else sorted(g.arcs())[0]
        index = warm(g)
        all_k_shortest(g)
        before = dict(index.ancestors)
        assert arc[1] in index.preds and index.kahn is not None
        if change == "add_arc":
            g.add_arc(*arc)
        else:
            g.remove_arc(*arc)
        assert g._topo_index is index and index.version != g.version
        assert is_acyclic(g)                # a read syncs the index
        assert g._topo_index is index and index.version == g.version
        assert arc[1] not in index.preds and index.kahn is None
        assert {t: anc for t, anc in before.items()
                if arc[1] not in anc} == index.ancestors
        cold = g.copy()
        assert all_k_shortest(g) == all_k_shortest(cold)
        assert topological_order(g) == topological_order(g.copy())
        assert all(count_dipaths(g, s, t) == count_dipaths(cold, s, t)
                   for s in g.vertices() for t in g.vertices())

    def test_an_arc_against_the_order_rebuilds_the_index(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c"), ("d", "c")])
        index = warm(g)
        assert index.kahn == ["a", "d", "b", "c"]
        g.add_arc("b", "d")                 # against the order, no cycle
        assert topological_order(g) == ["a", "b", "d", "c"]
        assert g._topo_index is not index
        g.add_arc("c", "a")                 # closes a -> b -> c -> a
        assert not is_acyclic(g)
        assert g._topo_index is None

    def test_a_log_gap_rebuilds_the_index(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c")])
        index = warm(g)
        for _ in range(ARC_LOG_SIZE // 2 + 1):
            g.remove_arc("a", "b")
            g.add_arc("a", "b")
        assert g.arc_changes_since(index.version) is None
        assert topological_order(g) == ["a", "b", "c"]
        assert g._topo_index is not index

    def test_removing_an_isolated_vertex_resets_without_a_version_bump(self):
        g = DiGraph(arcs=[("a", "b")], vertices=["z"])
        warm(g)
        version = g.version
        g.remove_vertex("z")
        assert g.version == version
        assert g._topo_index is None
        assert topological_order(g) == ["a", "b"]

    def test_no_op_mutations_keep_the_index(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c")])
        index = warm(g)
        g.add_vertex("a")
        g.add_arc("a", "b")
        assert g._topo_index is index

    def test_a_cycle_caches_nothing(self):
        g = DiGraph(arcs=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        for _ in range(2):
            with pytest.raises(NotADAGError):
                topological_order(g)
            with pytest.raises(NotADAGError):
                k_shortest_dipaths(g, "a", "d", 2)
            assert k_shortest_dipaths(g, "d", "a", 2) == []
            assert not is_acyclic(g)
            assert g._topo_index is None
        g.remove_arc("c", "a")
        assert topological_order(g) == ["a", "b", "c", "d"]
        assert k_shortest_dipaths(g, "a", "d", 2) == [["a", "b", "c", "d"]]


class TestCopiesStartCold:
    @pytest.mark.parametrize("cls", [DiGraph, DAG])
    def test_pickle_round_trip_drops_the_index(self, cls):
        g = cls(arcs=random_dag(12, 0.35, seed=7).arcs())
        warm(g)
        clone = pickle.loads(pickle.dumps(g))
        assert type(clone) is cls
        assert clone._topo_index is None
        assert clone == g and clone.version == g.version
        assert clone.num_arcs == g.num_arcs
        cold = all_k_shortest(clone)
        assert clone._topo_index is not None
        assert all_k_shortest(clone) == cold

    def test_pickled_state_has_no_index_slot(self):
        g = random_dag(6, 0.5, seed=2)
        warm(g)
        _, slots = g.__getstate__()
        assert "_topo_index" not in slots
        assert b"_topo_index" not in pickle.dumps(g)

    def test_copy_starts_cold(self):
        g = random_dag(12, 0.35, seed=8)
        warm(g)
        clone = g.copy()
        assert type(clone) is DAG
        assert clone._topo_index is None
        cold = all_k_shortest(clone)
        assert all_k_shortest(clone) == cold
        clone.add_vertex("fresh")
        assert clone._topo_index is None
        assert g._topo_index is not None    # the original keeps its own


def test_adjacency_is_written_only_by_digraph_mutators():
    """The index is valid only while every adjacency write goes through a
    :class:`DiGraph` mutator, so no module but ``graphs/digraph.py`` may
    touch ``._succ`` / ``._pred``."""
    package = Path(repro.__file__).resolve().parent
    owner = package / "graphs" / "digraph.py"
    offenders, owner_hits = [], 0
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("_succ",
                                                                 "_pred"):
                if path == owner:
                    owner_hits += 1
                else:
                    offenders.append(
                        f"{path.relative_to(package)}:{node.lineno} "
                        f".{node.attr}")
    assert owner_hits > 0, "the scan no longer sees DiGraph's own accesses"
    assert offenders == []
