"""Property-based tests (hypothesis) for the core invariants.

These exercise the paper's claims and the library's invariants on randomly
generated structures:

* Theorem 1: on DAGs without internal cycle, the constructive colouring is
  proper and uses exactly ``pi`` colours — and the exact solver agrees.
* ``pi <= omega <= w`` always; equality of the first pair on UPP-DAGs.
* Colouring algorithms always produce proper colourings; the exact solver is
  never beaten by a heuristic.
* Internal-cycle detection agrees with a brute-force definition check.
* The traversal answers read from the topology index memoised on the
  graph (and patched across arc changes) equal a cold copy's under any
  interleaving of mutations, copies, pickles and queries, and
  ``k_shortest_dipaths`` equals its specification: every dipath, sorted
  by hops and then by vertex rank read back from the target, first ``k``.
* The index's reachability bitmasks equal BFS reachability after any
  batch of arc adds, arc removals and vertex changes.
"""

from __future__ import annotations

import pickle
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coloring.dsatur import dsatur_coloring
from repro.coloring.exact import chromatic_number, optimal_coloring
from repro.coloring.greedy import greedy_coloring
from repro.coloring.verify import is_proper_coloring, num_colors
from repro.conflict.cliques import clique_number
from repro.conflict.conflict_graph import build_conflict_graph
from repro.core.theorem1 import color_dipaths_theorem1
from repro.cycles.internal import (
    enumerate_internal_cycles,
    has_internal_cycle,
    is_internal_cycle,
)
from repro.dipaths.dipath import Dipath
from repro.dipaths.family import DipathFamily
from repro.exceptions import NotADAGError
from repro.generators.families import random_walk_family
from repro.generators.random_dags import (
    random_dag,
    random_internal_cycle_free_dag,
)
from repro.graphs.dag import DAG
from repro.graphs.traversal import (
    count_dipaths,
    enumerate_dipaths,
    find_directed_cycle,
    is_acyclic,
    k_shortest_dipaths,
    reach_masks,
    topological_order,
)

# Keep the per-example work small: hypothesis runs many examples.
SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def small_adjacency(draw):
    """A random undirected graph as an adjacency mapping on 1..10 vertices."""
    n = draw(st.integers(min_value=1, max_value=10))
    adjacency = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


@st.composite
def icf_dag_and_family(draw):
    """A random internal-cycle-free DAG together with a random-walk family."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=5, max_value=25))
    m = draw(st.integers(min_value=n // 2, max_value=2 * n))
    num_paths = draw(st.integers(min_value=1, max_value=30))
    dag = random_internal_cycle_free_dag(n, m, seed=seed)
    if dag.num_arcs == 0:
        dag.add_arc(0, 1)
    family = random_walk_family(dag, num_paths, seed=seed)
    return dag, family


@st.composite
def any_dag_and_family(draw):
    """A random DAG (any kind) together with a random-walk family."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=4, max_value=18))
    p = draw(st.floats(min_value=0.1, max_value=0.5))
    dag = random_dag(n, p, seed=seed)
    if dag.num_arcs == 0:
        dag.add_arc(0, 1)
    family = random_walk_family(dag, draw(st.integers(min_value=1, max_value=20)),
                                seed=seed)
    return dag, family


# --------------------------------------------------------------------------- #
# colouring invariants
# --------------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(small_adjacency())
def test_coloring_algorithms_always_proper(adjacency):
    for coloring in (greedy_coloring(adjacency), dsatur_coloring(adjacency),
                     optimal_coloring(adjacency)):
        assert is_proper_coloring(adjacency, coloring)


@settings(**SETTINGS)
@given(small_adjacency())
def test_exact_is_never_beaten(adjacency):
    exact = chromatic_number(adjacency)
    assert exact <= num_colors(dsatur_coloring(adjacency))
    assert exact <= num_colors(greedy_coloring(adjacency))


@settings(**SETTINGS)
@given(small_adjacency())
def test_exact_at_least_max_degree_bound(adjacency):
    # chi <= Delta + 1 (Brooks-style easy bound) and chi >= 1 when nonempty
    exact = chromatic_number(adjacency)
    max_degree = max((len(nbrs) for nbrs in adjacency.values()), default=0)
    assert 1 <= exact <= max_degree + 1


# --------------------------------------------------------------------------- #
# theorem 1 and load invariants
# --------------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(icf_dag_and_family())
def test_theorem1_equality_on_random_instances(data):
    dag, family = data
    assert not has_internal_cycle(dag)
    coloring = color_dipaths_theorem1(dag, family)
    conflict = build_conflict_graph(family)
    assert is_proper_coloring(conflict.adjacency(), coloring)
    assert num_colors(coloring) == family.load()


@settings(**SETTINGS)
@given(any_dag_and_family())
def test_load_clique_wavelength_chain(data):
    dag, family = data
    if len(family) == 0:
        return
    conflict = build_conflict_graph(family)
    pi = family.load()
    omega = clique_number(conflict)
    w = chromatic_number(conflict.adjacency())
    assert pi <= omega <= w


@settings(**SETTINGS)
@given(any_dag_and_family())
def test_load_equals_max_arc_multiplicity(data):
    _, family = data
    per_arc = family.load_per_arc()
    assert family.load() == (max(per_arc.values()) if per_arc else 0)
    # recompute the load naively from the dipaths themselves
    naive = {}
    for p in family:
        for arc in p.arcs():
            naive[arc] = naive.get(arc, 0) + 1
    assert naive == per_arc


# --------------------------------------------------------------------------- #
# structure invariants
# --------------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=4, max_value=14),
       st.floats(min_value=0.1, max_value=0.6))
def test_internal_cycle_detection_matches_enumeration(seed, n, p):
    dag = random_dag(n, p, seed=seed)
    cycles = enumerate_internal_cycles(dag, limit=200)
    assert has_internal_cycle(dag) == (len(cycles) > 0)
    for cycle in cycles[:5]:
        assert is_internal_cycle(dag, cycle)


@settings(**SETTINGS)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=5, max_value=30),
       st.floats(min_value=0.05, max_value=0.4))
def test_topological_order_is_consistent(seed, n, p):
    dag = random_dag(n, p, seed=seed)
    order = topological_order(dag)
    position = {v: i for i, v in enumerate(order)}
    assert all(position[u] < position[v] for u, v in dag.arcs())


@settings(**SETTINGS)
@given(icf_dag_and_family())
def test_conflict_graph_matches_pairwise_definition(data):
    _, family = data
    conflict = build_conflict_graph(family)
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            expected = family[i].conflicts_with(family[j])
            assert conflict.has_edge(i, j) == expected


@settings(**SETTINGS)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=12),
                         min_size=2, max_size=6, unique=True),
                min_size=1, max_size=10))
def test_family_replication_scales_load(sequences):
    paths = [Dipath(seq) for seq in sequences]
    family = DipathFamily(paths)
    replicated = family.replicate(3)
    assert replicated.load() == 3 * family.load()
    assert len(replicated) == 3 * len(family)


# --------------------------------------------------------------------------- #
# memoised topology index vs cold copies and the specification
# --------------------------------------------------------------------------- #
def _oracle_topological_order(graph):
    """Kahn's algorithm recomputed from scratch on every call (the
    implementation before the order was memoised on the graph)."""
    indeg = {v: graph.in_degree(v) for v in graph.vertices()}
    queue = deque(v for v, d in indeg.items() if d == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != graph.num_vertices:
        raise NotADAGError(cycle=find_directed_cycle(graph))
    return order


def _oracle_co_reachable(graph, target):
    seen = {target}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for w in graph.predecessors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _oracle_reachable(graph, source):
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.successors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _spec_k_shortest(graph, source, target, k):
    """``k_shortest_dipaths`` as documented, by brute force: every dipath,
    sorted by hops, then by the ranks (positions in ``graph.vertices()``)
    of the vertices before the target, read back toward the source."""
    if source == target:
        return [[source]]
    if source not in _oracle_co_reachable(graph, target):
        return []
    _oracle_topological_order(graph)        # NotADAGError on a cycle
    rank = {v: i for i, v in enumerate(graph.vertices())}
    paths = enumerate_dipaths(graph, source, target)
    paths.sort(key=lambda p: (len(p), [rank[v] for v in reversed(p[:-1])]))
    return paths[:k]


def _outcome(fn, *args):
    """``fn(*args)``, or the exception type it raised."""
    try:
        return fn(*args)
    except NotADAGError:
        return NotADAGError


def _assert_matches_oracle(graph, source):
    """Every traversal answer of ``graph`` (index possibly warm and
    patched) equals a cold copy's; ``k_shortest_dipaths`` also equals the
    specification.  Kahn's order follows successor-set iteration order,
    which a copy need not reproduce, so ``topological_order`` is compared
    with Kahn's algorithm rerun from scratch on ``graph`` itself."""
    cold = graph.copy()
    assert _outcome(topological_order, graph) == \
        _outcome(_oracle_topological_order, graph)
    assert is_acyclic(graph) == is_acyclic(cold)
    for target in list(graph.vertices()):
        assert _outcome(count_dipaths, graph, source, target) == \
            _outcome(count_dipaths, cold, source, target)
        for k in range(1, 5):
            got = _outcome(k_shortest_dipaths, graph, source, target, k)
            assert got == _outcome(k_shortest_dipaths, cold, source, target, k)
            assert got == _outcome(_spec_k_shortest, graph, source, target, k)


_GRAPH_OPS = st.lists(
    st.tuples(st.sampled_from(["add_arc", "add_arc_any", "remove_arc",
                               "add_vertex", "remove_vertex", "copy",
                               "pickle", "query"]),
              st.integers(min_value=0, max_value=10 ** 6),
              st.integers(min_value=0, max_value=10 ** 6)),
    max_size=20)


@settings(**SETTINGS)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.1, max_value=0.5),
       st.booleans(), _GRAPH_OPS)
def test_memoised_index_matches_unmemoised_oracle(seed, n, p, icf, ops):
    # Vertices are integers.  ``add_arc`` goes from the smaller to the
    # larger one, which keeps an acyclic graph acyclic; ``add_arc_any``
    # keeps the drawn direction, so it may go against the index's order
    # or close a cycle (which a later ``remove_arc`` may open again).
    graph = (random_internal_cycle_free_dag(n, int(p * n * 2), seed=seed)
             if icf else random_dag(n, p, seed=seed))
    next_label = n
    _assert_matches_oracle(graph, 0)
    for op, a, b in ops:
        vertices = list(graph.vertices())
        if op in ("add_arc", "add_arc_any") and len(vertices) >= 2:
            u, v = vertices[a % len(vertices)], vertices[b % len(vertices)]
            if u != v:
                graph.add_arc(*((min(u, v), max(u, v)) if op == "add_arc"
                                else (u, v)))
        elif op == "remove_arc" and graph.num_arcs:
            arcs = sorted(graph.arcs())
            graph.remove_arc(*arcs[a % len(arcs)])
        elif op == "add_vertex":
            graph.add_vertex(next_label)
            next_label += 1
        elif op == "remove_vertex" and len(vertices) > 1:
            graph.remove_vertex(vertices[a % len(vertices)])
        elif op == "copy":
            graph = graph.copy()
        elif op == "pickle":
            graph = pickle.loads(pickle.dumps(graph))
        elif op == "query" and vertices:
            source = vertices[a % len(vertices)]
            target = vertices[b % len(vertices)]
            k = 1 + (a + b) % 4
            assert _outcome(k_shortest_dipaths, graph, source, target, k) == \
                _outcome(_spec_k_shortest, graph, source, target, k)
        vertices = list(graph.vertices())
        _assert_matches_oracle(graph, vertices[b % len(vertices)])


@settings(**SETTINGS)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=12),
       st.floats(min_value=0.2, max_value=0.6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_memoised_index_on_cyclic_graph(seed, n, p, pick):
    graph = random_dag(n, p, seed=seed)
    if graph.num_arcs == 0:
        graph.add_arc(0, 1)
    arcs = sorted(graph.arcs())
    u, v = arcs[pick % len(arcs)]
    graph.add_arc(v, u)                 # closes the cycle u -> v -> u
    for _ in range(2):                  # a failed sort must not be cached
        with pytest.raises(NotADAGError):
            topological_order(graph)
        assert not is_acyclic(graph)
        for source in graph.vertices():
            _assert_matches_oracle(graph, source)
    graph.remove_arc(v, u)
    assert is_acyclic(graph)
    for source in graph.vertices():
        _assert_matches_oracle(graph, source)


def _assert_masks_match_bfs(graph):
    """``reach_masks`` equals BFS reachability, as bitsets, or raises
    :class:`NotADAGError` exactly when the graph has a directed cycle.
    Returns the masks' vertex positions (empty on a cycle)."""
    try:
        pos, anc, desc = reach_masks(graph)
    except NotADAGError:
        assert find_directed_cycle(graph) is not None
        return {}
    assert set(pos) == set(graph.vertices())
    assert all(pos[u] < pos[v] for u, v in graph.arcs())
    for v in pos:
        assert {x for x in pos if anc[v] >> pos[x] & 1} == \
            _oracle_co_reachable(graph, v)
        assert {x for x in pos if desc[v] >> pos[x] & 1} == \
            _oracle_reachable(graph, v)
    return dict(pos)


_MASK_OPS = st.lists(
    st.tuples(st.sampled_from(["add_arc", "add_arc", "add_arc_any",
                               "remove_arc", "cut_and_extend", "add_vertex",
                               "remove_vertex", "sync"]),
              st.integers(min_value=0, max_value=10 ** 6),
              st.integers(min_value=0, max_value=10 ** 6)),
    max_size=25)


@settings(**dict(SETTINGS, max_examples=200))    # ~1 ms an example
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.05, max_value=0.35), _MASK_OPS)
def test_reach_masks_equal_bfs_reachability(seed, n, p, ops):
    # The masks are read only at ``sync``, so the ops between two syncs
    # reach the index as one batch of changes.  ``add_arc`` follows the
    # positions of the last read, so the index can absorb it;
    # ``add_arc_any`` keeps the drawn direction, so it may go against
    # them or close a cycle; ``cut_and_extend`` removes an arc and then
    # grows its head's reach in the same batch.
    graph = random_dag(n, p, seed=seed)
    next_label = n
    pos = _assert_masks_match_bfs(graph)
    for op, a, b in ops:
        vertices = list(graph.vertices())
        if op in ("add_arc", "add_arc_any") and len(vertices) >= 2:
            u, v = vertices[a % len(vertices)], vertices[b % len(vertices)]
            if op == "add_arc" and (pos.get(u, u), u) > (pos.get(v, v), v):
                u, v = v, u
            if u != v:
                graph.add_arc(u, v)
        elif op in ("remove_arc", "cut_and_extend") and graph.num_arcs:
            arcs = sorted(graph.arcs())
            u, v = arcs[a % len(arcs)]
            graph.remove_arc(u, v)
            later = [w for w in pos if pos[w] > pos.get(v, len(pos))]
            if op == "cut_and_extend" and later:
                graph.add_arc(v, later[b % len(later)])
        elif op == "add_vertex":
            graph.add_vertex(next_label)
            next_label += 1
        elif op == "remove_vertex" and len(vertices) > 1:
            graph.remove_vertex(vertices[a % len(vertices)])
        elif op == "sync":
            pos = _assert_masks_match_bfs(graph)
    _assert_masks_match_bfs(graph)
