"""Unit coverage for the component-sharded engine.

Covers the shard tracker (merge on arrival, lazy split-check on
departure, rebuild fallback, counters), the compact shard views, the
lazy-adjacency :class:`~repro.conflict.ShardedConflictGraph`, the
per-fibre :class:`~repro.online.ArcColorIndex`, the shard-scoped defrag
and in-transaction batch paths, the multi-region generators and the
topology-versioned route caches.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.conflict import ShardedConflictGraph, build_conflict_graph
from repro.dipaths.family import DipathFamily
from repro.dipaths.requests import Request
from repro.exceptions import EngineStateError
from repro.generators.families import random_walk_family
from repro.generators.random_dags import random_dag
from repro.generators.regions import (
    multi_region_topology,
    multi_region_traffic,
    region_of_vertex,
)
from repro.graphs.digraph import DiGraph
from repro.online import (
    POLICIES,
    OnlineEngine,
    OnlineWavelengthAssigner,
    WhatIfTransaction,
    churn_trace,
)
from repro.online.routing import KShortestRouter, StaticRouter


# ---------------------------------------------------------------------- #
# component tracking
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", [ShardedConflictGraph])
def test_disjoint_dipaths_form_separate_shards(cls):
    g = cls(DipathFamily())
    g.add_dipath(["a", "b", "c"])
    g.add_dipath(["b", "c", "d"])
    g.add_dipath(["x", "y", "z"])
    assert g.shard_map() == {0: [0, 1], 2: [2]}
    assert g.component_merges == 0


@pytest.mark.parametrize("cls", [ShardedConflictGraph])
def test_bridging_arrival_merges_shards(cls):
    g = cls(DipathFamily())
    g.add_dipath(["a", "b", "c"])
    g.add_dipath(["x", "y", "z"])
    bridge = g.add_dipath(["b", "c", "x", "y"])
    assert g.component_merges == 1
    assert g.shard_map() == {0: [0, 1, 2]}
    assert g.shard_of_member(bridge) is g.shard_of_member(0)


@pytest.mark.parametrize("cls", [ShardedConflictGraph])
def test_departure_splits_lazily_with_rebuild(cls):
    g = cls(DipathFamily())
    g.add_dipath(["a", "b", "c"])
    g.add_dipath(["x", "y", "z"])
    bridge = g.add_dipath(["b", "c", "x", "y"])
    g.remove_dipath(bridge)
    # before the refresh the shard conservatively overapproximates
    assert g.shard_map(refresh=False) == {0: [0, 1]}
    assert g.component_splits == 0
    assert g.shard_map() == {0: [0], 1: [1]}
    assert g.component_splits == 1
    assert g.shard_rebuilds == 1


@pytest.mark.parametrize("cls", [ShardedConflictGraph])
def test_speculative_rollback_does_not_trigger_rebuilds(cls):
    g = cls(DipathFamily())
    g.add_dipath(["a", "b", "c"])
    g.shard_map()
    rebuilds = g.shard_rebuilds
    assigner = OnlineWavelengthAssigner(g.family, 2)
    for _ in range(5):
        with WhatIfTransaction(g, assigner) as tx:
            tx.add_dipath(["b", "c", "d"])
        # rollback removed the member it added: the join-undo heuristic
        # must keep the shard clean, so no rebuild is pending
    g.shard_map()
    assert g.shard_rebuilds == rebuilds


def test_empty_shard_is_released():
    g = ShardedConflictGraph(DipathFamily())
    idx = g.add_dipath(["a", "b"])
    g.remove_dipath(idx)
    assert g.shard_map() == {}
    other = g.add_dipath(["a", "b"])
    assert g.shard_map() == {other: [other]}


@pytest.mark.parametrize("cls", [ShardedConflictGraph])
def test_dead_fibre_ownership_is_dropped_on_clean_removal(cls):
    # Y=[2,3]; X=[1,2,3] joins Y's shard without merging; X's clean
    # removal (undoes the join, shard never dirty) must drop ownership
    # of the now-unused fibre (1,2) — otherwise Z=[1,2], which conflicts
    # with nobody, would be welded into Y's shard with no split-check
    # ever scheduled to undo it.
    g = cls(DipathFamily())
    y = g.add_dipath([2, 3])
    x = g.add_dipath([1, 2, 3])
    g.remove_dipath(x)
    z = g.add_dipath([1, 2])
    assert g.neighbor_mask(z) == 0
    assert g.shard_of_member(z) is not g.shard_of_member(y)
    assert g.shard_map() == {y: [y], z: [z]}


def test_stale_join_stamp_cannot_suppress_a_real_split():
    # A member's join stamp must be tied to the shard *object* it joined:
    # after a rebuild relocates the member to a fresh shard, a bare
    # version number could collide with the new shard's version and
    # wrongly skip the dirty flag when the member (now a cut vertex)
    # departs.
    g = ShardedConflictGraph(DipathFamily())
    a = g.add_dipath(["a", "b", "c"])          # 0
    b = g.add_dipath(["b", "c", "d"])          # 1
    bridge = g.add_dipath(["x", "y", "a", "b"])  # joins the shard
    g.remove_dipath(a)
    g.shard_map()                              # rebuild relocates members
    # grow the surviving shard so its version climbs past the old stamp
    mid = g.add_dipath(["c", "d", "e"])
    g.add_dipath(["d", "e", "f"])
    g.add_dipath(["y", "a"])
    # now remove a cut vertex whose stamp predates the rebuild
    g.remove_dipath(b)
    assert sorted(len(m) for m in g.shard_map().values()) == \
        sorted(len(c) for c in g.connected_components())


def test_admit_batch_inside_open_transaction_rolls_back():
    engine = _three_region_engine(events=40)
    from repro.online.events import ARRIVAL, Event
    from repro.online.transaction import WhatIfTransaction

    path = engine.family[engine.family.active_indices()[0]]
    events = [Event(0.0, ARRIVAL, 9000, dipath=path),
              Event(0.0, ARRIVAL, 9001, dipath=path)]
    with WhatIfTransaction(engine.conflict, engine.assigner):
        # the burst nests inside the open transaction: leaving the block
        # rolls everything back without stranding coloured members
        before = len(engine.family)
        engine.admit_batch(events, policy="greedy")
    assert len(engine.family) == before
    for idx in engine.family.active_indices():
        engine.assigner.color_of(idx)          # everyone still coloured


def test_arc_ownership_survives_departure():
    # a new arrival on a fibre whose only user departed must land in the
    # departed user's shard while the split-check is still pending
    g = ShardedConflictGraph(DipathFamily())
    g.add_dipath(["a", "b", "c"])
    middle = g.add_dipath(["b", "c", "d"])
    g.add_dipath(["c", "d", "e"])
    g.remove_dipath(middle)
    again = g.add_dipath(["b", "c", "d"])
    assert g.shard_of_member(again) is g.shard_of_member(0)
    assert g.shard_map() == {0: [0, 1, 2]}


# ---------------------------------------------------------------------- #
# shard views
# ---------------------------------------------------------------------- #
def test_shard_view_compact_remap_and_masks():
    g = ShardedConflictGraph(DipathFamily())
    g.add_dipath(["p", "q"])                   # index 0: a separate shard
    a = g.add_dipath(["a", "b", "c"])          # 1
    b = g.add_dipath(["b", "c", "d"])          # 2
    c = g.add_dipath(["c", "d", "e"])          # 3
    view = g.shard_view(g.shard_of_member(a))
    assert view.size == 3
    assert view.globals() == [a, b, c]
    assert view.to_local(b) == 1 and view.to_global(1) == b
    # masks are shard-width: 1 conflicts 2, 2 conflicts 1 and 3
    assert view.neighbor_mask(0) == 0b010
    assert view.neighbor_mask(1) == 0b101
    assert view.degree(1) == 2
    local = view.as_conflict_graph()
    assert local.num_edges == 2
    assert local.vertices() == [0, 1, 2]


def test_shard_view_invalidated_on_structural_change():
    g = ShardedConflictGraph(DipathFamily())
    a = g.add_dipath(["a", "b", "c"])
    view = g.shard_view(g.shard_of_member(a))
    assert view.is_current()
    g.add_dipath(["b", "c", "d"])              # member added to the shard
    assert not view.is_current()
    fresh = g.shard_view(g.shard_of_member(a))
    assert fresh.is_current()
    g.add_dipath(["x", "y"])                   # a different shard
    assert fresh.is_current()


# ---------------------------------------------------------------------- #
# lazy adjacency equivalence
# ---------------------------------------------------------------------- #
def test_sharded_graph_matches_cold_build_under_churn():
    graph = random_dag(18, 0.25, seed=3)
    pool = list(random_walk_family(graph, 60, seed=4))
    lazy = ShardedConflictGraph(DipathFamily())
    rng = random.Random(9)
    active = []
    for step in range(120):
        if active and rng.random() < 0.4:
            lazy.remove_dipath(active.pop(rng.randrange(len(active))))
        else:
            active.append(lazy.add_dipath(pool[step % len(pool)]))
        # the mutation dropped the family's mask cache: a cold build
        rebuilt = build_conflict_graph(lazy.family)
        for v in lazy.family.active_indices():
            assert lazy.neighbor_mask(v) == rebuilt.neighbor_mask(v)
            assert lazy.degree(v) == rebuilt.degree(v)
        # inherited mask algorithms run through the lazy mapping
        assert lazy.num_edges == rebuilt.num_edges
        assert lazy.connected_components() == rebuilt.connected_components()
        assert lazy.vertices() == rebuilt.vertices()
        assert frozenset(lazy.edges()) == frozenset(rebuilt.edges())
    assert lazy.family.mask_rebuilds == 120


# ---------------------------------------------------------------------- #
# the per-fibre colour index
# ---------------------------------------------------------------------- #
def _forbidden_by_neighbors(conflict, assigner, vertex):
    forbidden = 0
    for j, color in assigner.coloring.items():
        if conflict.neighbor_mask(vertex) >> j & 1:
            forbidden |= 1 << color
    return forbidden


def _assert_index_is_the_neighbor_union(engine):
    """Each live member's forbidden mask is its neighbours' colours, plus
    its own colour when it holds one."""
    conflict, assigner = engine.conflict, engine.assigner
    for idx in engine.family.active_indices():
        expected = _forbidden_by_neighbors(conflict, assigner, idx)
        if idx in assigner.coloring:
            expected |= 1 << assigner.color_of(idx)
        assert assigner.color_index.forbidden_mask(idx) == expected


def _nested_what_if(engine, pool, rng):
    """An outer what-if of three children, each admitting a pool dipath
    or releasing and removing a held lightpath; a child commits or rolls
    back by a coin flip, and so does the outer one.  Committed members
    are handed to ``engine.vertex_of`` so that ``audit()`` finds an
    owner for each."""
    conflict, assigner = engine.conflict, engine.assigner
    owned = dict(engine.vertex_of)
    rids = itertools.count(max(owned, default=0) + 1000)
    with WhatIfTransaction(conflict, assigner) as outer:
        for _ in range(3):
            with WhatIfTransaction(conflict, assigner) as inner:
                if owned and rng.random() < 0.4:
                    rid = rng.choice(sorted(owned))
                    inner.release(owned[rid])
                    inner.remove_dipath(owned[rid])
                    change = (rid, None)
                else:
                    idx, color = inner.admit(rng.choice(pool))
                    change = (next(rids), idx if color is not None else None)
                _assert_index_is_the_neighbor_union(engine)
                if change[0] in owned or change[1] is not None:
                    if rng.random() < 0.5:
                        inner.commit()
                        rid, idx = change
                        if idx is None:
                            del owned[rid]
                        else:
                            owned[rid] = idx
            _assert_index_is_the_neighbor_union(engine)
        if rng.random() < 0.5:
            outer.commit()
            engine.vertex_of.clear()
            engine.vertex_of.update(owned)


def test_arc_color_index_matches_neighbor_union_under_churn():
    """The index's forbidden masks equal the conflict-neighbour union and
    the engine audits clean after every admission, departure and nested
    what-if, under every policy with and without Kempe repair."""
    graph = random_dag(16, 0.3, seed=5)
    pool = list(random_walk_family(graph, 50, seed=6))
    repairs = rollbacks = 0
    for policy in POLICIES:
        for kempe in (False, True):
            engine = OnlineEngine(graph, 3, policy=policy,
                                  kempe_repair=kempe, seed=7)
            rng = random.Random(11)
            for rid in range(120):
                roll = rng.random()
                if engine.vertex_of and roll < 0.35:
                    engine.depart(rng.choice(sorted(engine.vertex_of)))
                elif roll < 0.55:
                    _nested_what_if(engine, pool, rng)
                else:
                    engine.admit(rid, dipath=rng.choice(pool))
                _assert_index_is_the_neighbor_union(engine)
                assert engine.audit() == []
            repairs += engine.assigner.kempe_repairs
            rollbacks += engine.metrics.snapshot()["diagnostics"][
                "counters"]["colorindex.rollbacks"]
    assert repairs and rollbacks


def test_arc_color_index_rolls_back_with_the_assigner():
    conflict = ShardedConflictGraph(DipathFamily())
    assigner = OnlineWavelengthAssigner(conflict.family, 3,
                                        policy="first_fit")
    index = assigner.color_index
    a = conflict.add_dipath(["a", "b", "c"])
    assigner.assign(conflict, a)
    snapshot = [index.colors_on_arc_id(aid)
                for aid in range(len(conflict.family._arcs))]
    with WhatIfTransaction(conflict, assigner) as tx:
        idx, color = tx.admit(["b", "c", "d"])
        assert color == 1
        aid = conflict.family.arc_id(("b", "c"))
        assert index.colors_on_arc_id(aid) == 0b11
    assert [index.colors_on_arc_id(aid)
            for aid in range(len(snapshot))] == snapshot
    # only a's own colour remains on its fibres after the rollback
    assert index.forbidden_mask(a) == 1 << assigner.color_of(a)


def test_adopt_replays_fresh_and_recolour():
    conflict = ShardedConflictGraph(DipathFamily())
    assigner = OnlineWavelengthAssigner(conflict.family, 4)
    idx = conflict.add_dipath(["a", "b"])
    assigner.adopt(idx, 2)
    assert assigner.color_of(idx) == 2
    assert assigner.colors_in_use() == 1
    assigner.adopt(idx, 3)                    # recolour
    assert assigner.color_of(idx) == 3
    assert assigner.usage()[2] == 0 and assigner.usage()[3] == 1
    with pytest.raises(ValueError):
        assigner.adopt(idx, 4)


def _colour_state(engine):
    assigner = engine.assigner
    return (dict(assigner.coloring), assigner.usage(), assigner.used_mask,
            assigner.colors_ever_used(), list(assigner.color_index._masks))


@pytest.mark.parametrize("slot", ["freed", "out_of_range"])
def test_adopt_refuses_a_slot_that_is_not_a_live_member(slot):
    engine = OnlineEngine(DiGraph(arcs=[("a", "b"), ("b", "c")]), 3)
    engine.admit(0, dipath=["a", "b"])
    engine.admit(1, dipath=["b", "c"])
    freed = engine.vertex_of[1]
    engine.depart(1)
    before = _colour_state(engine)
    with pytest.raises(EngineStateError):
        engine.assigner.adopt(freed if slot == "freed" else 99, 1)
    assert _colour_state(engine) == before
    assert engine.audit() == []


def test_assign_refuses_an_already_coloured_member():
    engine = OnlineEngine(DiGraph(arcs=[("a", "b")]), 3)
    engine.admit(0, dipath=["a", "b"])
    idx = engine.vertex_of[0]
    before = _colour_state(engine)
    with WhatIfTransaction(engine.conflict, engine.assigner) as tx:
        with pytest.raises(EngineStateError):
            tx.assign(idx)
        assert _colour_state(engine) == before
        tx.commit()
    assert _colour_state(engine) == before
    assert engine.audit() == []


# ---------------------------------------------------------------------- #
# engine-level sharding
# ---------------------------------------------------------------------- #
def _three_region_engine(wavelengths=8, events=160, **kwargs):
    graph = multi_region_topology(regions=3, region_size=14, coupling=1,
                                  seed=8)
    pool = random_walk_family(graph, 300, seed=9, min_length=2)
    trace = churn_trace(pool, 90, events, seed=10)
    engine = OnlineEngine(graph, wavelengths, **kwargs)
    for event in trace:
        if event.kind == "arrival":
            engine.admit(event.request_id, dipath=event.dipath)
        else:
            engine.depart(event.request_id)
    return engine


def test_engine_shard_map_partitions_active_members():
    engine = _three_region_engine()
    shard_map = engine.shard_map()
    members = sorted(i for shard in shard_map.values() for i in shard)
    assert members == engine.family.active_indices()
    assert len(shard_map) >= 3          # at least one shard per region


def test_defrag_restricted_to_one_shard_leaves_others_untouched():
    engine = _three_region_engine()
    shard_map = engine.shard_map()
    anchor = max(shard_map, key=lambda a: len(shard_map[a]))
    others = {i: engine.assigner.color_of(i)
              for a, shard in shard_map.items() if a != anchor
              for i in shard}
    routes = {i: engine.family[i]
              for a, shard in shard_map.items() if a != anchor
              for i in shard}
    engine.defrag(shard=anchor)
    for i, color in others.items():
        assert engine.assigner.color_of(i) == color
        assert engine.family[i] == routes[i]
    with pytest.raises(ValueError):
        engine.defrag(shard=-5)


# ---------------------------------------------------------------------- #
# multi-region generators
# ---------------------------------------------------------------------- #
def test_multi_region_topology_structure():
    graph = multi_region_topology(regions=3, region_size=12, coupling=2,
                                  seed=1)
    regions = {region_of_vertex(v) for v in graph.vertices()}
    assert regions == {0, 1, 2}
    cross = [(u, v) for u, v in graph.arcs()
             if region_of_vertex(u) != region_of_vertex(v)]
    assert len(cross) == 4                    # coupling per consecutive pair
    assert all(region_of_vertex(v) == region_of_vertex(u) + 1
               for u, v in cross)
    from repro.graphs.traversal import topological_order
    topological_order(graph)                  # raises if the union cycles


def test_multi_region_traffic_fraction_and_fallback():
    graph = multi_region_topology(regions=3, region_size=12, coupling=2,
                                  seed=1)
    requests = multi_region_traffic(graph, 300, inter_fraction=0.3, seed=2)
    pairs = requests.pairs()
    inter = sum(1 for a, b in pairs
                if region_of_vertex(a) != region_of_vertex(b))
    assert len(pairs) == 300
    assert 0 < inter < 150                    # some, but a minority
    isolated = multi_region_topology(regions=2, region_size=10, coupling=0,
                                     seed=3)
    only_intra = multi_region_traffic(isolated, 50, inter_fraction=0.9,
                                      seed=3)
    assert all(region_of_vertex(a) == region_of_vertex(b)
               for a, b in only_intra.pairs())
    with pytest.raises(ValueError):
        multi_region_traffic(graph, 10, inter_fraction=1.5)


# ---------------------------------------------------------------------- #
# route-cache invalidation (topology version)
# ---------------------------------------------------------------------- #
def test_digraph_version_bumps_on_arc_changes_only():
    g = DiGraph()
    v0 = g.version
    g.add_vertex("a")
    assert g.version == v0                    # vertices cannot create routes
    g.add_arc("a", "b")
    assert g.version == v0 + 1
    g.add_arc("a", "b")                       # duplicate: no-op
    assert g.version == v0 + 1
    g.remove_arc("a", "b")
    assert g.version == v0 + 2
    assert g.copy().version == g.version


def test_static_router_cache_invalidated_on_topology_change():
    g = DiGraph(arcs=[("a", "b"), ("b", "c")])
    router = StaticRouter(g, "shortest")
    request = Request("a", "c")
    assert list(router.route(request).vertices) == ["a", "b", "c"]
    g.add_arc("a", "c")                       # a shortcut appears
    assert list(router.route(request).vertices) == ["a", "c"]
    g.remove_arc("a", "c")
    assert list(router.route(request).vertices) == ["a", "b", "c"]


def test_k_shortest_router_cache_invalidated_on_topology_change():
    g = DiGraph(arcs=[("a", "b"), ("b", "c")])
    family = DipathFamily()
    router = KShortestRouter(g, family, k=3)
    assert len(router.candidates(Request("a", "c"))) == 1
    g.add_arc("a", "c")
    cands = router.candidates(Request("a", "c"))
    assert [list(d.vertices) for d in cands] == [["a", "c"], ["a", "b", "c"]]
