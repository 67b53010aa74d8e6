"""Tests for the online RWA engine (repro.online).

Covers the three equivalence contracts of the subsystem:

* randomized add/remove sequences leave :class:`ShardedConflictGraph`
  identical to a from-scratch :func:`build_conflict_graph` (50+ seeded
  instances);
* the online simulator with a pure-arrival replay trace reproduces the
  historical per-fibre first-fit admission loop exactly (blocking
  decisions and wavelength counts), which makes ``simulate_admission`` a
  faithful front-end;
* the traffic generators are deterministic under equal seeds (the
  simulator's reproducibility depends on it).
"""

import random

import pytest

from repro.conflict import ShardedConflictGraph, build_conflict_graph
from repro.coloring.verify import is_proper_coloring
from repro.dipaths.dipath import Dipath
from repro.dipaths.family import DipathFamily
from repro.dipaths.requests import Request, RequestFamily
from repro.dipaths.routing import route_all
from repro.exceptions import SimulationError, VertexNotFoundError
from repro.generators.families import random_walk_family
from repro.generators.random_dags import random_dag
from repro.generators.trees import out_tree
from repro.online import (
    ARRIVAL,
    DEPARTURE,
    Event,
    FIBRE_CUT,
    NO_ROUTE,
    NO_WAVELENGTH,
    OnlineEngine,
    OnlineResult,
    OnlineWavelengthAssigner,
    POLICIES,
    SHED,
    churn_trace,
    cut_event,
    poisson_trace,
    repair_event,
    replay_trace,
    simulate_online,
    sort_events,
)
from repro.graphs.dag import DAG
from repro.graphs.digraph import DiGraph
from repro.online.persistence import engine_fingerprint
from repro.optical.network import OpticalNetwork
from repro.optical.simulation import simulate_admission
from repro.optical.traffic import (
    hotspot_traffic,
    traffic_rng,
    uniform_random_traffic,
)


def _graphs_equal(dynamic, family):
    """Dynamic graph == from-scratch graphs (same labels and dense)."""
    rebuilt = build_conflict_graph(family)
    if sorted(dynamic.edges()) != sorted(rebuilt.edges()):
        return False
    if dynamic.vertices() != rebuilt.vertices():
        return False
    # also against a densely re-indexed fresh family of the active dipaths
    active = family.active_indices()
    fresh = build_conflict_graph(
        DipathFamily([family[i] for i in active]))
    remap = {slot: pos for pos, slot in enumerate(active)}
    relabelled = sorted((min(remap[u], remap[v]), max(remap[u], remap[v]))
                        for u, v in dynamic.edges())
    return relabelled == sorted(fresh.edges())


class TestShardedConflictGraph:
    def test_starts_from_existing_family(self, simple_family):
        dyn = ShardedConflictGraph(simple_family)
        assert sorted(dyn.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert dyn.family is simple_family

    def test_add_and_remove_update_adjacency(self, simple_family):
        dyn = ShardedConflictGraph(simple_family)
        idx = dyn.add_dipath(["b", "e"])
        assert idx == 3
        assert dyn.degree(3) == 0
        dyn.remove_dipath(0)
        assert sorted(dyn.edges()) == [(1, 2)]
        assert dyn.vertices() == [1, 2, 3]
        with pytest.raises(IndexError):
            dyn.remove_dipath(0)

    def test_randomized_equivalence_50_instances(self):
        """Random churn == from-scratch rebuild, 50+ seeded instances."""
        checked = 0
        for seed in range(50):
            rng = random.Random(1000 + seed)
            graph = random_dag(12, 0.25, seed=seed)
            pool = random_walk_family(graph, 30, seed=seed)
            if len(pool) == 0:
                continue
            paths = list(pool)
            dyn = ShardedConflictGraph(DipathFamily())
            active = []
            for _ in range(80):
                if active and rng.random() < 0.4:
                    victim = rng.choice(active)
                    active.remove(victim)
                    dyn.remove_dipath(victim)
                else:
                    active.append(dyn.add_dipath(rng.choice(paths)))
            assert dyn.family.mask_rebuilds == 0
            assert _graphs_equal(dyn, dyn.family), f"seed {seed}"
            checked += 1
        assert checked >= 50

    def test_no_rebuild_during_churn(self):
        dyn = ShardedConflictGraph(DipathFamily([["a", "b"], ["b", "c"]]))
        assert dyn.family.mask_rebuilds == 0
        for _ in range(10):
            idx = dyn.add_dipath(["a", "b", "c"])
            dyn.remove_dipath(idx)
        assert dyn.family.mask_rebuilds == 0

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_edge(0, 2),
        lambda g: g.add_vertex(7),
    ], ids=["add_edge", "add_vertex"])
    def test_structural_mutators_are_refused(self, mutate):
        dyn = ShardedConflictGraph(DipathFamily(
            [["a", "b", "c"], ["b", "c", "d"], ["x", "y"]]))
        before = (dyn.vertices(), sorted(dyn.edges()), dyn.vertex_mask,
                  list(dyn.family.items()))
        with pytest.raises(TypeError, match="add_dipath/remove_dipath"):
            mutate(dyn)
        assert (dyn.vertices(), sorted(dyn.edges()), dyn.vertex_mask,
                list(dyn.family.items())) == before
        assert sorted(dyn.edges()) == sorted(
            build_conflict_graph(dyn.family).edges())


class TestSparseFamiliesInOfflineConsumers:
    """Offline algorithms keep working on families with freed slots."""

    def _holed_family(self, graph):
        fam = DipathFamily(graph=graph)
        dyn = ShardedConflictGraph(fam)
        paths = list(random_walk_family(graph, 12, seed=1))
        slots = [dyn.add_dipath(p) for p in paths]
        dyn.remove_dipath(slots[0])
        dyn.remove_dipath(slots[5])
        return fam

    def test_assign_wavelengths_on_holed_family(self):
        from repro.core.wavelengths import assign_wavelengths

        graph = random_dag(12, 0.3, seed=6)
        fam = self._holed_family(graph)
        for method in ("theorem1", "dsatur", "exact"):
            solution = assign_wavelengths(graph, fam, method=method)
            assert set(solution.coloring) == set(fam.active_indices())

    def test_grooming_on_holed_family(self):
        from repro.optical.grooming import (
            adm_count,
            groom_requests,
            max_requests_within_wavelengths,
        )

        fam = DipathFamily([["a", "b"], ["a", "b"], ["b", "c"]])
        fam.remove(0)
        selected = max_requests_within_wavelengths(fam, 1)
        assert selected == [1, 2]
        result = groom_requests(fam, 1)
        assert sorted(i for ws in result.assignment.values() for i in ws) \
            == [1, 2]
        assert adm_count(fam, {1: 0, 2: 0}) == 3   # shared ADM at b

    def test_rooted_tree_colouring_on_holed_family(self):
        from repro.core.rooted_trees import color_dipaths_rooted_tree

        tree = out_tree(2, 3)
        fam = DipathFamily(graph=tree)
        for _ in range(2):
            fam.add([(), (0,), (0, 0)])
        fam.add([(0,), (0, 1)])
        fam.remove(0)
        coloring = color_dipaths_rooted_tree(tree, fam)
        assert set(coloring) == {1, 2}
        assert coloring[1] != coloring[2] or fam.conflicts_of(1) == []

    def test_replication_structure_on_holed_family(self):
        from repro.conflict.covering import replication_structure

        fam = DipathFamily([["a", "b"], ["a", "b"], ["b", "c"], ["b", "c"]])
        fam.remove(1)
        fam.remove(2)
        structure = replication_structure(fam)
        assert structure is not None
        representatives, copies = structure
        assert copies == 1
        assert sorted(representatives) == [0, 3]


def _reference_admission(graph, requests, wavelengths, routing):
    """The seed per-fibre first-fit loop, kept as the oracle."""
    family = route_all(graph, requests, policy=routing)
    network = OpticalNetwork.from_digraph(graph, capacity=wavelengths)
    accepted, blocked = [], []
    for idx, dipath in enumerate(family):
        chosen = None
        for wavelength in range(wavelengths):
            if all(network.is_wavelength_free(arc, wavelength)
                   for arc in dipath.arcs()):
                chosen = wavelength
                break
        if chosen is None:
            blocked.append(idx)
        else:
            network.provision(dipath, chosen, request_id=idx)
            accepted.append(idx)
    return accepted, blocked, network.wavelengths_used()


class TestReplayEquivalence:
    @pytest.mark.parametrize("wavelengths", [1, 2, 4])
    def test_matches_per_fibre_reference_on_random_dags(self, wavelengths):
        for seed in range(12):
            graph = random_dag(14, 0.2, seed=seed)
            try:
                traffic = uniform_random_traffic(graph, 40, seed=seed)
            except ValueError:
                continue
            ref = _reference_admission(graph, traffic, wavelengths, "shortest")
            got = simulate_admission(graph, traffic, wavelengths,
                                     routing="shortest")
            assert (got.accepted, got.blocked, got.wavelengths_used) == ref

    def test_matches_reference_on_tree_unique_routing(self):
        tree = out_tree(2, 3)
        traffic = RequestFamily.all_to_all(tree)
        for wavelengths in (1, 2, traffic.total_demand()):
            ref = _reference_admission(tree, traffic, wavelengths, "unique")
            got = simulate_admission(tree, traffic, wavelengths,
                                     routing="unique")
            assert (got.accepted, got.blocked, got.wavelengths_used) == ref

    def test_simulate_online_replay_of_prerouted_family(self):
        graph = random_dag(10, 0.3, seed=2)
        traffic = uniform_random_traffic(graph, 25, seed=2)
        family = route_all(graph, traffic, policy="shortest")
        ref = _reference_admission(graph, traffic, 3, "shortest")
        result = simulate_online(graph, replay_trace(family), 3)
        assert (result.accepted, result.blocked,
                result.wavelengths_used) == ref
        assert result.blocking_rate == pytest.approx(
            len(ref[1]) / (len(ref[0]) + len(ref[1])))


def _topology_of(family):
    """The digraph of a pre-routed family's own arcs: the engine refuses
    a dipath naming a vertex its topology lacks."""
    graph = DiGraph()
    for path in family:
        for u, v in path.arcs():
            if not graph.has_arc(u, v):
                graph.add_arc(u, v)
    return graph


class TestPolicies:
    def _family_of_disjoint_paths(self):
        return DipathFamily([["a", "b"], ["c", "d"], ["e", "f"]])

    def test_first_fit_packs_least_used_spreads(self):
        family = self._family_of_disjoint_paths()
        graph = _topology_of(family)
        ff = simulate_online(graph, replay_trace(family), 3,
                             policy="first_fit")
        lu = simulate_online(graph, replay_trace(family), 3,
                             policy="least_used")
        assert ff.wavelengths_used == 1      # disjoint paths all take colour 0
        assert lu.wavelengths_used == 3      # least-used rotates the spectrum

    def test_policy_parameter_selects_policy(self):
        """simulate_admission(policy=...) picks the wavelength policy."""
        graph = out_tree(3, 1)               # root -> three leaves, disjoint
        traffic = RequestFamily.multicast(graph, ())
        assert traffic.total_demand() == 3
        ff = simulate_admission(graph, traffic, 3, routing="unique")
        lu = simulate_admission(graph, traffic, 3, routing="unique",
                                policy="least_used")
        assert ff.blocked == [] and lu.blocked == []
        assert ff.wavelengths_used == 1
        assert lu.wavelengths_used == 3

    def test_all_policies_produce_proper_colourings(self):
        graph = random_dag(14, 0.25, seed=7)
        traffic = uniform_random_traffic(graph, 60, seed=7)
        pool = route_all(graph, traffic, policy="shortest")
        trace = churn_trace(pool, 20, 40, seed=7)
        for policy in POLICIES:
            dyn = ShardedConflictGraph(DipathFamily())
            assigner = OnlineWavelengthAssigner(4, policy=policy, seed=3)
            slots = {}
            for event in trace:
                if event.kind == ARRIVAL:
                    idx = dyn.add_dipath(event.dipath)
                    if assigner.assign(dyn, idx) is None:
                        dyn.remove_dipath(idx)
                    else:
                        slots[event.request_id] = idx
                elif event.request_id in slots:
                    idx = slots.pop(event.request_id)
                    assigner.release(idx)
                    dyn.remove_dipath(idx)
            coloring = dict(assigner.coloring)
            assert set(coloring) == set(dyn.vertices())
            assert is_proper_coloring(dyn.adjacency(), coloring)
            assert all(0 <= c < 4 for c in coloring.values())

    def test_random_policy_is_seeded(self):
        graph = random_dag(10, 0.3, seed=4)
        traffic = uniform_random_traffic(graph, 30, seed=4)
        pool = route_all(graph, traffic, policy="shortest")
        trace = replay_trace(pool)
        a = simulate_online(graph, trace, 4, policy="random", seed=9)
        b = simulate_online(graph, trace, 4, policy="random", seed=9)
        assert (a.accepted, a.blocked, a.wavelengths_used) == \
            (b.accepted, b.blocked, b.wavelengths_used)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            OnlineWavelengthAssigner(2, policy="mystery")
        with pytest.raises(ValueError):
            OnlineWavelengthAssigner(0)


class TestKempeRepair:
    def test_repair_rescues_blocked_arrival(self):
        # u1=[a,b] and u2=[b,c] are disjoint; v=[a,b,c] conflicts with both.
        # least_used gives u1 -> 0, u2 -> 1, so v is blocked at W=2 unless
        # the Kempe swap recolours u1 to 1 and frees colour 0.
        family = DipathFamily([["a", "b"], ["b", "c"], ["a", "b", "c"]])
        graph = _topology_of(family)
        trace = replay_trace(family)
        plain = simulate_online(graph, trace, 2, policy="least_used")
        assert plain.blocked == [2]
        repaired = simulate_online(graph, trace, 2, policy="least_used",
                                   kempe_repair=True)
        assert repaired.blocked == []
        assert repaired.kempe_repairs == 1
        assert repaired.wavelengths_used == 2

    def test_repair_cannot_exceed_budget(self):
        # three pairwise-conflicting copies of one arc: chi = 3 > W = 2,
        # no swap can help.
        family = DipathFamily([["a", "b"], ["a", "b"], ["a", "b"]])
        graph = _topology_of(family)
        result = simulate_online(graph, replay_trace(family), 2,
                                 policy="first_fit", kempe_repair=True)
        assert result.blocked == [2]
        assert result.kempe_repairs == 0

    def test_repaired_run_keeps_colouring_proper(self):
        graph = random_dag(16, 0.2, seed=11)
        traffic = hotspot_traffic(graph, 80, num_hotspots=2, seed=11)
        pool = route_all(graph, traffic, policy="shortest")
        trace = poisson_trace(traffic, 120, arrival_rate=3.0,
                              mean_holding=4.0, seed=11)
        offline_load = DipathFamily(list(pool)).load()
        wavelengths = max(2, offline_load // 2)
        result = simulate_online(graph, trace, wavelengths,
                                 policy="first_fit", kempe_repair=True)
        # every accepted request was actually colourable within the budget
        assert result.wavelengths_used <= wavelengths
        assert len(result.accepted) + len(result.blocked) == 120


class TestEvents:
    def test_replay_trace_expands_multiplicities(self):
        requests = RequestFamily([("a", "b", 2), ("b", "c")])
        trace = replay_trace(requests)
        assert [e.request_id for e in trace] == [0, 1, 2]
        assert all(e.kind == ARRIVAL for e in trace)
        assert trace[1].request.source == "a"

    def test_poisson_trace_is_seeded_and_sorted(self):
        tree = out_tree(2, 3)
        pool = uniform_random_traffic(tree, 20, seed=0)
        a = poisson_trace(pool, 50, arrival_rate=2.0, mean_holding=1.5, seed=5)
        b = poisson_trace(pool, 50, arrival_rate=2.0, mean_holding=1.5, seed=5)
        assert a == b
        assert len(a) == 100
        times = [e.time for e in a]
        assert times == sorted(times)
        arrivals = [e for e in a if e.kind == ARRIVAL]
        departures = [e for e in a if e.kind == DEPARTURE]
        assert len(arrivals) == len(departures) == 50

    def test_poisson_trace_validates_arguments(self):
        tree = out_tree(2, 2)
        pool = uniform_random_traffic(tree, 5, seed=0)
        with pytest.raises(ValueError):
            poisson_trace(pool, -1)
        with pytest.raises(ValueError):
            poisson_trace(pool, 5, arrival_rate=0.0)
        with pytest.raises(ValueError):
            poisson_trace(RequestFamily(), 5)

    def test_churn_trace_keeps_concurrency_constant(self):
        tree = out_tree(2, 3)
        pool = uniform_random_traffic(tree, 30, seed=1)
        trace = churn_trace(pool, 10, 15, seed=2)
        active = 0
        peak = []
        for event in trace:
            active += 1 if event.kind == ARRIVAL else -1
            peak.append(active)
        assert max(peak) == 10
        assert peak[-1] == 10
        assert len(trace) == 10 + 2 * 15

    def test_simulator_rejects_malformed_traces(self):
        tree = out_tree(2, 2)
        with pytest.raises(SimulationError):
            simulate_online(tree, [Event(1.0, ARRIVAL, 0,
                                         dipath=None, request=None)], 2)
        request = RequestFamily([((), (0,))])[0]
        bad_order = [Event(2.0, ARRIVAL, 0, request=request),
                     Event(1.0, ARRIVAL, 1, request=request)]
        with pytest.raises(SimulationError):
            simulate_online(tree, bad_order, 2)
        duplicate = [Event(1.0, ARRIVAL, 0, request=request),
                     Event(2.0, ARRIVAL, 0, request=request)]
        with pytest.raises(SimulationError):
            simulate_online(tree, duplicate, 2)

    @pytest.mark.parametrize("arrival", [
        dict(dipath=Dipath([0, 1, 7])),          # ends off the topology
        dict(dipath=Dipath([5, 6])),             # wholly off it
        dict(request=Request(0, 9)),             # an unknown endpoint
        dict(request=Request(0, 9),              # ... beside a good dipath
             dipath=Dipath([0, 1, 2])),
    ])
    @pytest.mark.parametrize("routing", ["shortest", "least_loaded",
                                         "k_shortest", "widest"])
    def test_arrival_naming_an_unknown_vertex_is_refused(self, arrival,
                                                         routing):
        """Every router and both admit paths raise VertexNotFoundError
        before any state changes, and simulate_online propagates it."""
        path = DiGraph()
        path.add_arcs([(0, 1), (1, 2)])
        engine = OnlineEngine(path, 2, routing=routing)
        assert engine.admit(1, dipath=Dipath([0, 1, 2])) is None
        before = engine.metrics.to_json()
        with pytest.raises(VertexNotFoundError):
            engine.admit(2, **arrival)
        with pytest.raises(VertexNotFoundError):
            engine.admit_batch([Event(0.0, ARRIVAL, 3,
                                      request=Request(0, 2)),
                                Event(0.0, ARRIVAL, 4, **arrival)])
        assert engine.vertex_of == {1: 0}
        assert len(engine.family) == 1
        assert engine.metrics.to_json() == before
        assert engine.audit() == []
        with pytest.raises(VertexNotFoundError):
            simulate_online(path, [Event(0.0, ARRIVAL, 0, **arrival)], 2,
                            routing=routing)

    @pytest.mark.parametrize("routing", ["shortest", "least_loaded",
                                         "k_shortest", "widest"])
    def test_pre_routed_dipath_over_an_absent_arc_is_no_route(self,
                                                              routing):
        """A pre-routed dipath over an arc the topology never had, or over
        one that is cut now, is refused with NO_ROUTE before any state
        changes — by both admit paths and by simulate_online."""
        graph = DiGraph(arcs=[("a", "b"), ("b", "c")])
        engine = OnlineEngine(graph, 2, routing=routing)
        assert engine.admit(1, dipath=Dipath(["a", "b"])) is None
        fingerprint = engine_fingerprint(engine)
        for rid, arrival in enumerate((dict(dipath=Dipath(["c", "b"])),
                                       dict(request=Request("a", "c"),
                                            dipath=Dipath(["a", "c"]))), 2):
            assert engine.admit(rid, **arrival) == NO_ROUTE
            burst = [Event(0.0, ARRIVAL, 10 + rid, **arrival)]
            assert engine.admit_batch(burst) == {10 + rid: NO_ROUTE}
        assert engine_fingerprint(engine) == fingerprint
        assert engine.metrics.counter("engine.rejected.no_route").value == 4
        assert engine.admit_batch(
            [Event(0.0, ARRIVAL, 5, dipath=Dipath(["c", "b"])),
             Event(0.0, ARRIVAL, 6, dipath=Dipath(["b", "c"]))],
            policy="best_prefix") == {5: NO_ROUTE, 6: None}

        trace = [Event(0.0, ARRIVAL, 0, dipath=Dipath(["c", "b"])),
                 cut_event(1.0, ("b", "c")),
                 Event(2.0, ARRIVAL, 1, dipath=Dipath(["a", "b", "c"])),
                 Event(2.0, ARRIVAL, 2, dipath=Dipath(["a", "b"])),
                 repair_event(3.0, ("b", "c")),
                 Event(4.0, ARRIVAL, 3, dipath=Dipath(["a", "b", "c"]))]
        for batch_policy in (None, "best_prefix"):
            result = simulate_online(graph, trace, 2, routing=routing,
                                     batch_policy=batch_policy)
            assert result.rejections == {0: NO_ROUTE, 1: NO_ROUTE}
            assert result.accepted == [2, 3]

    def test_timeline_records_engine_state(self):
        tree = out_tree(2, 3)
        pool = uniform_random_traffic(tree, 20, seed=3)
        trace = poisson_trace(pool, 40, arrival_rate=2.0, mean_holding=2.0,
                              seed=3)
        result = simulate_online(tree, trace, 3)
        assert len(result.timeline) == len(trace)
        assert result.peak_active() >= 1
        final = result.timeline[-1]
        assert final["blocked_total"] == float(len(result.blocked))


class TestEventTieBreaking:
    """Departures must sort before arrivals at equal timestamps: capacity
    freed at time ``t`` is usable by a request arriving at time ``t``."""

    def _contested_arc(self):
        graph = DAG(arcs=[("a", "b")])
        dipath = Dipath(["a", "b"])
        return graph, dipath

    def _handover_events(self, dipath, t=5.0):
        """Request 0 leaves at ``t``, request 1 wants the same arc at ``t``."""
        return [Event(0.0, ARRIVAL, 0, dipath=dipath),
                Event(t, DEPARTURE, 0),
                Event(t, ARRIVAL, 1, dipath=dipath)]

    def test_sort_events_puts_departures_first(self):
        graph, dipath = self._contested_arc()
        correct = self._handover_events(dipath)
        shuffled = [correct[2], correct[0], correct[1]]
        assert sort_events(shuffled) == correct
        # same time + kind: request_id breaks the remaining ties
        storm = [Event(1.0, ARRIVAL, i, dipath=dipath)
                 for i in (3, 1, 2)] + [Event(1.0, DEPARTURE, 0)]
        ordered = sort_events(storm)
        assert [(e.kind, e.request_id) for e in ordered] == \
            [(DEPARTURE, 0), (ARRIVAL, 1), (ARRIVAL, 2), (ARRIVAL, 3)]

    def test_handover_blocks_iff_the_order_is_wrong(self):
        """The crafted equal-timestamp trace of the regression: W=1, one
        arc; the back-to-back handover only works departures-first."""
        graph, dipath = self._contested_arc()
        correct = self._handover_events(dipath)
        good = simulate_online(graph, correct, 1)
        assert good.blocked == []           # freed at t, reused at t
        wrong = [correct[0], correct[2], correct[1]]    # arrival first
        bad = simulate_online(graph, wrong, 1)          # legal: times rise
        assert bad.blocked == [1]
        assert bad.rejections[1] == "no_wavelength"
        # sort_events repairs exactly that mis-ordering
        assert simulate_online(graph, sort_events(wrong), 1).blocked == []

    def test_poisson_trace_orders_departures_before_arrivals(self):
        tree = out_tree(2, 3)
        pool = uniform_random_traffic(tree, 20, seed=11)
        trace = poisson_trace(pool, 200, arrival_rate=5.0, mean_holding=1.0,
                              seed=11)
        assert trace == sort_events(trace)
        for first, second in zip(trace, trace[1:]):
            if first.time == second.time:
                assert not (first.kind == ARRIVAL and
                            second.kind == DEPARTURE)

    def test_churn_trace_orders_departures_before_arrivals(self):
        tree = out_tree(2, 3)
        pool = uniform_random_traffic(tree, 30, seed=4)
        trace = churn_trace(pool, 8, 20, seed=4)
        for first, second in zip(trace, trace[1:]):
            if first.time == second.time:
                assert not (first.kind == ARRIVAL and
                            second.kind == DEPARTURE)


class TestTrafficDeterminism:
    def test_uniform_random_traffic_reproducible(self):
        graph = random_dag(15, 0.25, seed=3)
        a = uniform_random_traffic(graph, 50, seed=42, max_multiplicity=3)
        b = uniform_random_traffic(graph, 50, seed=42, max_multiplicity=3)
        assert [r.as_tuple() for r in a] == [r.as_tuple() for r in b]

    def test_hotspot_traffic_reproducible(self):
        graph = random_dag(15, 0.25, seed=3)
        a = hotspot_traffic(graph, 50, num_hotspots=2, seed=42)
        b = hotspot_traffic(graph, 50, num_hotspots=2, seed=42)
        assert [r.as_tuple() for r in a] == [r.as_tuple() for r in b]

    def test_traffic_rng_passthrough_threads_one_stream(self):
        graph = random_dag(15, 0.25, seed=3)
        shared = traffic_rng(7)
        first = uniform_random_traffic(graph, 10, seed=shared)
        second = uniform_random_traffic(graph, 10, seed=shared)
        # one shared stream: the second draw continues where the first ended
        assert traffic_rng(shared) is shared
        replay = traffic_rng(7)
        combined = uniform_random_traffic(graph, 10, seed=replay)
        continued = uniform_random_traffic(graph, 10, seed=replay)
        assert [r.as_tuple() for r in first] == [r.as_tuple() for r in combined]
        assert [r.as_tuple() for r in second] == [r.as_tuple() for r in continued]

    def test_simulation_reproducible_end_to_end(self):
        graph = random_dag(15, 0.25, seed=8)
        def run():
            traffic = hotspot_traffic(graph, 40, num_hotspots=2, seed=8)
            trace = poisson_trace(traffic, 80, arrival_rate=2.0,
                                  mean_holding=2.0, seed=8)
            result = simulate_online(graph, trace, 3, policy="random", seed=8)
            return result.accepted, result.blocked, result.wavelengths_used
        assert run() == run()


class TestResultAccessors:
    """`blocked_count` / `blocking_rate` on and off the registry path."""

    def test_blocked_count_falls_back_to_id_lists_without_metrics(self):
        """A hand-built result (metrics=None) counts from its id lists."""
        result = OnlineResult(
            accepted=[0, 1],
            blocked=[2, 3, 4],
            rejections={2: NO_ROUTE, 3: NO_WAVELENGTH, 4: SHED})
        assert result.metrics is None
        assert result.blocked_count() == 3
        assert result.blocked_count(NO_ROUTE) == 1
        assert result.blocked_count(NO_WAVELENGTH) == 1
        assert result.blocked_count(SHED) == 1
        assert result.blocked_count(FIBRE_CUT) == 0
        assert result.blocking_rate == pytest.approx(3 / 5)

    def test_blocked_count_empty_result_is_all_zeros(self):
        empty = OnlineResult()
        assert empty.blocking_rate == 0.0
        assert empty.blocked_count() == 0
        assert all(empty.blocked_count(r) == 0 for r in
                   (NO_ROUTE, NO_WAVELENGTH, SHED, FIBRE_CUT))

    def test_registry_and_id_list_paths_agree_on_the_same_run(self):
        """Strip the snapshot off a real run: every accessor must agree."""
        graph = random_dag(14, 0.25, seed=11)
        traffic = hotspot_traffic(graph, 50, num_hotspots=2, seed=11)
        trace = poisson_trace(traffic, 120, arrival_rate=5.0,
                              mean_holding=3.0, seed=11)
        result = simulate_online(graph, trace, 2, shed_work_budget=3.0,
                                 shed_queue_depth=6)
        assert result.metrics is not None
        assert result.blocked            # the workload actually blocks
        # every admitted lightpath that departs is observed once, for
        # exactly its holding time
        accepted = set(result.accepted)
        admitted_at = {e.request_id: e.time for e in trace
                       if e.kind == ARRIVAL and e.request_id in accepted}
        held = [e.time - admitted_at[e.request_id] for e in trace
                if e.kind == DEPARTURE and e.request_id in admitted_at]
        holding = result.metrics["histograms"]["result.holding_time"]
        assert holding["count"] == len(held) > 0
        assert holding["sum"] == pytest.approx(sum(held))
        reasons = (NO_ROUTE, NO_WAVELENGTH, SHED, FIBRE_CUT)
        via_registry = (result.blocking_rate, result.blocked_count(),
                        [result.blocked_count(r) for r in reasons])
        result.metrics = None            # force the id-list fallback
        via_lists = (result.blocking_rate, result.blocked_count(),
                     [result.blocked_count(r) for r in reasons])
        assert via_registry == via_lists
        # and the per-reason id-list accessors are the same partition
        assert via_lists[2] == [len(result.blocked_no_route),
                                len(result.blocked_no_wavelength),
                                len(result.blocked_shed),
                                len(result.blocked_fibre_cut)]
        assert sum(via_lists[2]) == via_lists[1] == len(result.blocked)


def test_online_engine_refuses_restoration_knobs():
    """The restoration knobs configure the fault injector, not the
    engine: a bare engine refuses them like any unknown keyword."""
    with pytest.raises(TypeError, match="restoration"):
        OnlineEngine(out_tree(2, 1), 2, restoration=False)
