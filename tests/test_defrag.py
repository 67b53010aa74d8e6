"""Tests for the defragmentation & batched-admission subsystem (PR 4).

Covers the three layers the subsystem spans:

* **nested what-if transactions** — commit splices into the parent, the
  parent's rollback undoes committed children bit-identically, resolution
  is LIFO, and ``__exit__`` never commits on an exception nor masks one
  with a rollback failure;
* **batched admission** — the three partial-commit policies, atomicity of
  ``all_or_nothing`` (bit-identical unwind), engine-level timestamp
  batching in :func:`simulate_online`;
* **defragmentation passes** — strict-improvement acceptance, walk
  orders, move budgets, engine triggers (every-N / on-block / utilisation
  threshold), ``request -> member`` coherence, and the differential claim
  of the E15 gate: a whole committed defrag move wrapped in an outer
  transaction rolls back to a bit-identical never-touched twin.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_differential_online import engine_state

from repro.coloring.verify import is_proper_coloring
from repro.conflict import ShardedConflictGraph, build_conflict_graph
from repro.dipaths.dipath import Dipath
from repro.dipaths.family import DipathFamily
from repro.generators.families import random_walk_family
from repro.generators.random_dags import random_dag
from repro.dipaths.requests import Request
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.graphs.digraph import DiGraph
from repro.online import (
    ARRIVAL,
    DEFRAG_ORDERINGS,
    POLICIES,
    DefragMove,
    DefragPass,
    DefragReport,
    Event,
    OnlineEngine,
    OnlineWavelengthAssigner,
    WhatIfTransaction,
    admit_batch,
    admit_best,
    defrag_objective,
    engine_fingerprint,
    max_color_in_use,
    poisson_trace,
    simulate_online,
    sort_events,
)
from repro.online.events import maintenance_events
from repro.online.faults import FaultInjector
from repro.optical.traffic import uniform_random_traffic


def _engine(wavelengths=4, policy="first_fit"):
    conflict = ShardedConflictGraph(DipathFamily())
    # seeded so bit-identity comparisons between twins include RNG state
    assigner = OnlineWavelengthAssigner(conflict.family, wavelengths,
                                        policy=policy, seed=5)
    return conflict, assigner


def _state(conflict, assigner):
    return engine_state(conflict.family, conflict, assigner)


# ---------------------------------------------------------------------- #
# nested transactions
# ---------------------------------------------------------------------- #
class TestNestedTransactions:
    def test_parent_rollback_undoes_committed_child_bit_identically(self):
        conflict, assigner = _engine()
        twin_c, twin_a = _engine()
        for dipath in (["a", "b", "c"], ["b", "c", "d"]):
            for c, a in ((conflict, assigner), (twin_c, twin_a)):
                idx = c.add_dipath(dipath)
                assert a.assign(c, idx) is not None
        before = _state(conflict, assigner)
        with WhatIfTransaction(conflict, assigner) as outer:
            with WhatIfTransaction(conflict, assigner) as inner:
                inner.admit(["c", "d", "e"])
                inner.commit()
            with WhatIfTransaction(conflict, assigner) as inner:
                inner.release(0)
                inner.remove_dipath(0)
                inner.commit()
            assert len(conflict.family) == 2    # committed into the outer
        assert _state(conflict, assigner) == before
        assert _state(conflict, assigner) == _state(twin_c, twin_a)

    def test_child_rollback_keeps_parent_speculation(self):
        conflict, assigner = _engine()
        with WhatIfTransaction(conflict, assigner) as outer:
            idx, color = outer.admit(["a", "b"])
            assert color is not None
            with WhatIfTransaction(conflict, assigner) as inner:
                inner.admit(["b", "c"])
                # not committed: rolled back on exit
            assert len(conflict.family) == 1
            assert conflict.family.is_active(idx)
            outer.commit()
        assert len(conflict.family) == 1

    def test_three_levels_deep(self):
        conflict, assigner = _engine()
        before = _state(conflict, assigner)
        with WhatIfTransaction(conflict, assigner) as t1:
            t1.admit(["a", "b"])
            with WhatIfTransaction(conflict, assigner) as t2:
                t2.admit(["b", "c"])
                with WhatIfTransaction(conflict, assigner) as t3:
                    t3.admit(["c", "d"])
                    t3.commit()
                t2.commit()
            assert len(conflict.family) == 3
        assert _state(conflict, assigner) == before

    def test_resolution_is_lifo(self):
        conflict, assigner = _engine()
        outer = WhatIfTransaction(conflict, assigner)
        inner = WhatIfTransaction(conflict, assigner)
        with pytest.raises(RuntimeError):
            outer.commit()
        with pytest.raises(RuntimeError):
            outer.rollback()
        inner.rollback()
        outer.rollback()


class TestExitSemantics:
    """Satellite: ``__exit__`` under exceptions (never commit, never mask)."""

    def test_exception_mid_block_rolls_back_mutations(self):
        conflict, assigner = _engine()
        idx = conflict.add_dipath(["a", "b"])
        assert assigner.assign(conflict, idx) is not None
        before = _state(conflict, assigner)
        with pytest.raises(KeyError, match="boom"):
            with WhatIfTransaction(conflict, assigner) as tx:
                tx.admit(["a", "b", "c"])
                tx.release(idx)
                tx.remove_dipath(idx)
                raise KeyError("boom")
        assert _state(conflict, assigner) == before

    def test_exception_after_commit_keeps_the_commit(self):
        conflict, assigner = _engine()
        with pytest.raises(ValueError):
            with WhatIfTransaction(conflict, assigner) as tx:
                idx, color = tx.admit(["a", "b"])
                tx.commit()
                raise ValueError("after commit")
        assert color is not None
        assert conflict.family.is_active(idx)

    def test_failed_rollback_does_not_mask_the_original_exception(
            self, monkeypatch):
        conflict, assigner = _engine()

        def broken_retract(idx, state):
            raise RuntimeError("rollback broke")

        with pytest.raises(KeyError, match="original") as excinfo:
            with WhatIfTransaction(conflict, assigner) as tx:
                tx.admit(["a", "b"])
                monkeypatch.setattr(
                    DipathFamily, "_retract_add",
                    lambda self, idx, state: broken_retract(idx, state))
                raise KeyError("original")
        # the rollback failure rides along as a note, not as the exception
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("rollback failed" in note for note in notes)

    def test_failed_rollback_without_exception_still_raises(
            self, monkeypatch):
        conflict, assigner = _engine()

        def broken_retract(idx, state):
            raise RuntimeError("rollback broke")

        with pytest.raises(RuntimeError, match="rollback broke"):
            with WhatIfTransaction(conflict, assigner) as tx:
                tx.admit(["a", "b"])
                monkeypatch.setattr(
                    DipathFamily, "_retract_add",
                    lambda self, idx, state: broken_retract(idx, state))


# ---------------------------------------------------------------------- #
# batched admission
# ---------------------------------------------------------------------- #
class TestBatchAdmission:
    def test_all_or_nothing_unwinds_bit_identically(self):
        conflict, assigner = _engine(wavelengths=2)
        before = _state(conflict, assigner)
        # third copy of the same arc cannot fit W=2: everything unwinds
        result = admit_batch(conflict, assigner,
                             [["a", "b"], ["a", "b"], ["a", "b"]],
                             policy="all_or_nothing")
        assert not result.committed
        assert result.admitted == []
        assert result.blocked == [0, 1, 2]
        assert _state(conflict, assigner) == before

    def test_all_or_nothing_commits_a_feasible_batch(self):
        conflict, assigner = _engine(wavelengths=2)
        result = admit_batch(conflict, assigner, [["a", "b"], ["a", "b"]])
        assert result.committed
        assert [pos for pos, _, _ in result.admitted] == [0, 1]
        assert len(conflict.family) == 2
        colors = {color for _, _, color in result.admitted}
        assert colors == {0, 1}

    def test_best_prefix_stops_at_first_failure(self):
        conflict, assigner = _engine(wavelengths=2)
        result = admit_batch(conflict, assigner,
                             [["a", "b"], ["a", "b"], ["a", "b"],
                              ["b", "c"]],
                             policy="best_prefix")
        assert result.committed
        assert [pos for pos, _, _ in result.admitted] == [0, 1]
        assert result.blocked == [2, 3]     # 3 unattempted past the cut
        assert len(conflict.family) == 2

    def test_greedy_skips_only_the_infeasible(self):
        conflict, assigner = _engine(wavelengths=2)
        result = admit_batch(conflict, assigner,
                             [["a", "b"], ["a", "b"], ["a", "b"],
                              ["b", "c"]],
                             policy="greedy")
        assert result.committed
        assert [pos for pos, _, _ in result.admitted] == [0, 1, 3]
        assert result.blocked == [2]
        assert len(conflict.family) == 3

    def test_unknown_policy_rejected(self):
        conflict, assigner = _engine()
        with pytest.raises(ValueError):
            admit_batch(conflict, assigner, [["a", "b"]], policy="optimal")

    def test_simulate_online_timestamp_batching(self):
        # two arrivals at t=0 fight for one arc under W=1: one-by-one
        # admits the first, all_or_nothing blocks both atomically.
        graph = random_dag(3, 1.0, seed=0)
        arc = next(iter(graph.arcs()))
        dipath = Dipath([arc[0], arc[1]])
        events = [Event(0.0, ARRIVAL, 0, dipath=dipath),
                  Event(0.0, ARRIVAL, 1, dipath=dipath)]
        solo = simulate_online(graph, events, 1)
        batched = simulate_online(graph, events, 1,
                                  batch_policy="all_or_nothing")
        assert solo.accepted == [0] and solo.blocked == [1]
        assert batched.accepted == [] and batched.blocked == [0, 1]
        assert batched.batch_policy == "all_or_nothing"
        assert len(batched.timeline) == len(events)

    def test_simulate_online_batching_matches_serial_for_greedy(self):
        graph = random_dag(12, 0.3, seed=3)
        pool = uniform_random_traffic(graph, 20, seed=3)
        trace = poisson_trace(pool, 80, arrival_rate=6.0, seed=3)
        solo = simulate_online(graph, trace, 3, record_timeline=False)
        batched = simulate_online(graph, trace, 3, record_timeline=False,
                                  batch_policy="greedy")
        # distinct timestamps almost surely: batching must be a no-op; if
        # the trace ever had equal-time arrivals greedy admits the same set
        assert batched.accepted == solo.accepted
        assert batched.blocked == solo.blocked


# ---------------------------------------------------------------------- #
# defragmentation
# ---------------------------------------------------------------------- #
def _fragmented_pair():
    """A W=4 engine left fragmented by departures (colour 0+2 free-able)."""
    conflict, assigner = _engine(wavelengths=4)
    # four copies of one arc -> colours 0..3; remove colours 0 and 2
    indices = []
    for _ in range(4):
        idx = conflict.add_dipath(["a", "b"])
        assert assigner.assign(conflict, idx) is not None
        indices.append(idx)
    for idx in (indices[0], indices[2]):
        assigner.release(idx)
        conflict.remove_dipath(idx)
    # colours in use now {1, 3}: first-fit from scratch would use {0, 1}
    return conflict, assigner


class TestDefragPass:
    def test_recolour_compaction_reclaims_the_tail(self):
        conflict, assigner = _fragmented_pair()
        assert max_color_in_use(assigner) == 3
        report = DefragPass(conflict, assigner).run()
        # colour 3 drops to 0; the colour-1 member is already optimal
        assert report.moves_committed == 1
        assert report.max_color_before == 3
        assert report.max_color_after == 1
        assert sorted(assigner.coloring.values()) == [0, 1]
        assert report.reclaimed == 0        # count unchanged: 2 -> 2
        assert not report.budget_exhausted

    def test_pass_is_idempotent_at_the_fixpoint(self):
        conflict, assigner = _fragmented_pair()
        DefragPass(conflict, assigner).run()
        again = DefragPass(conflict, assigner).run()
        assert again.moves_committed == 0
        assert again.attempted == 2

    def test_moves_never_commit_without_strict_improvement(self):
        conflict, assigner = _engine(wavelengths=4)
        for _ in range(3):
            idx = conflict.add_dipath(["a", "b"])
            assert assigner.assign(conflict, idx) is not None
        conflict.family.load()      # prime the lazy cache before snapshotting
        before = _state(conflict, assigner)
        report = DefragPass(conflict, assigner).run()
        assert report.moves_committed == 0
        assert _state(conflict, assigner) == before

    def test_max_moves_budget(self):
        conflict, assigner = _fragmented_pair()
        report = DefragPass(conflict, assigner, max_moves=1).run()
        assert report.moves_committed == 1
        assert report.budget_exhausted

    def test_zero_time_budget_moves_nothing(self):
        conflict, assigner = _fragmented_pair()
        report = DefragPass(conflict, assigner, time_budget=0.0).run()
        assert report.moves_committed == 0
        assert report.budget_exhausted

    def test_orderings_validated_and_all_reach_the_fixpoint(self):
        with pytest.raises(ValueError):
            DefragPass(*_engine(), order="random")
        for order in ("highest_wavelength", "longest_route",
                      "most_conflicted"):
            conflict, assigner = _fragmented_pair()
            DefragPass(conflict, assigner, order=order).run()
            assert sorted(assigner.coloring.values()) == [0, 1], order

    def test_committed_move_is_rollback_safe(self):
        """The E15 differential claim: a committed defrag move inside an
        outer transaction unwinds to a bit-identical never-touched twin."""
        conflict, assigner = _fragmented_pair()
        twin_c, twin_a = _fragmented_pair()
        conflict.family.load()      # prime the lazy cache before snapshotting
        twin_c.family.load()
        before = _state(conflict, assigner)
        assert before == _state(twin_c, twin_a)
        with WhatIfTransaction(conflict, assigner):
            report = DefragPass(conflict, assigner).run()
            assert report.moves_committed >= 1      # moves really committed
            assert max_color_in_use(assigner) == 1
        assert _state(conflict, assigner) == before
        assert _state(conflict, assigner) == _state(twin_c, twin_a)

    def test_defrag_keeps_colouring_proper_under_churn(self):
        graph = random_dag(14, 0.3, seed=7)
        paths = list(random_walk_family(graph, 40, seed=7))
        conflict, assigner = _engine(wavelengths=6)
        import random as _random
        rng = _random.Random(7)
        active = []
        for step, dipath in enumerate(paths):
            idx = conflict.add_dipath(dipath)
            if assigner.assign(conflict, idx) is None:
                conflict.remove_dipath(idx)
            else:
                active.append(idx)
            if active and rng.random() < 0.4:
                victim = active.pop(rng.randrange(len(active)))
                assigner.release(victim)
                conflict.remove_dipath(victim)
            if step % 10 == 9:
                DefragPass(conflict, assigner).run()
        DefragPass(conflict, assigner).run()
        family = conflict.family
        slots = family.active_indices()
        rebuilt = build_conflict_graph(
            DipathFamily([family[i] for i in slots]))
        remap = {slot: pos for pos, slot in enumerate(slots)}
        dense = {remap[s]: c for s, c in assigner.coloring.items()}
        assert set(dense) == set(range(len(slots)))
        assert is_proper_coloring(rebuilt.adjacency(), dense)


class TestEngineDefragWiring:
    def _scenario(self):
        graph = random_dag(16, 0.3, seed=9)
        pool = uniform_random_traffic(graph, 30, seed=9)
        trace = poisson_trace(pool, 150, arrival_rate=8.0, mean_holding=3.0,
                              seed=9)
        return graph, trace

    def test_engine_defrag_keeps_vertex_map_coherent(self):
        graph, trace = self._scenario()
        engine = OnlineEngine(graph, 4, routing="k_shortest")
        for event in trace[:100]:
            if event.kind == ARRIVAL:
                engine.admit(event.request_id, request=event.request,
                             dipath=event.dipath)
            else:
                engine.depart(event.request_id)
        report = engine.defrag()
        assert engine.defrag_passes == 1
        assert engine.defrag_moves == report.moves_committed
        assert sorted(engine.vertex_of.values()) == \
            engine.family.active_indices()
        # every provisioned lightpath still holds a colour
        assert set(engine.vertex_of.values()) == set(engine.assigner.coloring)

    def test_defrag_every_trigger_counts_passes(self):
        graph, trace = self._scenario()
        result = simulate_online(graph, trace, 4, record_timeline=False,
                                 defrag_every=50)
        assert result.defrag_passes == len(trace) // 50
        assert result.defrag_moves >= 0

    def test_defrag_on_block_never_blocks_more(self):
        graph, trace = self._scenario()
        base = simulate_online(graph, trace, 3, routing="k_shortest",
                               record_timeline=False)
        helped = simulate_online(graph, trace, 3, routing="k_shortest",
                                 record_timeline=False, defrag_on_block=True)
        assert helped.blocking_rate <= base.blocking_rate
        assert helped.defrag_passes >= 1

    def test_utilisation_trigger_fires_on_crossing(self):
        graph, trace = self._scenario()
        result = simulate_online(graph, trace, 4, record_timeline=False,
                                 defrag_utilization=0.5)
        assert result.defrag_passes >= 1
        with pytest.raises(ValueError):
            simulate_online(graph, trace, 4, defrag_utilization=1.5)

    def test_defrag_off_by_default(self):
        graph, trace = self._scenario()
        result = simulate_online(graph, trace, 4, record_timeline=False)
        assert result.defrag_passes == 0
        assert result.defrag_moves == 0
        assert result.wavelengths_reclaimed == 0

    def test_trigger_arguments_validated_up_front(self):
        graph, trace = self._scenario()
        with pytest.raises(ValueError):
            simulate_online(graph, trace, 4, defrag_every=0)
        with pytest.raises(ValueError):
            simulate_online(graph, trace, 4, defrag_every=-5)
        with pytest.raises(ValueError):
            simulate_online(graph, trace, 4, batch_policy="all-or-nothing")

    def test_batched_timeline_samples_are_independent_dicts(self):
        graph = random_dag(3, 1.0, seed=0)
        arc = next(iter(graph.arcs()))
        dipath = Dipath([arc[0], arc[1]])
        events = [Event(0.0, ARRIVAL, 0, dipath=dipath),
                  Event(0.0, ARRIVAL, 1, dipath=dipath)]
        result = simulate_online(graph, events, 2, batch_policy="greedy")
        assert len(result.timeline) == 2
        result.timeline[0]["blocked_total"] = 99.0
        assert result.timeline[1]["blocked_total"] != 99.0

    def test_defrag_on_block_also_helps_batched_bursts(self):
        graph, trace = self._scenario()
        base = simulate_online(graph, trace, 3, routing="k_shortest",
                               record_timeline=False, batch_policy="greedy")
        helped = simulate_online(graph, trace, 3, routing="k_shortest",
                                 record_timeline=False, batch_policy="greedy",
                                 defrag_on_block=True)
        assert helped.blocking_rate <= base.blocking_rate


# ---------------------------------------------------------------------- #
# the pruning bound
# ---------------------------------------------------------------------- #
def _speculate_every_member(self, idx, report):
    """The move test before the bound, frozen: speculate every member.

    The differential oracle for :meth:`DefragPass._may_improve`: patched
    over :meth:`DefragPass._try_move`, it re-admits each walked member
    inside an outer what-if and keeps only strict improvers.
    """
    conflict, assigner = self._conflict, self._assigner
    old_route = conflict.family[idx]
    old_color = assigner.color_of(idx)
    routes = self._candidate_routes(idx, old_route)
    before = defrag_objective(conflict, assigner) + (old_color,)
    with WhatIfTransaction(conflict, assigner) as move:
        move.release(idx)
        move.remove_dipath(idx)
        decision = admit_best(conflict, assigner, routes)
        if decision is None:
            return None
        after = defrag_objective(conflict, assigner) + (decision.color,)
        if not after < before:
            return None
        move.commit()
    return DefragMove(index=idx, new_index=decision.index,
                      old_color=old_color, new_color=decision.color,
                      old_route=old_route, new_route=decision.dipath)


def _region_network(seed):
    graph = multi_region_topology(regions=2, region_size=12,
                                  arc_probability=0.25, coupling=2,
                                  seed=seed)
    pool = multi_region_traffic(graph, num_requests=200, inter_fraction=0.3,
                                seed=seed)
    return graph, pool


def _decided(report):
    """A pass report without ``pruned`` (the oracle never prunes)."""
    return dataclasses.replace(report, pruned=0)


def _churn_with_faults(seed, policy, order, kempe, steps=200,
                       wavelengths=3):
    """Drive one warm engine through churn, cuts, repairs and passes.

    Returns the log a twin must reproduce: every pass report (full
    passes, ``members=`` passes over one shard, ``max_moves=1`` passes),
    every fault report, the fingerprint after each of them (each also
    audited) and the Kempe repair count, plus the number of moves the
    bound pruned.
    """
    graph, pool = _region_network(seed)
    pairs = pool.pairs()
    engine = OnlineEngine(graph, wavelengths, routing="k_shortest",
                          speculative=True, policy=policy,
                          kempe_repair=kempe, seed=seed)
    injector = FaultInjector(engine, revert_on_repair=True, order=order)
    rng = random.Random(seed)
    arcs = sorted(graph.arcs())
    log, pruned, rid = [], 0, 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            source, target = rng.choice(pairs)
            engine.admit(rid, request=Request(source, target))
            rid += 1
        elif roll < 0.8 and engine.vertex_of:
            victim = rng.choice(sorted(engine.vertex_of))
            engine.depart(victim)
            injector.forget(victim)
        elif roll < 0.9:
            cut = injector.cut_arcs()
            if cut and rng.random() < 0.5:
                # each rerouted lightpath gets a one-candidate revert pass
                log.append(("detours", injector.rerouted()))
                fault = injector.repair(rng.choice(cut))
            else:
                fault = injector.cut(rng.choice(
                    [a for a in arcs if a not in cut]))
            log.append(("fault", fault))
        else:
            shards = sorted(engine.shard_map().items())
            members = rng.choice(shards)[1] if shards else None
            max_moves = rng.choice([None, 1])
            report = DefragPass(engine.conflict, engine.assigner,
                                candidates=engine._defrag_candidates,
                                order=order, members=members,
                                max_moves=max_moves).run()
            pruned += report.pruned
            log.append(("pass", _decided(report)))
        if roll >= 0.8:
            report = engine.defrag(order=order)
            pruned += report.pruned
            log.append(("engine", _decided(report)))
            log.append(("fingerprint", engine_fingerprint(engine)))
            assert engine.audit() == []
    log.append(("kempe", engine.assigner.kempe_repairs))
    return log, pruned


class TestPruningBound:
    @pytest.mark.parametrize("kempe", [False, True])
    @pytest.mark.parametrize("order", DEFRAG_ORDERINGS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_twin_matches_speculate_every_member(self, monkeypatch, policy,
                                                 order, kempe):
        log, pruned = _churn_with_faults(11, policy, order, kempe)
        with monkeypatch.context() as patch:
            patch.setattr(DefragPass, "_try_move", _speculate_every_member)
            oracle, oracle_pruned = _churn_with_faults(11, policy, order,
                                                       kempe)
        assert oracle_pruned == 0
        assert pruned > 0               # the bound really ran
        assert log == oracle
        assert any(detours for kind, detours in log if kind == "detours")
        if kempe:
            assert log[-1][1] > 0       # Kempe repairs really happened

    @pytest.mark.parametrize("policy,kempe", [("first_fit", False),
                                              ("least_used", True),
                                              ("random", False)])
    def test_audited_fault_traces_match_speculate_every_member(
            self, monkeypatch, policy, kempe):
        graph, pool = _region_network(3)
        trace = poisson_trace(pool, 300, arrival_rate=2.0, mean_holding=6.0,
                              seed=3)
        arcs = sorted(graph.arcs())
        plan = random.Random(3)
        faults = []
        for window in range(5):
            faults += maintenance_events(plan.sample(arcs, 2),
                                         10.0 + 30.0 * window, 12.0,
                                         fault_id=2 * window)
        events = sort_events(list(trace) + faults)

        def run():
            return simulate_online(
                graph, events, 3, record_timeline=False, audit_every=1,
                defrag_on_block=True, defrag_every=40, routing="k_shortest",
                speculative=True, policy=policy, kempe_repair=kempe, seed=3,
                revert_on_repair=True)

        def outcome(result):
            counters = dict(result.metrics["counters"])
            pruned = counters.pop("defrag.pruned")
            return (result.accepted, result.blocked, result.rejections,
                    engine_fingerprint(result.engine), counters,
                    result.metrics["gauges"]), pruned

        bounded, pruned = outcome(run())
        with monkeypatch.context() as patch:
            patch.setattr(DefragPass, "_try_move", _speculate_every_member)
            oracle, oracle_pruned = outcome(run())
        assert pruned > 0 and oracle_pruned == 0
        assert bounded[3]["defrag"][1] > 0      # some moves committed
        assert bounded == oracle

    def test_own_colour_counts_as_free_on_shared_fibres(self):
        """The member's colour is free again on the fibres it leaves.

        ``x`` (colour 0) shares ``a->b`` with its detour ``a-b-d-c``,
        whose other fibres hold colours 1 and 2.  Only colour 0 fits the
        detour, which takes ``x`` off the load-3 fibre ``b->c``.
        """
        graph = DiGraph()
        graph.add_arcs([("a", "b"), ("b", "c"), ("b", "d"), ("d", "c")])
        engine = OnlineEngine(graph, 3)
        routes = {0: "abc", 1: "bc", 2: "bc",      # colours 0, 1, 2
                  3: "bd", 4: "bd",                 # 0, 1
                  5: "dc", 6: "dc", 7: "dc"}        # 0, 1, 2
        for rid, route in routes.items():
            assert engine.admit(rid, dipath=Dipath(list(route))) is None
        for rid in (3, 5, 6):                       # x: sole user of 0
            engine.depart(rid)
        detour = Dipath(list("abdc"))
        report = DefragPass(engine.conflict, engine.assigner,
                            candidates=lambda idx, current: [detour],
                            members=[engine.vertex_of[0]]).run()
        assert report.pruned == 0
        assert [(m.new_route, m.new_color) for m in report.moves] == \
            [(detour, 0)]
        assert report.load_after == 2

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10 ** 6), policy=st.sampled_from(POLICIES),
           kempe=st.booleans(), wavelengths=st.integers(2, 5),
           order=st.sampled_from(DEFRAG_ORDERINGS))
    def test_cannot_improve_means_the_move_rolls_back(
            self, seed, policy, kempe, wavelengths, order):
        """Soundness: wherever the bound says "cannot improve", the full
        speculative move returns ``None`` and leaves the state
        bit-identical.  Moves the bound lets through are committed by the
        same speculation, so later members see a moving state."""
        graph, pool = _region_network(seed % 7)
        pairs = pool.pairs()
        engine = OnlineEngine(graph, wavelengths, routing="k_shortest",
                              speculative=True, policy=policy,
                              kempe_repair=kempe, seed=seed)
        rng = random.Random(seed)
        for rid in range(60):
            source, target = rng.choice(pairs)
            engine.admit(rid, request=Request(source, target))
            if rng.random() < 0.4:
                engine.depart(rng.choice(sorted(engine.vertex_of)))
        pass_ = DefragPass(engine.conflict, engine.assigner,
                           candidates=engine._defrag_candidates, order=order)
        report = DefragReport(order=order)
        for idx in pass_._ordered_members():
            old_route = engine.family[idx]
            routes = pass_._candidate_routes(idx, old_route)
            before = (defrag_objective(engine.conflict, engine.assigner)
                      + (engine.assigner.color_of(idx),))
            if pass_._may_improve(idx, routes, before):
                _speculate_every_member(pass_, idx, report)
                continue
            state = _state(engine.conflict, engine.assigner)
            fingerprint = engine_fingerprint(engine)
            assert _speculate_every_member(pass_, idx, report) is None
            assert _state(engine.conflict, engine.assigner) == state
            assert engine_fingerprint(engine) == fingerprint
        assert engine.audit() == []

    def test_bound_prunes_most_restoration_attempts(self, monkeypatch):
        """Tightness floor on the benchmark's fault workload: over the 12
        traces of run seed 201 the bound rules out at least 80 % of the
        defrag attempts, and every move it rules out really rolls back."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / \
            "workloads.py"
        spec = importlib.util.spec_from_file_location("_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        workload = workloads.WORKLOADS["speculative-faults-sim"]
        verdicts = []
        bound = DefragPass._may_improve

        def checked(self, idx, routes, before):
            verdict = bound(self, idx, routes, before)
            verdicts.append(verdict)
            if not verdict:
                assert _speculate_every_member(
                    self, idx, DefragReport(order="")) is None
            return verdict

        monkeypatch.setattr(DefragPass, "_may_improve", checked)
        knobs = dict(workload.engine, **workload.simulator)
        for seed in workloads.trace_seeds(201, workload.traces):
            graph, events = workload.inputs(seed)
            simulate_online(graph, events, workload.wavelengths,
                            record_timeline=False, **knobs)
        assert len(verdicts) > 1000
        assert verdicts.count(False) >= 0.8 * len(verdicts)
