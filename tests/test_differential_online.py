"""Differential harness for the what-if transaction layer.

Randomized churn sequences drive two engines in lockstep — one of them
additionally runs speculative :class:`~repro.online.WhatIfTransaction`
what-ifs that are always rolled back — and the harness asserts the three
contracts of the rollback design:

(a) after every rollback the speculating engine's ``DipathFamily``,
    ``ShardedConflictGraph`` and ``OnlineWavelengthAssigner`` are
    **bit-identical** to the never-touched twin: every internal bitmask,
    list, free-slot stack, cache and counter compares equal;
(b) assignments produced under *adaptive* routing (least-loaded,
    k-shortest, widest, speculative or not) always pass
    :mod:`repro.coloring.verify` against a conflict graph rebuilt from
    scratch off the raw dipaths;
(c) ``mask_rebuilds`` never moves on the speculation or rollback path —
    no engine mutation builds the family's conflict-mask cache (each one
    only drops it), so the cache stays cold for the engine's whole life;
(d) :func:`~repro.online.admit_best`, which ranks candidates by their
    post-admission load and admits only until one colours, decides and
    leaves state exactly like the exhaustive rule that speculates every
    candidate and scores the speculated state (the oracle below), the
    assigner's per-fibre ``ArcColorIndex`` included.

The sequences come from two generators: a hypothesis-driven one (60
examples exploring the op space adversarially, shrinkable on failure) and
a fixed 50-seed sweep that guarantees the 50+ randomized sequences run on
every invocation regardless of hypothesis' adaptive example budget.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coloring.verify import is_proper_coloring
from repro.conflict import ShardedConflictGraph, build_conflict_graph
from repro.dipaths.dipath import Dipath
from repro.dipaths.family import DipathFamily
from repro.generators.families import random_walk_family
from repro.generators.random_dags import random_dag
from repro.graphs.traversal import k_shortest_dipaths
from repro.online import (
    ARRIVAL,
    AdmissionDecision,
    OnlineEngine,
    OnlineWavelengthAssigner,
    WhatIfTransaction,
    admit_best,
    poisson_trace,
)
from repro.online.routing import live_load_cost
from repro.optical.traffic import uniform_random_traffic

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

WAVELENGTHS = 4


def engine_state(family, conflict, assigner):
    """Every internal field of the dynamic trio, for bit-level comparison.

    Masks and counters are plain ints, so equality here *is* bit identity;
    dict comparisons ignore insertion order, which is the one
    representation detail rollback is allowed to disturb.
    """
    return {
        "paths": list(family._paths),
        "arc_ids": dict(family._arc_ids),
        "arcs": list(family._arcs),
        "arc_members": list(family._arc_members),
        "path_arc_ids": list(family._path_arc_ids),
        "conflict_masks": (None if family._conflict_masks is None
                           else list(family._conflict_masks)),
        "free_slots": list(family._free_slots),
        "load_cache": family._load_cache,
        "mask_rebuilds": family._mask_rebuilds,
        "nbr": dict(conflict._nbr),
        "vmask": conflict._vmask,
        "color": dict(assigner._color),
        "usage": list(assigner._usage),
        "ever_used": assigner._ever_used,
        "repairs": assigner._repairs,
        "rng": assigner._rng.getstate(),
    }


class _Twin:
    """One dynamic engine half of the differential pair."""

    def __init__(self, kempe_repair=False, policy="least_used"):
        self.conflict = ShardedConflictGraph(DipathFamily())
        self.assigner = OnlineWavelengthAssigner(
            self.conflict.family, WAVELENGTHS, policy=policy, kempe_repair=kempe_repair, seed=99)
        self.active = []

    def state(self):
        return engine_state(self.conflict.family, self.conflict,
                            self.assigner)

    def arrive(self, dipath):
        idx = self.conflict.add_dipath(dipath)
        if self.assigner.assign(self.conflict, idx) is None:
            self.conflict.remove_dipath(idx)
        else:
            self.active.append(idx)

    def depart(self, position):
        idx = self.active.pop(position % len(self.active))
        self.assigner.release(idx)
        self.conflict.remove_dipath(idx)


def _speculate(twin, rng, paths, num_ops):
    """Run a random what-if on ``twin`` and roll every bit of it back.

    Some operations run inside a *nested* child transaction that commits
    (or rolls back) into this one — the outer rollback must still erase
    everything, including the committed children (PR 4 nesting contract).
    """
    with WhatIfTransaction(twin.conflict, twin.assigner) as tx:
        local = list(twin.active)
        for _ in range(num_ops):
            if local and rng.random() < 0.4:
                victim = local.pop(rng.randrange(len(local)))
                tx.release(victim)
                tx.remove_dipath(victim)
            elif rng.random() < 0.3:
                with WhatIfTransaction(twin.conflict, twin.assigner) as sub:
                    idx, color = sub.admit(rng.choice(paths))
                    if color is not None and rng.random() < 0.5:
                        sub.commit()        # spliced into tx's journal
                        local.append(idx)
                    # else: the child rolls back by itself
            else:
                idx, color = tx.admit(rng.choice(paths))
                if color is None:
                    tx.remove_dipath(idx)
                else:
                    local.append(idx)
        # leaving the block without commit() rolls everything back


def _run_differential_sequence(seed, churn_steps, kempe_repair=False,
                               policy="least_used"):
    """One randomized churn+speculation sequence; returns twins checked."""
    rng = random.Random(seed)
    graph = random_dag(12, 0.3, seed=seed % 17)
    paths = list(random_walk_family(graph, 30, seed=seed % 13))
    if not paths:
        return False
    speculating = _Twin(kempe_repair=kempe_repair, policy=policy)
    untouched = _Twin(kempe_repair=kempe_repair, policy=policy)
    for step in range(churn_steps):
        # identical committed churn on both twins
        if speculating.active and rng.random() < 0.4:
            position = rng.randrange(len(speculating.active))
            speculating.depart(position)
            untouched.depart(position)
        else:
            dipath = rng.choice(paths)
            speculating.arrive(dipath)
            untouched.arrive(dipath)
        # a random what-if on the speculating twin only, always rolled back
        _speculate(speculating, rng, paths, num_ops=rng.randrange(1, 5))
        assert speculating.conflict.family.mask_rebuilds == 0
    assert speculating.state() == untouched.state(), f"seed {seed}"
    return True


class TestRollbackBitIdentity:
    """(a) + (c): rollback is bit-identical; the mask cache stays cold."""

    @given(seed=st.integers(0, 10_000), churn_steps=st.integers(5, 25),
           kempe=st.booleans(),
           policy=st.sampled_from(("first_fit", "least_used", "random")))
    @settings(**SETTINGS)
    def test_hypothesis_sequences(self, seed, churn_steps, kempe, policy):
        # `random` matters here: speculative assigns consume RNG draws, so
        # rollback must also rewind the policy RNG to keep the twins in
        # lockstep (the checkpoint records getstate()).
        _run_differential_sequence(seed, churn_steps, kempe_repair=kempe,
                                   policy=policy)

    def test_fifty_seeded_sequences(self):
        """The fixed floor: 50+ randomized sequences on every run."""
        checked = 0
        for seed in range(55):
            if _run_differential_sequence(seed, 15,
                                          kempe_repair=seed % 2 == 0):
                checked += 1
        assert checked >= 50

    def test_uncommitted_exit_equals_explicit_rollback(self):
        graph = random_dag(10, 0.3, seed=3)
        paths = list(random_walk_family(graph, 12, seed=3))
        twin = _Twin()
        for p in paths[:6]:
            twin.arrive(p)
        before = twin.state()
        tx = WhatIfTransaction(twin.conflict, twin.assigner)
        tx.admit(paths[6])
        tx.rollback()
        assert twin.state() == before
        with WhatIfTransaction(twin.conflict, twin.assigner) as tx:
            tx.admit(paths[7])
        assert twin.state() == before

    def test_commit_keeps_the_speculation(self):
        twin = _Twin()
        with WhatIfTransaction(twin.conflict, twin.assigner) as tx:
            idx, color = tx.admit(["a", "b", "c"])
            tx.commit()
        assert color is not None
        assert twin.conflict.family.is_active(idx)
        assert twin.assigner.color_of(idx) == color

    def test_rollback_survives_exceptions(self):
        twin = _Twin()
        twin.arrive(["a", "b"])
        before = twin.state()
        with pytest.raises(RuntimeError):
            with WhatIfTransaction(twin.conflict, twin.assigner) as tx:
                tx.admit(["a", "b", "c"])
                raise RuntimeError("speculation gone wrong")
        assert twin.state() == before


class TestAdaptiveRoutingVerifies:
    """(b): adaptive assignments verify against a from-scratch rebuild."""

    @given(seed=st.integers(0, 5_000),
           routing=st.sampled_from(("least_loaded", "k_shortest", "widest")),
           speculative=st.booleans(), kempe=st.booleans())
    @settings(**SETTINGS)
    def test_coloring_proper_against_rebuild(self, seed, routing,
                                             speculative, kempe):
        graph = random_dag(12, 0.25, seed=seed % 19)
        try:
            pool = uniform_random_traffic(graph, 25, seed=seed % 11)
        except ValueError:          # a DAG with no connected pairs
            return
        trace = poisson_trace(pool, 60, arrival_rate=4.0, mean_holding=3.0,
                              seed=seed)
        engine = OnlineEngine(graph, WAVELENGTHS, routing=routing,
                              kempe_repair=kempe, speculative=speculative)
        for event in trace:
            if event.kind == ARRIVAL:
                engine.admit(event.request_id, request=event.request)
            else:
                engine.depart(event.request_id)
        coloring = dict(engine.assigner.coloring)
        assert set(coloring) == set(engine.conflict.vertices())
        assert all(0 <= c < WAVELENGTHS for c in coloring.values())
        # rebuild from the raw dipaths (dense indices), remap, verify
        active = engine.family.active_indices()
        rebuilt = build_conflict_graph(
            DipathFamily([engine.family[i] for i in active]))
        remap = {slot: pos for pos, slot in enumerate(active)}
        dense = {remap[slot]: c for slot, c in coloring.items()}
        assert is_proper_coloring(rebuilt.adjacency(), dense)
        # and the dynamic graph's edges agree with the rebuild
        relabelled = sorted(
            (min(remap[u], remap[v]), max(remap[u], remap[v]))
            for u, v in engine.conflict.edges())
        assert relabelled == sorted(rebuilt.edges())


# ---------------------------------------------------------------------- #
# (d) rank-then-admit against the exhaustive oracle
# ---------------------------------------------------------------------- #
def exhaustive_admit_best(conflict, assigner, candidates):
    """Speculate every candidate, score the speculated state, commit the best.

    The reference rule: each candidate is admitted and rolled back, the
    admissible one with the least ``live_load_cost`` measured *with it
    admitted* wins (ties to the earliest), and the winner is admitted a
    second time for real.
    """
    best = None
    for pos, dipath in enumerate(candidates):
        with WhatIfTransaction(conflict, assigner) as tx:
            _, color = tx.admit(dipath)
            if color is not None:
                value = live_load_cost(conflict.family, dipath)
                if best is None or value < best[0]:
                    best = (value, pos)
    if best is None:
        return None
    dipath = candidates[best[1]]
    with WhatIfTransaction(conflict, assigner) as tx:
        idx, color = tx.admit(dipath)
        assert color is not None
        tx.commit()
    return AdmissionDecision(index=idx, color=color, candidate=best[1],
                             dipath=dipath)


def full_state(engine):
    """:func:`engine_state` plus the shard partition and colour index.

    The colour index grows its per-arc mask table the first time an arc
    carries a colour and never shrinks it, so how many empty entries it
    holds depends on how much was ever speculated; the state is the
    non-empty entries, and none may lie past the family's interned arcs.
    """
    conflict, assigner = engine.conflict, engine.assigner
    state = engine_state(conflict.family, conflict, assigner)
    state["shard_map"] = conflict.shard_map()
    index = assigner.color_index
    masks = {aid: m for aid, m in enumerate(index._masks) if m}
    assert max(masks, default=-1) < conflict.family.num_arc_ids
    state["index_masks"] = masks
    return state


def _warm_twins(seed, policy, kempe):
    """Two engines driven through the same warm-up trace."""
    graph = random_dag(14, 0.35, seed=seed)
    pool = uniform_random_traffic(graph, 30, seed=seed)
    trace = poisson_trace(pool, 60, arrival_rate=6.0, mean_holding=10.0,
                          seed=seed)
    last = max(i for i, e in enumerate(trace) if e.kind == ARRIVAL)
    trace = trace[:last + 1]        # keep the lightpaths of the tail up
    twins = []
    for _ in range(2):
        engine = OnlineEngine(graph, WAVELENGTHS, policy=policy,
                              kempe_repair=kempe, seed=seed)
        for event in trace:
            if event.kind == ARRIVAL:
                engine.admit(event.request_id, request=event.request)
            else:
                engine.depart(event.request_id)
        twins.append(engine)
    paths = [Dipath(p) for r in pool
             for p in k_shortest_dipaths(graph, r.source, r.target, 3)]
    paths += list(random_walk_family(graph, 20, seed=seed, min_length=3))
    return twins, paths


def _ranked_first(family, candidates):
    """Position of the candidate with the least post-admission load."""
    def key(pos):
        max_load, total, hops = live_load_cost(family, candidates[pos])
        return (max_load, total + hops, hops, pos)
    return min(range(len(candidates)), key=key)


def _oracle_sequence(seed, policy, kempe, steps, seen):
    """Drive ``admit_best`` and the oracle in lockstep; assert equality."""
    rng = random.Random(seed)
    (oracle, engine), paths = _warm_twins(seed, policy, kempe)
    assert full_state(oracle) == full_state(engine)
    admitted = []
    for _ in range(steps):
        cands = rng.sample(paths, rng.randint(1, 5))
        if rng.random() < 0.4:
            cands.append(rng.choice(cands))                 # a duplicate
            rng.shuffle(cands)
        coloured = sorted(engine.assigner.coloring)
        if coloured and rng.random() < 0.35:
            # the defrag shape: lift a lightpath out inside an outer
            # transaction, re-admit from the candidates, roll it all back
            victim = rng.choice(coloured)
            cands.append(engine.family[victim])
            inside, decisions = [], []
            for twin, fn in ((oracle, exhaustive_admit_best),
                             (engine, admit_best)):
                with WhatIfTransaction(twin.conflict, twin.assigner) as move:
                    move.release(victim)
                    move.remove_dipath(victim)
                    decisions.append(fn(twin.conflict, twin.assigner, cands))
                    inside.append(full_state(twin))
            assert decisions[0] == decisions[1]
            assert inside[0] == inside[1]
            seen["defrag"] += 1
        else:
            first = _ranked_first(engine.family, cands)
            repairs = engine.assigner.kempe_repairs
            expected = exhaustive_admit_best(oracle.conflict,
                                             oracle.assigner, cands)
            decision = admit_best(engine.conflict, engine.assigner, cands)
            assert decision == expected
            if decision is None:
                seen["none"] += 1
            else:
                admitted.append(decision.index)
                if decision.candidate != first:
                    seen["skipped_first"] += 1
                if engine.assigner.kempe_repairs > repairs:
                    seen["kempe"] += 1
        if admitted and rng.random() < 0.3:                 # churn
            idx = admitted.pop(rng.randrange(len(admitted)))
            for twin in (oracle, engine):
                twin.assigner.release(idx)
                twin.conflict.remove_dipath(idx)
        assert full_state(oracle) == full_state(engine)


class TestAdmitBestOracle:
    """(d): rank-then-admit == speculate-every-candidate, state included."""

    @pytest.mark.parametrize("policy", ["first_fit", "least_used",
                                        "most_used", "random"])
    def test_matches_exhaustive_oracle(self, policy):
        seen = {"none": 0, "skipped_first": 0, "kempe": 0, "defrag": 0}
        for seed in range(12):
            _oracle_sequence(seed, policy, kempe=seed % 2 == 1,
                             steps=40, seen=seen)
        # the sweep must reach every branch the ranking could get wrong
        assert seen["none"] and seen["skipped_first"] and seen["defrag"]
        assert seen["kempe"]
