"""The masks-only colour index against a per-(arc, colour) count oracle.

:class:`~repro.online.sharding.ArcColorIndex` keeps one colour mask per
fibre and flips ``(1 << old) ^ (1 << new)`` into it on every colour
change, so each bit is the parity of the fibre's users of that colour.
That equals presence only while the colouring is proper.  The oracle
here is the older formulation: a per-(arc, colour) user count fed by
every :meth:`ArcColorIndex.record` call, Kempe chain members and
rollback replays included.  One random script per assigner policy, with
Kempe repair on and off, drives admissions, departures, nested what-if
transactions that commit or roll back, defrag passes and fibre cuts with
restoration and repair.  After every op the masks must equal the
oracle's present colours, no fibre may carry a colour twice, and the
engine must audit clean.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.dipaths.family import DipathFamily
from repro.dipaths.requests import Request
from repro.generators.random_dags import random_dag
from repro.graphs.traversal import k_shortest_dipaths
from repro.online import POLICIES, OnlineEngine, WhatIfTransaction
from repro.online.faults import FaultInjector
from repro.online.sharding import ArcColorIndex
from repro.optical.traffic import uniform_random_traffic


class _CountOracle:
    """Per-(arc, colour) user counts of every recorded colour change."""

    def __init__(self) -> None:
        self.counts: Dict[ArcColorIndex, Dict[int, Dict[int, int]]] = {}

    def record(self, index, arcs, old, new) -> None:
        table = self.counts.setdefault(index, {})
        for aid in arcs:
            per_color = table.setdefault(aid, {})
            if old is not None:
                per_color[old] -= 1
                assert per_color[old] >= 0, f"arc {aid} colour {old} < 0"
                if not per_color[old]:
                    del per_color[old]
            if new is not None:
                per_color[new] = per_color.get(new, 0) + 1

    def check(self, engine: OnlineEngine) -> None:
        index = engine.assigner.color_index
        table = self.counts.get(index, {})
        present = {aid: sum(1 << c for c in per_color)
                   for aid, per_color in table.items() if per_color}
        masks = {aid: mask for aid, mask in enumerate(index._masks) if mask}
        assert masks == present
        crowded = {aid: per_color for aid, per_color in table.items()
                   if any(users > 1 for users in per_color.values())}
        assert not crowded, f"a fibre carries a colour twice: {crowded}"
        assert engine.audit() == []


@pytest.fixture
def oracle(monkeypatch) -> _CountOracle:
    """A count oracle fed by every :meth:`ArcColorIndex.record` call."""
    oracle = _CountOracle()
    record = ArcColorIndex.record

    def counted(self, arcs, old, new, undo=False):
        oracle.record(self, arcs, old, new)
        record(self, arcs, old, new, undo)

    monkeypatch.setattr(ArcColorIndex, "record", counted)
    return oracle


class _Harness:
    """One engine, its fault injector and a stack of open transactions."""

    def __init__(self, graph, policy, kempe, seed):
        self.engine = OnlineEngine(graph, 3, routing="k_shortest",
                                   k_candidates=3, policy=policy,
                                   kempe_repair=kempe, seed=seed)
        self.injector = FaultInjector(self.engine)
        self.stack: List[tuple] = []         # (transaction, saved owners)
        self.rid = 0
        self.restored = 0

    def admit(self, request: Request, routes) -> None:
        self.rid += 1
        if not self.stack:
            self.engine.admit(self.rid, request=request)
            return
        tx = self.stack[-1][0]
        idx, color = tx.admit(routes[0])
        if color is None:
            tx.remove_dipath(idx)
        else:
            self.engine.vertex_of[self.rid] = idx

    def depart(self, pick: float) -> None:
        held = sorted(self.engine.vertex_of)
        if not held:
            return
        rid = held[int(pick * len(held))]
        if not self.stack:
            self.engine.depart(rid)
            return
        tx = self.stack[-1][0]
        idx = self.engine.vertex_of.pop(rid)
        tx.release(idx)
        tx.remove_dipath(idx)

    def open(self) -> None:
        parts = self.engine.conflict, self.engine.assigner
        self.stack.append((WhatIfTransaction(*parts),
                           dict(self.engine.vertex_of)))

    def close(self, commit: bool) -> None:
        tx, owners = self.stack.pop()
        if commit:
            tx.commit()
            return
        tx.rollback()
        self.engine.vertex_of.clear()
        self.engine.vertex_of.update(owners)

    def fault(self, rng: random.Random) -> None:
        cut = self.injector.cut_arcs()
        if cut and rng.random() < 0.5:
            self.injector.repair(rng.choice(cut))
            return
        loaded = [arc for arc in self.engine.graph.arcs()
                  if self.engine.family.load_of_arc(arc)]
        if loaded:
            report = self.injector.cut(rng.choice(sorted(loaded)))
            self.restored += len(report.restored)


def _drive(oracle, policy, kempe, seed, steps=220) -> _Harness:
    graph = random_dag(16, 0.4, seed=seed)
    pool = [request for request in uniform_random_traffic(graph, 30,
                                                          seed=seed)]
    routes = {request: k_shortest_dipaths(graph, request.source,
                                          request.target, 1)
              for request in pool}
    rng = random.Random(seed)
    harness = _Harness(graph, policy, kempe, seed)
    oracle.check(harness.engine)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.10:
            if len(harness.stack) < 3 and (not harness.stack
                                          or rng.random() < 0.6):
                harness.open()
            else:
                harness.close(rng.random() < 0.5)
        elif roll < 0.35:
            harness.depart(rng.random())
        elif roll < 0.42 and not harness.stack:
            harness.engine.defrag()
        elif roll < 0.48 and not harness.stack:
            harness.fault(rng)
        else:
            request = rng.choice(pool)
            harness.admit(request, routes[request])
        oracle.check(harness.engine)
    while harness.stack:
        harness.close(rng.random() < 0.5)
        oracle.check(harness.engine)
    return harness


@pytest.mark.parametrize("kempe", [False, True], ids=["plain", "kempe"])
@pytest.mark.parametrize("policy", POLICIES)
def test_xor_index_matches_the_count_oracle(oracle, policy, kempe):
    repairs = moves = restored = 0
    for seed in (3, 5, 6):
        harness = _drive(oracle, policy, kempe, seed)
        repairs += harness.engine.assigner.kempe_repairs
        moves += harness.engine.defrag_moves
        restored += harness.restored
    # the script must reach what it claims to cover
    assert restored > 0
    assert moves > 0
    assert (repairs > 0) == kempe


def test_record_grows_the_table_mid_route():
    """A route whose later arcs were interned since the table last grew
    flips every arc exactly once."""
    family = DipathFamily()
    family.add(["a", "b", "c"])                 # arc ids 0, 1
    index = ArcColorIndex(family)
    index.record((1,), None, 2)
    index.record((0, 1, 3, 2), None, 0)
    assert index._masks == [0b001, 0b101, 0b001, 0b001]
    index.record((0, 1, 3, 2), 0, None)
    index.record((1,), 2, None)
    assert index._masks == [0, 0, 0, 0]
