"""Burst and what-if admission against a speculate-every-attempt oracle.

:func:`repro.online.transaction.admit_batch` and
:func:`~repro.online.transaction.admit_best` place each attempt on one
path: add the dipath, colour it (Kempe repair included) and, when it is
blocked, remove it and retract the add exactly — no child
:class:`WhatIfTransaction`.  The oracle below is the older formulation:
every attempt is admitted inside its own child transaction, committed if
it coloured and rolled back otherwise.  Two twin engines run one random
script of bursts (every batch policy), ranked candidate lists and
departures, some steps inside an open transaction that later commits or
rolls back, under every assigner policy with Kempe repair on and off.
After each step the results, the engine fingerprints, the colour index
masks and the policy RNG state must agree, and both engines must audit clean.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional, Sequence, Tuple

import pytest

from repro.dipaths.dipath import Dipath
from repro.generators.families import random_walk_family
from repro.generators.random_dags import random_dag
from repro.online import (
    BATCH_POLICIES,
    POLICIES,
    OnlineEngine,
    WhatIfTransaction,
    admit_batch,
    admit_best,
    engine_fingerprint,
)
from repro.online.routing import live_load_cost
from repro.online.transaction import AdmissionDecision, BatchResult


# ---------------------------------------------------------------------- #
# the oracle: one child transaction per attempt
# ---------------------------------------------------------------------- #
def _attempt(conflict, assigner, dipath) -> Tuple[int, Optional[int]]:
    with WhatIfTransaction(conflict, assigner) as tx:
        idx, color = tx.admit(dipath)
        if color is not None:
            tx.commit()
    return idx, color


def oracle_admit_best(conflict, assigner, candidates: Sequence[Dipath]
                      ) -> Optional[AdmissionDecision]:
    family = conflict.family

    def cost_after(pos):
        max_load, total, hops = live_load_cost(family, candidates[pos])
        return (max_load + 1, total + hops, hops)

    for pos in sorted(range(len(candidates)), key=cost_after):
        idx, color = _attempt(conflict, assigner, candidates[pos])
        if color is not None:
            return AdmissionDecision(index=idx, color=color, candidate=pos,
                                     dipath=candidates[pos])
    return None


def oracle_admit_batch(conflict, assigner, dipaths: Sequence[Dipath],
                       policy: str) -> BatchResult:
    result = BatchResult(policy=policy)
    outer = WhatIfTransaction(conflict, assigner)
    try:
        for pos, dipath in enumerate(dipaths):
            idx, color = _attempt(conflict, assigner, dipath)
            if color is not None:
                result.admitted.append((pos, idx, color))
                continue
            if policy == "all_or_nothing":
                return BatchResult(policy=policy, admitted=[],
                                   blocked=list(range(len(dipaths))),
                                   committed=False)
            if policy == "best_prefix":
                result.blocked.extend(range(pos, len(dipaths)))
                break
            result.blocked.append(pos)
        outer.commit()
        return result
    finally:
        if outer.is_open:
            outer.rollback()


# ---------------------------------------------------------------------- #
# twin engines driven by one script
# ---------------------------------------------------------------------- #
class _Twin:
    """One engine plus the admission functions it is driven with."""

    def __init__(self, graph, policy, kempe, batch, best):
        self.engine = OnlineEngine(graph, 3, policy=policy,
                                   kempe_repair=kempe, seed=7)
        self.admit_batch, self.admit_best = batch, best
        self.tx: Optional[WhatIfTransaction] = None
        self.saved_owners: dict = {}

    @property
    def parts(self):
        return self.engine.conflict, self.engine.assigner

    def open(self):
        self.tx = WhatIfTransaction(*self.parts)
        self.saved_owners = dict(self.engine.vertex_of)

    def close(self, commit):
        if commit:
            self.tx.commit()
        else:
            self.tx.rollback()
            self.engine.vertex_of.clear()
            self.engine.vertex_of.update(self.saved_owners)
        self.tx = None

    def burst(self, rids, dipaths, policy):
        result = self.admit_batch(*self.parts, dipaths, policy)
        for pos, idx, _ in result.admitted:
            self.engine.vertex_of[rids[pos]] = idx
        return (result.admitted, result.blocked, result.committed)

    def best(self, rid, candidates):
        decision = self.admit_best(*self.parts, candidates)
        if decision is not None:
            self.engine.vertex_of[rid] = decision.index
        return decision

    def depart(self, rid):
        if self.tx is None:
            return self.engine.depart(rid)
        idx = self.engine.vertex_of.pop(rid)
        self.tx.release(idx)
        self.tx.remove_dipath(idx)
        return True

    def state(self):
        assigner = self.engine.assigner
        index = assigner.color_index
        return (engine_fingerprint(self.engine), list(index._masks),
                assigner._rng.getstate(), list(assigner._journal))


def _script(pool, rng, steps, nested):
    """A random op script; ``nested`` opens and resolves transactions."""
    rids = itertools.count()
    ops = []
    open_tx = False
    for _ in range(steps):
        roll = rng.random()
        if nested and roll < 0.12:
            ops.append(("close", rng.random() < 0.5) if open_tx
                       else ("open",))
            open_tx = not open_tx
        elif roll < 0.35:
            ops.append(("depart", rng.random()))
        elif roll < 0.75:
            size = rng.randint(1, 6)
            ops.append(("burst", [next(rids) for _ in range(size)],
                        [rng.choice(pool) for _ in range(size)],
                        rng.choice(BATCH_POLICIES)))
        else:
            ops.append(("best", next(rids),
                        [rng.choice(pool) for _ in range(rng.randint(1, 4))]))
    if open_tx:
        ops.append(("close", rng.random() < 0.5))
    return ops


def _run(twin, op):
    kind = op[0]
    if kind == "open":
        return twin.open()
    if kind == "close":
        return twin.close(op[1])
    if kind == "burst":
        return twin.burst(op[1], op[2], op[3])
    if kind == "best":
        return twin.best(op[1], op[2])
    held = sorted(twin.engine.vertex_of)
    if not held:
        return None
    return twin.depart(held[int(op[1] * len(held))])


@pytest.mark.parametrize("nested", [False, True],
                         ids=["outside", "inside_tx"])
@pytest.mark.parametrize("kempe", [False, True], ids=["plain", "kempe"])
@pytest.mark.parametrize("policy", POLICIES)
def test_mask_decided_admission_matches_the_speculating_oracle(
        policy, kempe, nested):
    graph = random_dag(16, 0.3, seed=5)
    pool = list(random_walk_family(graph, 50, seed=6))
    seed = POLICIES.index(policy) * 4 + kempe * 2 + nested
    script = _script(pool, random.Random(seed), 160, nested)
    fast = _Twin(graph, policy, kempe, admit_batch, admit_best)
    slow = _Twin(graph, policy, kempe, oracle_admit_batch, oracle_admit_best)
    blocked = 0
    outcomes = []
    for step, op in enumerate(script):
        got, want = _run(fast, op), _run(slow, op)
        assert got == want, (step, op[0])
        outcomes.append((op, got))
        assert fast.state() == slow.state(), (step, op[0])
        assert fast.engine.audit() == [], step
        assert slow.engine.audit() == [], step
        if op[0] == "burst":
            blocked += len(got[1])
        elif op[0] == "best":
            blocked += got is None
    assert blocked                            # the budget did bind
    if kempe:
        assert fast.engine.assigner.kempe_repairs > 0

    def rollbacks(twin):
        return twin.engine.metrics.snapshot()["diagnostics"]["counters"][
            "colorindex.rollbacks"]

    # a blocked attempt is retracted without a rollback, Kempe repair on
    # or off: the only rollbacks left are failed all_or_nothing bursts and
    # the script's own rolled-back transactions
    outer = sum(1 for op, got in outcomes
                if (op[0] == "burst" and not got[2])
                or (op[0] == "close" and not op[1]))
    assert rollbacks(fast) == outer
    assert rollbacks(slow) > outer
