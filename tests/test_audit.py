"""The runtime audit layer: ``audit() -> list[str]`` (CONTRACTS.md).

Every redundant structure the online engine keeps — shard tracker,
per-fibre colour index, assigner usage counters, request map, conflict
adjacency — can be cross-checked on demand.  These tests corrupt each
one deliberately and assert the audit names it, then run full audited
simulations (including fault injection) and assert they stay silent.
"""

from __future__ import annotations

import pytest

from repro.dipaths.requests import Request
from repro.exceptions import AuditError
from repro.generators import (
    random_internal_cycle_free_dag,
    random_request_family,
)
from repro.graphs.digraph import DiGraph
from repro.online.events import (
    ARRIVAL,
    DEPARTURE,
    Event,
    cut_event,
    poisson_trace,
    repair_event,
    sort_events,
)
from repro.online.simulator import OnlineEngine, simulate_online


def diamond() -> DiGraph:
    graph = DiGraph()
    for v in range(4):
        graph.add_vertex(v)
    graph.add_arcs([(0, 1), (1, 3), (0, 2), (2, 3)])
    return graph


def loaded_engine(**kwargs) -> OnlineEngine:
    """A diamond engine carrying two overlapping lightpaths."""
    engine = OnlineEngine(diamond(), wavelengths=4, routing="k_shortest",
                          k_candidates=4, **kwargs)
    assert engine.admit(0, request=Request(0, 3)) is None
    assert engine.admit(1, request=Request(0, 3)) is None
    assert engine.admit(2, request=Request(0, 3)) is None
    engine.depart(1)
    return engine


# --------------------------------------------------------------------------- #
# clean engines audit clean
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("speculative", [False, True])
def test_engine_audit_clean_after_churn(speculative):
    # speculation admits through what-if transactions whose rollbacks
    # unwind the colour index journal
    engine = loaded_engine(speculative=speculative)
    assert engine.audit() == []


def test_component_audits_clean_on_live_engine():
    engine = loaded_engine()
    assert engine.conflict.audit() == []
    assert engine.assigner.color_index.audit() == []


# --------------------------------------------------------------------------- #
# corrupted components are named
# --------------------------------------------------------------------------- #
def test_corrupted_shard_tracker_is_detected():
    engine = loaded_engine()
    shard = engine.conflict.shard_of_member(engine.vertex_of[0])
    shard.member_mask = 0                       # zombie shard
    problems = engine.conflict.audit()
    assert problems and any("member_mask" in p for p in problems)
    assert any(p.startswith("tracker:") for p in engine.audit())


def _coloured_arc(index) -> int:
    return next(aid for aid, mask in enumerate(index._masks) if mask)


def test_corrupted_color_index_mask_is_detected():
    """A mask bit the colouring does not justify is named."""
    engine = loaded_engine()
    index = engine.assigner.color_index
    aid = _coloured_arc(index)
    index._masks[aid] ^= 1 << 3                 # an in-budget unused colour
    problems = [p for p in engine.audit() if p.startswith("colorindex:")]
    assert problems and all(f"arc {aid} mask" in p and "disagrees" in p
                            for p in problems)


def test_corrupted_color_index_missing_bit_is_detected():
    """A colour the colouring puts on a fibre but its mask lacks is named."""
    engine = loaded_engine()
    index = engine.assigner.color_index
    aid = _coloured_arc(index)
    index._masks[aid] &= index._masks[aid] - 1  # clear its lowest colour
    problems = [p for p in engine.audit() if p.startswith("colorindex:")]
    assert problems and all(f"arc {aid} mask" in p and "disagrees" in p
                            for p in problems)


def test_colour_on_an_uninterned_arc_is_detected():
    engine = loaded_engine()
    index = engine.assigner.color_index
    index._masks.extend(
        [0] * (engine.family.num_arc_ids - len(index._masks)) + [1])
    assert any("no longer interned" in p for p in index.audit())
    assert any(p.startswith("colorindex:") for p in engine.audit())


def _drop_one_arc_member(engine):
    family = engine.family
    aid = next(a for a in range(family.num_arc_ids)
               if family.members_on_arc(family.arc_of_id(a)))
    members = family._arc_members[aid]
    family._arc_members[aid] = members & (members - 1)


def _drop_one_member_arc_id(engine):
    idx = engine.vertex_of[0]
    engine.family._path_arc_ids[idx] = engine.family._path_arc_ids[idx][1:]


@pytest.mark.parametrize("corrupt", [_drop_one_arc_member,
                                     _drop_one_member_arc_id],
                         ids=["arc_members", "member_arc_ids"])
def test_corrupted_family_tables_are_detected(corrupt):
    """The audit derives the expected relation from the raw routes, not
    from the family tables the adjacency itself is derived from, so a
    corrupted table cannot vouch for itself."""
    engine = loaded_engine()
    corrupt(engine)
    problems = engine.audit()
    assert any(p.startswith("family:") for p in problems), problems


def test_corrupted_assigner_usage_is_detected():
    engine = loaded_engine()
    engine.assigner._usage[0] += 1
    problems = engine.audit()
    assert problems and any("usage" in p for p in problems)


def test_corrupted_request_map_is_detected():
    engine = loaded_engine()
    engine.vertex_of[99] = engine.vertex_of[0]  # two requests, one member
    problems = engine.audit()
    assert problems and any("request" in p or "member" in p
                            for p in problems)


def test_improper_recolouring_is_detected():
    engine = loaded_engine()
    first, second = engine.vertex_of[0], engine.vertex_of[2]
    engine.assigner._color[second] = engine.assigner._color[first]
    # keep the usage counters self-consistent so only properness trips
    usage = engine.assigner._usage
    usage[engine.assigner._color[first]] += 1
    for color in range(len(usage)):
        if usage[color] and color != engine.assigner._color[first]:
            usage[color] -= 1
            break
    assert engine.audit() != []


# --------------------------------------------------------------------------- #
# simulate_online(audit_every=...)
# --------------------------------------------------------------------------- #
def test_audit_every_validates_its_argument():
    with pytest.raises(ValueError):
        simulate_online(diamond(), [], wavelengths=2, audit_every=0)


def test_audit_every_raises_audit_error_on_violation(monkeypatch):
    monkeypatch.setattr(OnlineEngine, "audit", lambda self: ["boom"])
    events = [Event(0.0, ARRIVAL, 0, request=Request(0, 3))]
    with pytest.raises(AuditError) as excinfo:
        simulate_online(diamond(), events, wavelengths=4,
                        routing="k_shortest", audit_every=1)
    assert excinfo.value.problems == ["boom"]


def test_audited_fault_injection_run_is_clean():
    graph = diamond()
    events = sort_events([
        Event(0.0, ARRIVAL, 0, request=Request(0, 3)),
        Event(0.5, ARRIVAL, 1, request=Request(0, 3)),
        cut_event(1.0, (0, 1), fault_id=100),
        Event(1.5, ARRIVAL, 2, request=Request(0, 3)),
        repair_event(2.0, (0, 1), fault_id=101),
        Event(2.5, ARRIVAL, 3, request=Request(0, 3)),
        Event(3.0, DEPARTURE, 0),
        Event(3.5, DEPARTURE, 2),
    ])
    # audit after every event, with defrag on top
    result = simulate_online(graph, events, wavelengths=4,
                             routing="k_shortest", defrag_every=3,
                             audit_every=1)
    assert result.fibre_cuts == 1


def test_audit_every_matches_unaudited_decisions():
    graph = random_internal_cycle_free_dag(24, 36, seed=3)
    trace = poisson_trace(random_request_family(graph, 18, seed=3), 90,
                          arrival_rate=3.0, mean_holding=4.0, seed=3)
    plain = simulate_online(graph, trace, 8)
    audited = simulate_online(graph, trace, 8, audit_every=7)
    assert audited.accepted == plain.accepted
    assert audited.blocked == plain.blocked
    assert audited.wavelengths_used == plain.wavelengths_used


# --------------------------------------------------------------------------- #
# 50-seed sweep, faults included (the acceptance criterion)
# --------------------------------------------------------------------------- #
def test_fifty_seed_audited_sweep_including_faults():
    for seed in range(50):
        graph = random_internal_cycle_free_dag(20, 30, seed=seed)
        events = list(poisson_trace(
            random_request_family(graph, 12, seed=seed), 40,
            arrival_rate=2.5, mean_holding=3.0, seed=seed))
        if seed % 2:                            # fault scenario on odd seeds
            arc = next(iter(graph.arcs()))
            horizon = max(e.time for e in events)
            events = sort_events(events + [
                cut_event(horizon / 3, arc, fault_id=1000),
                repair_event(2 * horizon / 3, arc, fault_id=1001),
            ])
        simulate_online(graph, events, 6,
                        defrag_every=None if seed % 5 else 25,
                        audit_every=10)
