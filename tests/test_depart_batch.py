"""Burst departures decide exactly what op-by-op departures decide.

Under a ``batch_policy`` the :class:`~repro.online.dispatch.Dispatcher`
hands each run of equal-time departures to ``depart_batch`` as one group
(one ``depart_batch`` journal record on a durable backend).  Each test
runs the same ``best_prefix`` trace — flash-crowd bursts whose departures
share timestamps with later bursts, plus maintenance cuts and repairs —
twice: as dispatched, and with every departure run split back into
single ops.  Decisions, ``engine_fingerprint``, every ``result.*``
counter and gauge and the ``result.holding_time`` histogram must agree,
for :func:`~repro.online.simulator.simulate_online` and for
:func:`~repro.service.serve_trace` alike; a durable run's journal, with
each ``depart_batch`` expanded into ``depart`` records and snapshots
dropped, must equal the op-by-op journal.  The remaining tests pin
what grouping does change: a periodic trigger a run crosses fires after
the whole run, and the timeline samples each run once.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.bench_service import flash_crowd_trace
from repro.generators.regions import multi_region_topology, multi_region_traffic
from repro.dipaths.dipath import Dipath
from repro.graphs.digraph import DiGraph
from repro.online import (ARRIVAL, DEPARTURE, Event, OnlineEngine,
                          simulate_online, sort_events)
from repro.online.dispatch import Dispatcher
from repro.online.events import maintenance_events
from repro.online.persistence import (
    engine_fingerprint,
    read_journal,
    recover,
)
from repro.service import serve_trace

#: Engine knobs, shared by both front ends.
KNOBS = {"shortest": dict(routing="shortest"),
         "speculative": dict(routing="k_shortest", speculative=True)}

#: simulate_online configurations: the knobs plus dispatcher triggers.
CONFIGS = {
    "shortest": KNOBS["shortest"],
    "speculative": dict(KNOBS["speculative"], defrag_on_block=True,
                        defrag_utilization=0.75),
}


def _trace():
    graph = multi_region_topology(regions=2, region_size=12,
                                  arc_probability=0.2, coupling=2, seed=5)
    pool = multi_region_traffic(graph, 96, inter_fraction=0.25, seed=6)
    # holding 3 on spacing 1: each burst's departures share a timestamp
    # with the burst three after it
    events = flash_crowd_trace(pool.pairs(), 12, 8, spacing=1.0,
                               holding=3.0)
    arcs = sorted(graph.arcs(), key=repr)
    plan = random.Random(7)
    for fault_id, start in enumerate((2.5, 6.0, 9.0)):
        events += maintenance_events(plan.sample(arcs, 2), start, 2.0,
                                     fault_id=2 * fault_id)
    return graph, sort_events(events)


@pytest.fixture
def one_by_one(monkeypatch):
    """Split every departure group back into single ops."""
    groups = Dispatcher.groups

    def split(self, ops):
        for group in groups(self, ops):
            if group[0].kind == DEPARTURE:
                yield from ((op,) for op in group)
            else:
                yield group

    def apply():
        monkeypatch.setattr(Dispatcher, "groups", split)
    return apply


@pytest.fixture
def runs(monkeypatch):
    """Sizes of the departure runs handed to ``depart_batch``."""
    sizes = []
    depart_batch = OnlineEngine.depart_batch

    def spy(self, request_ids):
        sizes.append(len(request_ids))
        return depart_batch(self, request_ids)

    monkeypatch.setattr(OnlineEngine, "depart_batch", spy)
    return sizes


def _outcome(result):
    metrics = result.metrics
    return {
        "decisions": (result.accepted, result.blocked, result.rejections),
        "fingerprint": engine_fingerprint(result.engine),
        "counters": {k: v for k, v in metrics["counters"].items()
                     if k.startswith("result.")},
        "gauges": {k: v for k, v in metrics["gauges"].items()
                   if k.startswith("result.")},
        "holding_time": metrics["histograms"]["result.holding_time"],
        "faults": (result.fibre_cuts, result.fibre_repairs,
                   result.lightpaths_stranded, result.lightpaths_restored),
    }


def _expanded(path):
    """A journal's records with snapshots dropped and each
    ``depart_batch`` expanded into per-request ``depart`` records."""
    out = []
    for record in read_journal(path):
        if record["type"] == "snapshot":
            continue
        if record["type"] == "depart_batch":
            out += [{"type": "depart", "rid": rid, "outcome": held}
                    for rid, held in zip(record["rids"], record["held"])]
        else:
            out.append(record)
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_online_burst_departures_match_op_by_op(name, runs,
                                                         one_by_one):
    graph, events = _trace()
    config = CONFIGS[name]
    grouped = simulate_online(graph, events, 4, batch_policy="best_prefix",
                              record_timeline=False, **config)
    assert runs and min(runs) >= 2
    assert grouped.fibre_cuts == 6 and grouped.lightpaths_stranded > 0
    one_by_one()
    del runs[:]
    single = simulate_online(graph, events, 4, batch_policy="best_prefix",
                             record_timeline=False, **config)
    assert runs == []
    assert _outcome(grouped) == _outcome(single)


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_serve_trace_burst_departures_match_op_by_op(name, runs,
                                                     one_by_one, tmp_path):
    graph, events = _trace()
    config = KNOBS[name]
    oracle = simulate_online(graph, events, 4, batch_policy="best_prefix",
                             record_timeline=False, **config)
    served = {}
    for name in ("grouped", "single"):
        if name == "single":
            one_by_one()
        journal = str(tmp_path / f"{name}.jsonl")
        served[name] = (serve_trace(graph, events, 4,
                                    batch_policy="best_prefix",
                                    journal_path=journal, snapshot_every=5,
                                    **config), journal)
    assert runs and min(runs) >= 2
    (grouped, grouped_path), (single, single_path) = (served["grouped"],
                                                      served["single"])
    assert _outcome(grouped) == _outcome(single)
    assert _outcome(grouped)["decisions"] == _outcome(oracle)["decisions"]
    kinds = [r["type"] for r in read_journal(grouped_path)]
    assert "depart_batch" in kinds and kinds.count("snapshot") >= 2
    assert "depart_batch" not in [r["type"]
                                  for r in read_journal(single_path)]
    assert _expanded(grouped_path) == _expanded(single_path)
    recovered = recover(grouped_path)
    recovered.close()
    assert recovered.fingerprint() == engine_fingerprint(grouped.engine)


def test_periodic_defrag_lands_after_the_departure_run(monkeypatch):
    """``defrag_every=4`` crosses its boundary at the run's first
    departure (event 4 of 6); the pass runs once the whole run has
    departed, as it does for an arrival burst."""
    calls = []
    depart, defrag = OnlineEngine.depart, OnlineEngine.defrag

    def depart_spy(self, request_id):
        calls.append(("depart", request_id))
        return depart(self, request_id)

    def defrag_spy(self, *args, **kwargs):
        calls.append(("defrag",))
        return defrag(self, *args, **kwargs)

    monkeypatch.setattr(OnlineEngine, "depart", depart_spy)
    monkeypatch.setattr(OnlineEngine, "defrag", defrag_spy)
    paths = [["a", "b"], ["b", "c"], ["c", "d"]]
    events = [Event(0.0, ARRIVAL, rid, dipath=Dipath(path))
              for rid, path in enumerate(paths)]
    events += [Event(1.0, DEPARTURE, rid) for rid in range(3)]
    result = simulate_online(DiGraph(arcs=[("a", "b"), ("b", "c"),
                                           ("c", "d")]),
                             events, 2, batch_policy="best_prefix",
                             defrag_every=4, record_timeline=False)
    assert result.accepted == [0, 1, 2] and result.defrag_passes == 1
    assert calls == [("depart", 0), ("depart", 1), ("depart", 2),
                     ("defrag",)]


def test_timeline_samples_each_departure_run_once(one_by_one):
    """Every event of a group gets the state after the whole group: the
    op-by-op run's sample at the group's last event."""
    graph, events = _trace()
    grouped = simulate_online(graph, events, 4, batch_policy="best_prefix",
                              **KNOBS["shortest"])
    one_by_one()
    single = simulate_online(graph, events, 4, batch_policy="best_prefix",
                             **KNOBS["shortest"])
    ends, start = [], 0
    for i, event in enumerate(events):
        following = events[i + 1] if i + 1 < len(events) else None
        if (following is None or event.kind not in (ARRIVAL, DEPARTURE)
                or (following.kind, following.time)
                != (event.kind, event.time)):
            ends += [i] * (i + 1 - start)
            start = i + 1
    assert grouped.timeline == [single.timeline[end] for end in ends]
    assert grouped.timeline != single.timeline
