"""Bit-identity contract of the observability layer.

Instrumentation must be *observation-only*: attaching a tracer, a
profiler or a shared registry to the online engine may not change a
single decision, and the deterministic section of the metrics snapshot
must be a pure function of the decisions — identical across equivalent
code paths (traced vs untraced, profiled vs not) and
byte-identical across repeats of the same seed.  This file pins that
contract:

* a 50-seed sweep (every fifth seed with fibre cut/repair faults)
  asserting tracing on vs off leaves decisions and deterministic
  metrics byte-identical;
* :func:`~repro.online.persistence.engine_fingerprint` equality for a
  traced vs untraced engine fed the same request stream;
* byte-identical ``to_json`` registry serialization across same-seed
  repeats, with and without tracing;
* the rejection accounting regression: every blocked arrival carries
  exactly one reason (``no_route`` / ``no_wavelength`` / ``shed`` /
  ``fibre_cut``) and the ``result.blocked.*`` counters partition the
  blocked total.
"""

from __future__ import annotations

import json

import pytest

from repro.generators.random_dags import random_internal_cycle_free_dag
from repro.graphs.digraph import DiGraph
from repro.obs.profiling import SpanProfiler
from repro.obs.trace import ListSink, RingBufferSink, Tracer
from repro.online.events import (
    ARRIVAL,
    Event,
    churn_trace,
    cut_event,
    sort_events,
)
from repro.online.persistence import engine_fingerprint
from repro.online.simulator import (
    FIBRE_CUT,
    NO_ROUTE,
    NO_WAVELENGTH,
    SHED,
    OnlineEngine,
    simulate_online,
)
from repro.optical.traffic import uniform_random_traffic
from repro.dipaths.requests import Request


def _decisions(result):
    """The decision-bearing projection of an :class:`OnlineResult`."""
    return (result.accepted, result.blocked, result.rejections,
            result.wavelengths_used, result.kempe_repairs,
            result.defrag_moves, result.wavelengths_reclaimed)


def _deterministic_json(result):
    """Canonical serialization of the deterministic metrics section."""
    return json.dumps({k: v for k, v in result.metrics.items()
                       if k != "diagnostics"},
                      sort_keys=True, separators=(",", ":"))


def _workload(seed, with_faults=False):
    """A small churn workload; optionally with a fibre cut mid-trace."""
    graph = random_internal_cycle_free_dag(24, 48, seed=seed)
    pool = uniform_random_traffic(graph, 60, seed=seed)
    trace = churn_trace(pool, 40, 40, seed=seed)
    if with_faults:
        arc = sorted(graph.arcs())[seed % graph.num_arcs]
        trace = sort_events(trace + [cut_event(45.0, arc, fault_id=0)])
    return graph, trace


class TestTracingBitIdentity:
    def test_50_seed_sweep_tracing_on_vs_off(self):
        """Tracing must not perturb one decision across 50 seeded runs."""
        for seed in range(50):
            graph, trace = _workload(seed, with_faults=seed % 5 == 0)
            kwargs = dict(wavelengths=12, routing="k_shortest",
                          defrag_every=25)
            plain = simulate_online(graph, trace, **kwargs)
            tracer = Tracer(sink=RingBufferSink(capacity=1024))
            traced = simulate_online(graph, trace, tracer=tracer, **kwargs)
            assert _decisions(plain) == _decisions(traced), f"seed {seed}"
            assert _deterministic_json(plain) == \
                _deterministic_json(traced), f"seed {seed}"
            assert tracer.records()     # it did actually trace

    def test_profiler_does_not_perturb_decisions(self):
        graph, trace = _workload(7)
        plain = simulate_online(graph, trace, wavelengths=12)
        for engine in ("timer", "cprofile"):
            profiled = simulate_online(
                graph, trace, wavelengths=12,
                profile=SpanProfiler(engine=engine))
            assert _decisions(plain) == _decisions(profiled)
            assert _deterministic_json(plain) == \
                _deterministic_json(profiled)

    def test_engine_fingerprint_identical_with_tracer(self):
        graph = random_internal_cycle_free_dag(20, 40, seed=3)
        requests = uniform_random_traffic(graph, 30, seed=3).pairs()
        # same graph object for both: admissions never mutate topology,
        # and graph.copy() does not guarantee identical adjacency order
        # (set-backed), which would shift routing tie-breaks
        plain = OnlineEngine(graph, wavelengths=8)
        traced = OnlineEngine(graph, wavelengths=8,
                              tracer=Tracer(sink=ListSink()))
        for rid, (source, target) in enumerate(requests):
            assert plain.admit(rid, Request(source, target)) == \
                traced.admit(rid, Request(source, target))
        assert engine_fingerprint(plain) == engine_fingerprint(traced)


class TestSnapshotByteIdentity:
    def test_same_seed_repeats_serialize_identically(self):
        graph, trace = _workload(11)
        kwargs = dict(wavelengths=12, defrag_every=25)
        runs = [simulate_online(graph, trace, **kwargs) for _ in range(2)]
        traced = simulate_online(
            graph, trace, tracer=Tracer(sink=RingBufferSink()), **kwargs)
        # full snapshots (diagnostics included) are byte-identical
        # across repeats of one code path ...
        first, second = (json.dumps(r.metrics, sort_keys=True,
                                    separators=(",", ":")) for r in runs)
        assert first == second
        # ... and the deterministic section also survives turning
        # tracing on (the diagnostics may not care, but check anyway:
        # tracing registers no metrics at all)
        assert first == json.dumps(traced.metrics, sort_keys=True,
                                   separators=(",", ":"))


# --------------------------------------------------------------------------- #
# rejection-reason accounting
# --------------------------------------------------------------------------- #
def _four_reason_workload():
    """One blocked arrival per rejection reason, plus one survivor.

    Topology: a path ``0 -> 1 -> 2``, a disjoint arc ``3 -> 4`` and an
    isolated vertex ``5``.  With one wavelength, no restoration and a
    same-timestamp queue depth of one:

    * rid 0 ``(0, 2)`` admitted and held to the end (the survivor);
    * rid 1 ``(0, 2)`` — route exists, spectrum full -> ``no_wavelength``;
    * rid 2 ``(3, 4)`` admitted, rid 3 ``(3, 4)`` same timestamp ->
      ``shed`` by the queue-depth guard;
    * rid 4 ``(0, 5)`` — vertex 5 unreachable -> ``no_route``;
    * a cut of ``(3, 4)`` strands rid 2 with restoration off ->
      ``fibre_cut``.
    """
    graph = DiGraph()
    for v in range(6):
        graph.add_vertex(v)
    graph.add_arcs([(0, 1), (1, 2), (3, 4)])
    events = sort_events([
        Event(0.0, ARRIVAL, 0, request=Request(0, 2)),
        Event(1.0, ARRIVAL, 1, request=Request(0, 2)),
        Event(2.0, ARRIVAL, 2, request=Request(3, 4)),
        Event(2.0, ARRIVAL, 3, request=Request(3, 4)),
        Event(3.0, ARRIVAL, 4, request=Request(0, 5)),
        cut_event(4.0, (3, 4), fault_id=0),
    ])
    return graph, events


class TestRejectionAccounting:
    def _result(self, **kwargs):
        graph, events = _four_reason_workload()
        return simulate_online(graph, events, wavelengths=1,
                               shed_queue_depth=1, restoration=False,
                               **kwargs)

    def test_every_reason_counted_exactly_once(self):
        result = self._result()
        assert result.accepted == [0]
        assert result.rejections == {1: NO_WAVELENGTH, 3: SHED,
                                     4: NO_ROUTE, 2: FIBRE_CUT}
        for reason in (NO_ROUTE, NO_WAVELENGTH, SHED, FIBRE_CUT):
            assert result.blocked_count(reason) == 1, reason
            counter = result.metrics["counters"][f"result.blocked.{reason}"]
            assert counter == 1, reason
        # the per-reason counts partition the blocked total: nothing is
        # double-counted, nothing is dropped
        assert sum(result.blocked_count(r) for r in
                   (NO_ROUTE, NO_WAVELENGTH, SHED, FIBRE_CUT)) == \
            result.blocked_count() == len(result.blocked) == 4
        assert result.blocking_rate == pytest.approx(4 / 5)

    def test_reason_lists_match_registry_counts(self):
        result = self._result()
        assert result.blocked_no_route == [4]
        assert result.blocked_no_wavelength == [1]
        assert result.blocked_shed == [3]
        assert result.blocked_fibre_cut == [2]
        for reason, rids in ((NO_ROUTE, [4]), (NO_WAVELENGTH, [1]),
                             (SHED, [3]), (FIBRE_CUT, [2])):
            assert result.blocked_count(reason) == len(rids)

    def test_accounting_survives_tracing(self):
        plain = self._result()
        tracer = Tracer(sink=ListSink())
        traced = self._result(tracer=tracer)
        assert _decisions(plain) == _decisions(traced)
        assert _deterministic_json(plain) == _deterministic_json(traced)
        outcomes = sorted(
            r["tags"]["outcome"] for r in tracer.records()
            if r["name"] == "admit" and "outcome" in r["tags"])
        # the trace tells the same story: one admit span per
        # non-shed arrival (shed happens before routing), with the
        # spectrum and routing rejections tagged by reason
        assert outcomes.count(NO_WAVELENGTH) == 1
        assert outcomes.count(NO_ROUTE) == 1
        # an admitted span carries the decision and nothing read from
        # the conflict components
        admitted = [r["tags"] for r in tracer.records()
                    if r["name"] == "admit"
                    and r["tags"].get("outcome") == "admitted"]
        assert admitted
        assert all(set(tags) == {"rid", "outcome", "color", "arcs"}
                   for tags in admitted)
