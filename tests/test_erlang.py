"""Tests for the Erlang blocking sweeps (repro.analysis.erlang).

The fast tests pin the record schema, determinism and argument
validation on a small instance; the ``slow``-marked test (deselected by
default, see pytest.ini) replays a benchmark-sized sweep and asserts the
qualitative claims the E14 gate records: blocking grows with offered
load and adaptive routing never does worse than fixed shortest-path.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.erlang import (
    ADAPTIVE_ROUTINGS,
    erlang_sweep,
    measure_blocking_scenario,
    measure_defrag_blocking_scenario,
    measure_defrag_reclaim_scenario,
    measure_speculation_scenario,
)
from repro.generators.random_dags import random_dag
from repro.optical.traffic import hotspot_traffic


@pytest.fixture(scope="module")
def small_instance():
    graph = random_dag(14, 0.3, seed=5)
    pool = hotspot_traffic(graph, 60, num_hotspots=2, seed=5)
    return graph, pool


class TestErlangSweep:
    def test_record_schema_and_grid(self, small_instance):
        graph, pool = small_instance
        records = erlang_sweep(graph, pool, 3, [2.0, 8.0],
                               routings=("shortest", "least_loaded"),
                               num_arrivals=80, seed=1)
        assert len(records) == 4               # 2 loads x 2 routings
        for record in records:
            assert 0.0 <= record["blocking"] <= 1.0
            assert record["blocked_no_route"] + \
                record["blocked_no_wavelength"] == \
                round(record["blocking"] * record["arrivals"])
            assert record["routing"] in ("shortest", "least_loaded")

    def test_sweep_is_deterministic(self, small_instance):
        graph, pool = small_instance
        kwargs = dict(num_arrivals=60, seed=9)
        assert erlang_sweep(graph, pool, 3, [4.0], **kwargs) == \
            erlang_sweep(graph, pool, 3, [4.0], **kwargs)

    def test_rejects_bad_offered_load(self, small_instance):
        graph, pool = small_instance
        with pytest.raises(ValueError):
            erlang_sweep(graph, pool, 3, [0.0])

    def test_speculation_scenario_contract(self):
        record = measure_speculation_scenario("speculate-walks-550",
                                              repeats=1)
        assert record["num_dipaths"] >= 500
        assert record["decisions_equal"]
        assert record["mask_rebuilds"] == 0


class TestParallelSweep:
    """The ``workers`` fan-out must be invisible in the records."""

    def test_parallel_records_are_byte_identical_to_serial(self,
                                                           small_instance):
        graph, pool = small_instance
        kwargs = dict(routings=("shortest", "least_loaded"),
                      num_arrivals=60, seed=7)
        serial = erlang_sweep(graph, pool, 3, [2.0, 5.0, 9.0], workers=1,
                              **kwargs)
        parallel = erlang_sweep(graph, pool, 3, [2.0, 5.0, 9.0], workers=2,
                                **kwargs)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_default_workers_path_matches_serial(self, small_instance):
        graph, pool = small_instance
        kwargs = dict(routings=("shortest",), num_arrivals=40, seed=2)
        serial = erlang_sweep(graph, pool, 3, [3.0], workers=1, **kwargs)
        auto = erlang_sweep(graph, pool, 3, [3.0], workers=None, **kwargs)
        assert json.dumps(serial) == json.dumps(auto)


@pytest.mark.slow
class TestLongHorizonSweeps:
    def test_blocking_grows_with_load_and_adaptive_helps(self):
        graph = random_dag(30, 0.25, seed=11)
        pool = hotspot_traffic(graph, 400, num_hotspots=2, seed=11)
        records = erlang_sweep(graph, pool, 5, [20.0, 75.0, 150.0],
                               num_arrivals=600, seed=42)
        by_routing = {}
        for record in records:
            by_routing.setdefault(record["routing"], []).append(
                (record["offered_load"], record["blocking"]))
        for routing, curve in by_routing.items():
            curve.sort()
            assert curve[0][1] <= curve[-1][1], routing
        fixed = dict(by_routing["shortest"])
        for routing in ADAPTIVE_ROUTINGS:
            for load, blocking in by_routing[routing]:
                assert blocking <= fixed[load], (routing, load)

    def test_benchmark_blocking_scenarios_hold(self):
        for name in ("erlang-icf36-hotspot", "erlang-dag30-hotspot"):
            record = measure_blocking_scenario(name)
            assert record["adaptive_beats_fixed"], record

    def test_defrag_blocking_scenarios_hold(self):
        """E15a: blocking with defrag triggers never exceeds without."""
        for name in ("erlang-icf36-hotspot", "erlang-dag30-hotspot"):
            record = measure_defrag_blocking_scenario(name)
            assert record["defrag_not_worse"], record
            assert record["defrag_moves"] >= 1, record

    def test_defrag_reclaim_scenarios_hold(self):
        """E15b: passes reclaim wavelengths, never below the load bound."""
        for name in ("reclaim-icf36-hotspot", "reclaim-dag30-hotspot"):
            record = measure_defrag_reclaim_scenario(name)
            assert record["reclaims_capacity"], record
            assert record["coloring_proper_after"], record
            assert record["within_load_bound"], record
