"""Units for the observability layer: registry, tracer, analyzer, profiler.

Covers :mod:`repro.obs.registry` (counters/gauges/histograms, the
deterministic/diagnostic snapshot split, byte-stable serialization, the
``Instrumented`` mixin), :mod:`repro.obs.trace` (span nesting, the flat
``emit_span`` fast path, the sinks, JSONL round trips compatible with the
decision journal), :mod:`repro.obs.analyze` (phase stats, link-stream
densities, waterfalls) and :mod:`repro.obs.profiling` (both engines and
the module-level default hook).  The engine-level bit-identity contract
lives in ``tests/test_obs_determinism.py``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.analyze import TraceAnalyzer, percentile
from repro.obs.profiling import (
    SpanProfiler,
    clear_default_profile,
    get_default_profile,
    set_default_profile,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrumented,
    MetricsRegistry,
)
from repro.obs.trace import (
    JsonlSink,
    ListSink,
    NullSink,
    RingBufferSink,
    Tracer,
    dumps_record,
    read_jsonl,
)
from repro.online.persistence import _frame


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_and_gauge_basics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = Gauge("g")
        gauge.set(7)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 6

    def test_histogram_buckets_and_summary(self):
        hist = Histogram("h", (1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 12.0):
            hist.observe(value)
        data = hist.as_dict()
        # bisect_right: a value equal to an edge lands in the bucket the
        # edge opens (1.0 -> second bucket), 12.0 overflows
        assert data["counts"] == [1, 2, 0, 1]
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(16.5)
        assert data["min"] == 0.5 and data["max"] == 12.0

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", (5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))

    def test_registry_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.g") is registry.gauge("a.g")
        assert registry.histogram("a.h", (1.0,)) is \
            registry.histogram("a.h", (1.0,))

    def test_registry_rejects_histogram_edge_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("a.h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("a.h", (1.0, 3.0))

    def test_snapshot_splits_diagnostic_metrics(self):
        registry = MetricsRegistry()
        registry.counter("engine.admitted").inc(3)
        registry.counter("shards.merges", diagnostic=True).inc(2)
        registry.gauge("shards.count", diagnostic=True).set(4)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"engine.admitted": 3}
        assert snapshot["diagnostics"]["counters"] == {"shards.merges": 2}
        assert snapshot["diagnostics"]["gauges"] == {"shards.count": 4}
        # the deterministic view drops the diagnostics section entirely
        assert "diagnostics" not in registry.snapshot(diagnostics=False)

    def test_to_json_is_byte_stable(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name).inc()
            return registry
        a = build(["x.one", "x.two", "x.three"])
        b = build(["x.three", "x.one", "x.two"])
        assert a.to_json() == b.to_json()
        # canonical form: sorted keys, compact separators
        assert json.loads(a.to_json())["counters"] == \
            {"x.one": 1, "x.three": 1, "x.two": 1}
        assert ": " not in a.to_json()

    def test_value_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b.c").inc(2)
        registry.gauge("a.g").set(1.5)
        registry.histogram("z.h", (1.0,)).observe(0.5)
        assert registry.names() == ["a.g", "b.c", "z.h"]
        assert registry.value("b.c") == 2
        assert registry.value("a.g") == 1.5
        assert registry.value("z.h")["count"] == 1
        with pytest.raises(KeyError):
            registry.value("missing")


class TestInstrumented:
    class Component(Instrumented):
        def __init__(self, registry=None):
            self._obs_init("comp", registry)
            self.hits = self._obs_counter("hits")

    def test_private_registry_when_none_shared(self):
        component = self.Component()
        component.hits.inc()
        assert component.metrics.value("comp.hits") == 1

    def test_shared_registry_prefixes_names(self):
        registry = MetricsRegistry()
        first = self.Component(registry)
        second = self.Component(registry)
        first.hits.inc()
        second.hits.inc()
        assert first.metrics is registry and second.metrics is registry
        assert registry.value("comp.hits") == 2


# --------------------------------------------------------------------------- #
# tracer and sinks
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_span_nesting_records_parents(self):
        tracer = Tracer(sink=ListSink())
        tracer.advance(1.0)
        with tracer.span("outer", rid=1):
            tracer.advance(2.0)
            with tracer.span("inner"):
                tracer.advance(3.0)
        inner, outer = tracer.records()      # inner exits first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert (outer["t0"], outer["t1"]) == (1.0, 3.0)
        assert (inner["t0"], inner["t1"]) == (2.0, 3.0)
        assert outer["tags"] == {"rid": 1}

    def test_emit_span_matches_context_manager_record(self):
        via_cm = Tracer(sink=ListSink())
        via_cm.advance(5.0)
        with via_cm.span("admit", rid=3):
            pass
        flat = Tracer(sink=ListSink())
        flat.advance(5.0)
        flat.emit_span("admit", 5.0, {"rid": 3})
        assert via_cm.records() == flat.records()

    def test_emit_span_parents_under_open_span(self):
        tracer = Tracer(sink=ListSink())
        with tracer.span("batch"):
            tracer.emit_span("admit", 0.0, {"rid": 1})
        admit, batch = tracer.records()
        assert admit["parent"] == batch["id"]

    def test_events_are_points_in_time(self):
        tracer = Tracer(sink=ListSink())
        tracer.advance(4.5)
        tracer.event("shed", rid=9)
        (record,) = tracer.records()
        assert record["kind"] == "event"
        assert record["t"] == 4.5
        assert record["tags"] == {"rid": 9}

    def test_wall_clock_opt_in(self):
        tracer = Tracer(sink=ListSink(), wall_clock=True)
        with tracer.span("admit"):
            pass
        (record,) = tracer.records()
        assert record["wall"] >= 0.0
        plain = Tracer(sink=ListSink())
        with plain.span("admit"):
            pass
        assert "wall" not in plain.records()[0]

    def test_span_error_path_tags_exception(self):
        tracer = Tracer(sink=ListSink())
        with pytest.raises(RuntimeError):
            with tracer.span("admit"):
                raise RuntimeError("boom")
        (record,) = tracer.records()
        assert record["tags"]["error"] == "RuntimeError"
        assert not tracer._stack          # stack resynchronised

    def test_ring_buffer_sink_bounds_and_counts_drops(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer(sink=sink)
        for i in range(5):
            tracer.emit_span("s", 0.0, {"i": i})
        records = sink.records()
        assert len(records) == 3
        assert [r["tags"]["i"] for r in records] == [2, 3, 4]
        assert sink.dropped == 2
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_null_sink_discards(self):
        tracer = Tracer(sink=NullSink())
        with tracer.span("s"):
            pass
        assert tracer.records() == []

    def test_jsonl_round_trip_skips_journal_records(self):
        buffer = io.StringIO()
        tracer = Tracer(sink=JsonlSink(buffer))
        tracer.advance(1.0)
        with tracer.span("admit", rid=1):
            tracer.event("mark")
        # interleave a decision-journal line (``type``, no ``kind``) the
        # way a shared JSONL file would contain it
        lines = buffer.getvalue().splitlines()
        lines.insert(1, json.dumps({"type": "admit", "rid": 1}))
        # and a CRC-framed (v2) journal line
        lines.insert(2, _frame('{"outcome":true,"rid":1,"type":"depart"}')
                     .decode().rstrip("\n"))
        records = read_jsonl(lines)
        assert [r["kind"] for r in records] == ["event", "span"]
        assert records[1]["tags"] == {"rid": 1}

    @pytest.mark.parametrize("line", ["not json", "f4ac408 {}",
                                      "F4AC4082 {}", '{"kind": "span"'])
    def test_jsonl_malformed_line_raises(self, line):
        """Only blank lines and v2 journal frames are skipped; any other
        line that is not JSON raises."""
        with pytest.raises(ValueError):
            read_jsonl(['{"kind":"event","t":0}', line])

    def test_dumps_record_is_canonical(self):
        line = dumps_record({"b": 1, "a": {"y": 2, "x": 3}})
        assert line == '{"a":{"x":3,"y":2},"b":1}'

    def test_jsonl_sink_close_flushes_owned_file(self, tmp_path):
        """A path-owned sink flushes buffered records and closes its fd."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"kind": "event", "n": 1})
        sink.close()
        assert sink.closed
        assert json.loads(path.read_text()) == {"kind": "event", "n": 1}
        sink.close()                    # idempotent: no double-close crash
        with pytest.raises(ValueError):
            sink.emit({"kind": "event", "n": 2})   # fd really is closed

    def test_jsonl_sink_close_leaves_borrowed_handle_open(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit({"kind": "event", "n": 1})
        sink.flush()
        sink.close()
        assert sink.closed and not buffer.closed   # caller owns the handle
        assert buffer.getvalue().count("\n") == 1

    def test_jsonl_sink_context_manager(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.emit({"kind": "event", "n": 1})
        assert sink.closed

    def test_tracer_close_and_context_manager(self, tmp_path):
        """Tracer.close() flushes a file sink; in-memory sinks are no-ops."""
        path = tmp_path / "trace.jsonl"
        with Tracer(sink=JsonlSink(str(path))) as tracer:
            with tracer.span("admit", rid=1):
                pass
        assert tracer.sink.closed
        assert json.loads(path.read_text())["name"] == "admit"
        # sinks without close() (ring/list/null) are untouched
        ring = Tracer(sink=RingBufferSink(capacity=4))
        with ring.span("s"):
            pass
        ring.close()
        assert len(ring.records()) == 1


# --------------------------------------------------------------------------- #
# trace analysis
# --------------------------------------------------------------------------- #
def _span(sid, name, t0, t1, parent=None, **tags):
    return {"kind": "span", "id": sid, "parent": parent, "name": name,
            "t0": t0, "t1": t1, "tags": tags}


class TestTraceAnalyzer:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 0) == 1.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_phase_stats_event_time_and_wall(self):
        records = [
            _span(0, "admit", 0.0, 1.0),
            _span(1, "admit", 1.0, 4.0),
            _span(2, "defrag", 2.0, 2.5),
        ]
        stats = TraceAnalyzer(records).phase_stats()
        assert stats["admit"]["count"] == 2
        assert stats["admit"]["p50"] == 1.0
        assert stats["admit"]["p99"] == 3.0
        assert stats["defrag"]["mean"] == pytest.approx(0.5)
        # wall-clock wins when the trace recorded it
        walled = [dict(_span(0, "admit", 0.0, 9.0), wall=0.25)]
        assert TraceAnalyzer(walled).phase_stats()["admit"]["p50"] == 0.25

    def _admission_trace(self):
        # rid 1 on arcs (0, 1) over [0, 10]; rid 2 on arc (1,) over
        # [2, 6]; rid 3 admitted at 8, never departs (open at horizon 10)
        return [
            _span(0, "admit", 0.0, 0.0, rid=1, outcome="admitted",
                  arcs=[0, 1]),
            _span(1, "admit", 1.0, 1.0, rid=9, outcome="no_wavelength"),
            _span(2, "admit", 2.0, 2.0, rid=2, outcome="admitted",
                  arcs=[1]),
            _span(3, "depart", 6.0, 6.0, rid=2),
            _span(4, "admit", 8.0, 8.0, rid=3, outcome="admitted",
                  arcs=[0]),
            _span(5, "depart", 10.0, 10.0, rid=1),
        ]

    def test_lightpath_intervals_close_open_paths_at_horizon(self):
        intervals = TraceAnalyzer(self._admission_trace()) \
            .lightpath_intervals()
        assert intervals == [
            (0.0, 10.0, 1, (0, 1)),
            (2.0, 6.0, 2, (1,)),
            (8.0, 10.0, 3, (0,)),
        ]

    def test_fibre_density_occupancy_and_conflict(self):
        analyzer = TraceAnalyzer(self._admission_trace())
        occupancy = analyzer.fibre_occupancy(window=5.0)
        # arc 1: rid 1 for all 10s plus rid 2 over [2, 6]
        assert [w["density"] for w in occupancy[1]] == \
            pytest.approx([1.6, 1.2])
        conflict = analyzer.conflict_density(window=5.0)
        # conflicting pairs on arc 1 exist only while both are up
        assert [w["density"] for w in conflict[1]] == \
            pytest.approx([0.6, 0.2])
        hottest = analyzer.hottest_fibres(window=5.0, mode="occupancy",
                                          top=1)
        assert hottest[0][0] == 1
        with pytest.raises(ValueError):
            analyzer.fibre_density(0.0)
        with pytest.raises(ValueError):
            analyzer.fibre_density(1.0, mode="bogus")

    def test_arc_labels(self):
        analyzer = TraceAnalyzer([], arc_names={0: "0->1"})
        assert analyzer.arc_label(0) == "0->1"
        assert analyzer.arc_label(7) == "arc7"

    def test_waterfall_renders_span_tree(self):
        records = [
            _span(0, "restore", 0.0, 4.0, pending=2),
            _span(1, "admit", 1.0, 2.0, parent=0, rid=5,
                  outcome="admitted"),
            _span(2, "admit", 6.0, 7.0, rid=6, outcome="admitted"),
        ]
        text = TraceAnalyzer(records).waterfall(width=20)
        lines = text.splitlines()
        assert "restore" in lines[1]
        assert lines[2].startswith("  admit")      # indented child
        assert "rid=5" in lines[2]
        filtered = TraceAnalyzer(records).waterfall(names=["restore"])
        assert "rid=6" not in filtered and "rid=5" in filtered
        assert TraceAnalyzer([]).waterfall() == "(no spans)"

    def test_from_jsonl_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlSink(str(path)))
        with tracer.span("admit", rid=1, outcome="admitted", arcs=[0]):
            pass
        tracer.sink.close()
        analyzer = TraceAnalyzer.from_jsonl(str(path))
        assert analyzer.phase_stats()["admit"]["count"] == 1


# --------------------------------------------------------------------------- #
# profiling hooks
# --------------------------------------------------------------------------- #
class TestSpanProfiler:
    def test_timer_engine_counts_calls(self):
        profiler = SpanProfiler(engine="timer")
        tracer = Tracer(sink=NullSink(), profiler=profiler)
        for _ in range(3):
            with tracer.span("admit"):
                pass
        with tracer.span("defrag"):
            pass
        stats = profiler.stats()
        assert stats["admit"]["calls"] == 3
        assert stats["defrag"]["calls"] == 1
        assert profiler.categories() == ["admit", "defrag"]
        assert "admit" in profiler.report()

    def test_cprofile_engine_nests_exclusively(self):
        profiler = SpanProfiler(engine="cprofile")
        tracer = Tracer(sink=NullSink(), profiler=profiler)
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(100))
        stats = profiler.stats()
        assert stats["outer"]["calls"] == 1
        assert stats["inner"]["calls"] == 1
        assert "--- span 'inner'" in profiler.report(top=3)

    def test_unbalanced_exit_resynchronises(self):
        profiler = SpanProfiler(engine="timer")
        profiler.enter("a")
        profiler.enter("b")
        profiler.exit("a")               # b's exit was lost
        assert profiler._stack == []
        profiler.exit("never-entered")   # ignored, no crash
        assert profiler.stats()["b"]["calls"] == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SpanProfiler(engine="perf")

    def test_default_profile_hook(self):
        assert get_default_profile() is None
        profiler = SpanProfiler()
        set_default_profile(profiler)
        try:
            assert get_default_profile() is profiler
        finally:
            clear_default_profile()
        assert get_default_profile() is None
