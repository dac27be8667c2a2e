"""Unit tests for the telemetry layer (repro.obs)."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs import (
    EV_FETCH,
    EV_RETIRE,
    EventTrace,
    MetricsRegistry,
    NOOP_SPAN,
    SpanRecorder,
    Telemetry,
    document_errors,
    get_telemetry,
    set_telemetry,
    use_telemetry,
    validate_document,
)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("sim.cycles", 10, benchmark="gcc")
        reg.inc("sim.cycles", 5, benchmark="gcc")
        assert reg.get("sim.cycles", benchmark="gcc") == 15

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("sim.cycles", 10, benchmark="gcc", isa="block")
        reg.inc("sim.cycles", 7, benchmark="gcc", isa="conventional")
        assert reg.get("sim.cycles", benchmark="gcc", isa="block") == 10
        assert reg.get("sim.cycles", benchmark="gcc", isa="conventional") == 7
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("m", 1, a="x", b="y")
        reg.inc("m", 1, b="y", a="x")
        assert reg.get("m", a="x", b="y") == 2

    def test_gauge_holds_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("sim.ipc", 1.5, isa="block")
        reg.gauge("sim.ipc", 2.5, isa="block")
        assert reg.get("sim.ipc", isa="block") == 2.5

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        with pytest.raises(TelemetryError):
            reg.gauge("x", 1.0)

    def test_histogram_stats_and_buckets(self):
        reg = MetricsRegistry()
        for v in (1, 2, 3, 100):
            reg.observe("sizes", v)
        (series,) = reg.series("sizes")
        assert series.count == 4
        assert series.total == 106
        assert series.vmin == 1
        assert series.vmax == 100
        assert series.mean == pytest.approx(26.5)
        assert sum(series.buckets) == 4

    def test_label_dimension_aggregation(self):
        reg = MetricsRegistry()
        reg.inc("sim.icache_misses", 10, benchmark="gcc", isa="block")
        reg.inc("sim.icache_misses", 20, benchmark="go", isa="block")
        reg.inc("sim.icache_misses", 99, benchmark="go", isa="conventional")
        assert reg.total("sim.icache_misses", isa="block") == 30
        assert reg.total("sim.icache_misses") == 129
        assert reg.total("sim.icache_misses", benchmark="go") == 119

    def test_snapshot_is_json_ready_and_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b", 1)
        reg.gauge("a", 0.5, k="v")
        reg.observe("c", 3.0)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert [s["name"] for s in snap] == ["a", "b", "c"]
        assert snap[0]["kind"] == "gauge"
        assert snap[1]["kind"] == "counter"
        assert snap[2]["kind"] == "histogram"

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("x", 1)
        reg.clear()
        assert reg.get("x") is None
        assert len(reg) == 0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_span_records_duration_and_labels(self):
        rec = SpanRecorder()
        with rec.span("compile.frontend", {"module": "gcc"}):
            pass
        (record,) = rec.records
        assert record.name == "compile.frontend"
        assert record.labels == {"module": "gcc"}
        assert record.duration_s >= 0.0
        assert record.depth == 0

    def test_nesting_depth(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        by_name = {r.name: r for r in rec.records}
        assert by_name["inner"].depth == 1
        assert by_name["outer"].depth == 0

    def test_records_on_exception(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError()
        assert len(rec.records) == 1

    def test_bounded_capacity_counts_drops(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            with rec.span(f"s{i}"):
                pass
        assert len(rec.records) == 4
        assert rec.dropped == 6
        assert [r.name for r in rec.records] == ["s6", "s7", "s8", "s9"]

    def test_totals_aggregate_by_name(self):
        rec = SpanRecorder()
        for _ in range(3):
            with rec.span("opt.dce"):
                pass
        totals = rec.totals()
        assert totals["opt.dce"]["count"] == 3
        assert totals["opt.dce"]["total_s"] >= 0.0

    def test_totals_stay_exact_when_records_drop(self):
        rec = SpanRecorder(capacity=2)
        durations = []
        for _ in range(5):
            with rec.span("compile"):
                pass
            durations.append(rec.records[-1].duration_s)
        assert len(rec.records) == 2 and rec.dropped == 3
        totals = rec.totals()["compile"]
        assert totals["count"] == 5
        assert totals["total_s"] == pytest.approx(sum(durations))
        assert totals["max_s"] == max(durations)
        rec.merge([
            {"name": "compile", "duration_s": 7.0},
            {"name": "sim.capture", "duration_s": 0.5},
        ])
        totals = rec.totals()
        assert totals["compile"]["count"] == 6
        assert totals["compile"]["total_s"] == pytest.approx(
            sum(durations) + 7.0
        )
        assert totals["compile"]["max_s"] == 7.0
        assert totals["sim.capture"] == {
            "count": 1, "total_s": 0.5, "max_s": 0.5
        }
        rec.clear()
        assert rec.totals() == {}


# ---------------------------------------------------------------------------
# Event trace
# ---------------------------------------------------------------------------


class TestEventTrace:
    def test_ring_buffer_drops_oldest(self):
        trace = EventTrace(capacity=3)
        for cycle in range(5):
            trace.emit(EV_FETCH, cycle, addr=cycle * 64)
        assert len(trace) == 3
        assert trace.emitted == 5
        assert trace.dropped == 2
        events = trace.events()
        assert [e["cycle"] for e in events] == [2, 3, 4]
        assert events[0]["seq"] == 3

    def test_events_limit(self):
        trace = EventTrace(capacity=10)
        for cycle in range(6):
            trace.emit(EV_RETIRE, cycle, ops=1)
        assert [e["cycle"] for e in trace.events(2)] == [4, 5]

    def test_jsonl_roundtrip(self, tmp_path):
        trace = EventTrace(capacity=8)
        trace.emit(EV_FETCH, 0, addr=4096, ops=4, lines=1, unit=1)
        trace.emit(EV_RETIRE, 9, addr=4096, ops=4, atomic=True, unit=1)
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "fetch"
        assert first["addr"] == 4096

    def test_counts(self):
        trace = EventTrace()
        trace.emit(EV_FETCH, 0)
        trace.emit(EV_FETCH, 1)
        trace.emit(EV_RETIRE, 2)
        assert trace.counts() == {"fetch": 2, "retire": 1}


# ---------------------------------------------------------------------------
# Telemetry session + process-wide current session
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_default_is_disabled(self):
        tel = get_telemetry()
        assert tel.enabled is False

    def test_disabled_span_is_shared_noop(self):
        tel = Telemetry(enabled=False)
        assert tel.span("anything", k="v") is NOOP_SPAN
        with tel.span("anything"):
            pass  # must be usable as a context manager

    def test_disabled_facade_publishes_nothing(self):
        tel = Telemetry(enabled=False)
        tel.count("x", 5)
        tel.gauge("y", 1.0)
        tel.observe("z", 2.0)
        assert len(tel.metrics) == 0

    def test_enabled_facade_publishes(self):
        tel = Telemetry()
        tel.count("x", 5, isa="block")
        with tel.span("phase"):
            pass
        assert tel.metrics.get("x", isa="block") == 5
        assert len(tel.spans.records) == 1

    def test_use_telemetry_installs_and_restores(self):
        before = get_telemetry()
        with use_telemetry() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
        assert get_telemetry() is before

    def test_set_telemetry_returns_previous(self):
        tel = Telemetry()
        previous = set_telemetry(tel)
        try:
            assert get_telemetry() is tel
        finally:
            set_telemetry(previous)

    def test_reset(self):
        tel = Telemetry()
        tel.count("x")
        tel.trace.emit(EV_FETCH, 0)
        with tel.span("s"):
            pass
        tel.reset()
        assert len(tel.metrics) == 0
        assert len(tel.trace) == 0
        assert len(tel.spans) == 0


# ---------------------------------------------------------------------------
# Document schema
# ---------------------------------------------------------------------------


class TestSchema:
    def _doc(self):
        tel = Telemetry()
        tel.count("sim.cycles", 100, benchmark="gcc", isa="block")
        tel.gauge("sim.ipc", 2.0, isa="block")
        tel.observe("sim.unit_size", 8.0, isa="block")
        with tel.span("compile.frontend", module="gcc"):
            pass
        tel.trace.emit(EV_FETCH, 0, addr=4096, ops=4)
        tel.trace.emit(EV_RETIRE, 7, addr=4096, ops=4)
        return tel.to_document(meta={"command": "test"})

    def test_valid_document_passes(self):
        doc = self._doc()
        assert document_errors(doc) == []
        validate_document(doc)  # must not raise

    def test_json_roundtrip_stays_valid(self):
        doc = json.loads(json.dumps(self._doc()))
        assert document_errors(doc) == []

    def test_bad_schema_id(self):
        doc = self._doc()
        doc["schema"] = "bogus/v9"
        assert any("schema" in e for e in document_errors(doc))
        with pytest.raises(TelemetryError):
            validate_document(doc)

    def test_bad_event_kind_and_seq_order(self):
        doc = self._doc()
        doc["trace"]["events"][0]["event"] = "teleport"
        doc["trace"]["events"][0]["seq"] = 99
        errors = document_errors(doc)
        assert any("unknown event kind" in e for e in errors)
        assert any("increasing" in e for e in errors)

    def test_bad_metric_and_span(self):
        doc = self._doc()
        doc["metrics"][0]["kind"] = "sundial"
        doc["spans"][0]["duration_s"] = -1
        errors = document_errors(doc)
        assert any("bad kind" in e for e in errors)
        assert any("negative duration" in e for e in errors)

    def test_write_json_validates(self, tmp_path):
        tel = Telemetry()
        tel.count("x", 1)
        path = tmp_path / "out.json"
        tel.write_json(str(path), meta={"command": "test"})
        doc = json.loads(path.read_text())
        assert document_errors(doc) == []
