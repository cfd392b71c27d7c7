"""Unit tests for the observability layer: registry, tracer, exporters."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.stats import Counters, LatencyHistogram
from repro.obs import (
    MetricsRegistry,
    PhaseTimer,
    Tracer,
    read_trace,
    to_json,
    to_openmetrics,
    validate_trace,
    write_metrics,
)
from repro.obs.schema import TraceSchemaError


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", help="x")
        b = registry.counter("repro_x_total")
        assert a is b
        assert len(registry) == 1

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")

    def test_bad_family_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("9bad name")

    def test_negative_counter_increment_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("repro_x_total").inc(-1)

    def test_labels_are_order_insensitive(self):
        metric = MetricsRegistry().counter("repro_x_total")
        metric.inc(1, node=0, op="read")
        metric.inc(2, op="read", node=0)
        assert metric.value(node=0, op="read") == 3

    def test_gauge_merge_takes_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("repro_depth").set(3)
        b.gauge("repro_depth").set(7)
        assert a.merge(b).get("repro_depth").value() == 7
        assert b.merge(a).get("repro_depth").value() == 7

    def test_histogram_percentile_fraction_domain(self):
        state = MetricsRegistry().histogram("repro_lat").state()
        with pytest.raises(ValueError):
            state.percentile(0.0)
        with pytest.raises(ValueError):
            state.percentile(1.5)


class TestExporters:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_refs_total", help="references").inc(5, node=0)
        registry.gauge("repro_depth").set(2)
        hist = registry.histogram("repro_lat", help="latency")
        for value in (1, 2, 40):
            hist.observe(value)
        return registry

    def test_openmetrics_shape(self):
        text = to_openmetrics(self.build())
        assert '# TYPE repro_refs_total counter' in text
        assert 'repro_refs_total{node="0"} 5' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 43" in text
        assert "repro_lat_count 3" in text
        assert text.endswith("# EOF\n")

    def test_json_roundtrip(self):
        registry = self.build()
        clone = MetricsRegistry.from_dict(json.loads(to_json(registry)))
        assert clone.to_dict() == registry.to_dict()

    def test_write_metrics_auto_format(self, tmp_path):
        registry = self.build()
        assert write_metrics(registry, str(tmp_path / "m.prom")) == "openmetrics"
        assert write_metrics(registry, str(tmp_path / "m.json")) == "json"
        assert (tmp_path / "m.prom").read_text().endswith("# EOF\n")
        json.loads((tmp_path / "m.json").read_text())

    def test_stats_adapters(self):
        registry = MetricsRegistry()
        counters = Counters(reads=3, writes=1)
        counters.to_metrics(registry)
        assert registry.get("repro_events_total").value(event="reads") == 3
        histogram = LatencyHistogram()
        for value in (4, 5, 6):
            histogram.record(value)
        histogram.to_metrics(registry, family="repro_read_latency_cycles")
        state = registry.get("repro_read_latency_cycles").state()
        assert state.count == 3 and state.total == 15


class TestTracer:
    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(buffer_size=4)
        tracer.set_meta(scheme="V-COMA", nodes=1)
        for i in range(10):
            tracer.event("msg", i)
        assert len(tracer.records) == 4
        assert tracer.dropped == 7  # meta + first 6 events displaced

    def test_end_without_begin_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.end(0)

    def test_span_nesting_and_parents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            tracer.set_meta(scheme="V-COMA", nodes=1)
            with tracer.span("run", 0):
                with tracer.span("ref", 1, node=0):
                    tracer.event("dlb_hit", 1, node=0)
        records = read_trace(str(path))
        validate_trace(records)
        spans = {r["name"]: r for r in records if r.get("kind") == "span"}
        assert spans["ref"]["parent"] == spans["run"]["id"]
        event = next(r for r in records if r.get("kind") == "event")
        assert event["span"] == spans["ref"]["id"]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"meta","format":1,"scheme":"V-COMA"}\nnot json\n')
        with pytest.raises(ConfigurationError, match=r"bad\.jsonl:2"):
            read_trace(str(path))

    def test_duplicate_span_ids_rejected(self):
        records = [
            {"kind": "meta", "format": 1, "scheme": "V-COMA", "nodes": 1},
            {"kind": "span", "id": 1, "name": "run", "t0": 0, "t1": 5, "parent": None},
            {"kind": "span", "id": 1, "name": "ref", "t0": 0, "t1": 2, "parent": None},
        ]
        with pytest.raises(TraceSchemaError):
            validate_trace(records)


REF_SHAPE = (("node", "op", "vpn"), ("cycles", "tlb"))


def packed_producer_pair(**kwargs):
    """Two tracers with the same ``ref``/``msg`` shapes: one fed by its
    emitters, one that will be fed the same records as raw packed
    bytes (the compiled engine's path)."""
    pair = []
    for _ in range(2):
        tracer = Tracer(**kwargs)
        ref = tracer.span_emitter("ref", *REF_SHAPE, enums={"op": ("read", "write")})
        msg = tracer.event_emitter("msg", ("src", "dst"))
        tracer.begin("run", 0)
        pair.append((tracer, ref, msg))
    return pair


class TestForeignProducer:
    """The surface the compiled engine uses: codec ids, span state,
    drained packed bytes, and spans left open by an engine error."""

    def test_take_packed_matches_emitters_in_an_overflowing_ring(self):
        (native, (begin, end), msg), (foreign, ref_pair, foreign_msg) = (
            packed_producer_pair(buffer_size=5)
        )
        ref = ref_pair[0].codec
        event = foreign_msg.codec
        read, write = ref.gmaps[1]
        blob = bytearray()
        for i in range(4):
            begin(10 * i, 1, i % 2, 7)
            msg(10 * i + 1, 1, 2)
            end(10 * i + 5, 5, 0)
            sid = 2 + i
            blob += event.struct.pack(event.id, sid, 10 * i + 1, 1, 2)
            blob += ref.struct.pack(
                ref.id, sid, 1, 10 * i, 10 * i + 5, 1, write if i % 2 else read, 7, 5, 0
            )
        foreign.take_packed(bytes(blob))
        foreign.span_state = (6, 35)
        assert native.span_state == foreign.span_state
        assert native.dropped == foreign.dropped > 0
        assert list(native.records) == list(foreign.records)

    def test_pushed_open_span_truncates_like_a_native_one(self):
        (native, (begin, _), _), (foreign, ref_pair, _) = packed_producer_pair()
        begin(12, 3, 1, 9)
        ref = ref_pair[0].codec
        foreign.push_open(ref.id, 2, 1, 12, [3, ref.gmaps[1][1], 9])
        foreign.span_state = (3, 12)
        native.close()
        foreign.close()
        assert list(native.records) == list(foreign.records)
        assert any(r.get("truncated") for r in foreign.records)

    def test_rewind_forgets_spans_opened_since_the_mark(self):
        tracer = Tracer()
        mark = tracer.checkpoint()
        tracer.begin("run", 7)
        tracer.rewind(mark)
        assert tracer.depth == 0 and tracer.span_state == (1, 0)


class TestPhaseTimer:
    def test_records_gauges_and_rates(self):
        registry = MetricsRegistry()
        timer = PhaseTimer(registry)
        with timer.phase("grid") as phase:
            phase.add_items(10)
        assert [p["phase"] for p in timer.phases] == ["grid"]
        seconds = registry.get("repro_phase_seconds")
        assert seconds.value(phase="grid") >= 0
        assert "grid" in timer.render()
