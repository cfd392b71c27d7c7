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
from repro.obs import trace
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
    def test_end_without_begin_rejected(self, tmp_path):
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        with pytest.raises(ConfigurationError):
            tracer.end(0)

    def test_span_nesting_and_parents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            tracer.set_meta(scheme="V-COMA", nodes=1)
            tracer.begin("run", 0)
            tracer.begin("ref", 1, node=0)
            tracer.event("dlb_hit", 1, node=0)
            tracer.end(1)
            tracer.end(1)
        records = read_trace(str(path))
        validate_trace(records)
        spans = {r["name"]: r for r in records if r.get("kind") == "span"}
        assert spans["ref"]["parent"] == spans["run"]["id"]
        event = next(r for r in records if r.get("kind") == "event")
        assert event["span"] == spans["ref"]["id"]

    def test_unwritable_path_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot write trace"):
            Tracer(str(tmp_path / "missing" / "t.jsonl"))

    def test_missing_trace_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read trace"):
            read_trace(str(tmp_path / "missing.jsonl"))

    def test_non_utf8_trace_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"kind":"meta"}\n\xff\xfe\n')
        with pytest.raises(ConfigurationError, match="cannot read trace .*utf-8"):
            read_trace(str(path))

    def test_gz_trace_that_is_not_gzip_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        path.write_text('{"kind":"meta","format":1,"scheme":"V-COMA"}\n')
        with pytest.raises(ConfigurationError, match="cannot read trace .*gzip"):
            read_trace(str(path))

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


def packed_producer_pair(tmp_path):
    """Two tracers with the same ``ref``/``msg`` shapes, writing
    ``native.jsonl`` and ``foreign.jsonl``: one fed by its emitters,
    one that will be fed the same records as raw packed bytes (the
    compiled engine's path)."""
    pair = []
    for name in ("native", "foreign"):
        tracer = Tracer(str(tmp_path / f"{name}.jsonl"))
        ref = tracer.span_emitter("ref", *REF_SHAPE, enums={"op": ("read", "write")})
        msg = tracer.event_emitter("msg", ("src", "dst"))
        tracer.begin("run", 0)
        pair.append((tracer, ref, msg))
    return pair


class TestForeignProducer:
    """The surface the compiled engine uses: codec ids, span state,
    drained packed bytes, and spans left open by an engine error."""

    def test_take_packed_matches_emitters_across_flushes(self, tmp_path, monkeypatch):
        # A limit below one iteration's records: both sides render and
        # write their packed batch mid-stream.
        monkeypatch.setattr(trace, "PACKED_FLUSH_BYTES", 64)
        (native, (begin, end), msg), (foreign, ref_pair, foreign_msg) = (
            packed_producer_pair(tmp_path)
        )
        ref = ref_pair[0].codec
        event = foreign_msg.codec
        read, write = ref.gmaps[1]
        drains = []  # one drained engine buffer per reference
        for i in range(4):
            begin(10 * i, 1, i % 2, 7)
            msg(10 * i + 1, 1, 2)
            end(10 * i + 5, 5, 0)
            sid = 2 + i
            drains.append(
                event.struct.pack(event.id, sid, 10 * i + 1, 1, 2)
                + ref.struct.pack(
                    ref.id, sid, 1, 10 * i, 10 * i + 5, 1, write if i % 2 else read, 7, 5, 0
                )
            )
        for drained in drains:
            foreign.take_packed(drained)
        foreign.span_state = (6, 35)
        assert native.span_state == foreign.span_state
        native.close()
        foreign.close()
        data = (tmp_path / "native.jsonl").read_bytes()
        assert data == (tmp_path / "foreign.jsonl").read_bytes()
        assert data.count(b'"name":"ref"') == 4 and data.count(b'"name":"msg"') == 4

    def test_pushed_open_span_truncates_like_a_native_one(self, tmp_path):
        (native, (begin, _), _), (foreign, ref_pair, _) = packed_producer_pair(tmp_path)
        begin(12, 3, 1, 9)
        ref = ref_pair[0].codec
        foreign.push_open(ref.id, 2, 1, 12, [3, ref.gmaps[1][1], 9])
        foreign.span_state = (3, 12)
        native.close()
        foreign.close()
        data = (tmp_path / "native.jsonl").read_bytes()
        assert data == (tmp_path / "foreign.jsonl").read_bytes()
        assert any(r.get("truncated") for r in read_trace(str(tmp_path / "foreign.jsonl")))

    def test_rewind_forgets_spans_opened_since_the_mark(self, tmp_path):
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        mark = tracer.checkpoint()
        tracer.begin("run", 7)
        tracer.rewind(mark)
        assert tracer.depth == 0 and tracer.span_state == (1, 0)


    def test_full_drain_keeps_stream_order(self, tmp_path, monkeypatch):
        # Drains of at least the limit are rendered from the drained
        # buffer itself when no packed record is batched, and batched
        # like any other when some are: after pending generic lines and
        # after a partly filled batch, the stream order must not change.
        monkeypatch.setattr(trace, "PACKED_FLUSH_BYTES", 256)
        (native, (begin, end), msg), (foreign, ref_pair, foreign_msg) = (
            packed_producer_pair(tmp_path)
        )
        ref = ref_pair[0].codec
        event = foreign_msg.codec
        read, write = ref.gmaps[1]
        clock = iter(range(10, 10**6, 10))

        def references(count):
            """``count`` references on the native tracer; the same
            records packed, as the engine would drain them."""
            drained = b""
            for i in range(count):
                t = next(clock)
                sid = begin(t, 1, i % 2, 7 + i)
                msg(t + 1, 1, 2)
                end(t + 5, 5, i % 3)
                drained += event.struct.pack(event.id, sid, t + 1, 1, 2)
                drained += ref.struct.pack(
                    ref.id, sid, 1, t, t + 5, 1, write if i % 2 else read, 7 + i, 5, i % 3
                )
            return drained

        def drain(data):
            foreign.take_packed(data)
            foreign.span_state = native.span_state

        def generic(name):
            t = next(clock)
            for tracer in (native, foreign):
                tracer.event(name, t, node=0)

        generic("phase")  # a pending line, then a full drain
        full = references(4)
        assert len(full) >= 256
        drain(full)
        drain(references(1))  # a partly filled batch...
        drain(references(4))  # ...then a full drain that joins it
        generic("phase")
        drain(references(5))
        native.close()
        foreign.close()
        data = (tmp_path / "native.jsonl").read_bytes()
        assert data == (tmp_path / "foreign.jsonl").read_bytes()
        assert data.count(b'"name":"ref"') == 14 and data.count(b'"name":"phase"') == 2

    def test_gz_trace_round_trips_through_the_flush(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace, "PACKED_FLUSH_BYTES", 128)
        records = []
        for name in ("t.jsonl", "t.jsonl.gz"):
            tracer = Tracer(str(tmp_path / name))
            tracer.set_meta(scheme="V-COMA", nodes=1)
            msg = tracer.event_emitter("msg", ("src", "dst"))
            tracer.begin("run", 0)
            for i in range(40):
                msg(i, i % 8, 7)
            drained = b"".join(
                msg.codec.struct.pack(msg.codec.id, 1, 40 + i, i, 3) for i in range(20)
            )
            tracer.take_packed(drained)
            tracer.end(60)
            tracer.close()
            records.append(read_trace(str(tmp_path / name)))
        plain, gz = records
        assert gz == plain
        assert sum(r.get("name") == "msg" for r in gz) == 60
        validate_trace(gz)


#: Decimal digit-count boundaries of int64, both signs.
BOUNDARY_INTS = sorted(
    {0, 2**63 - 1, -(2**63)}
    | {10**d + e for d in range(19) for e in (-1, 0)}
    | {-(10**d) + e for d in range(19) for e in (0, 1)}
)


class TestCompiledRenderer:
    """``fs_trace_render`` against ``_render_packed_py``, byte for byte,
    on the edges of its digit formatting and chunked copies."""

    #: Int keys whose ``,"key":`` segments are 15, 16, 17, 31, 32 and 33
    #: bytes long.
    KEYS = tuple(letter * (n - 4) for letter, n in zip("abcdef", (15, 16, 17, 31, 32, 33)))
    #: Enum choices copied from the string table: 0 to 33 bytes, and a
    #: long last entry that outgrows the first output buffer.
    CHOICES = ("", "x" * 15, "x" * 16, "x" * 17, "x" * 31, "x" * 32, "x" * 33, "y" * 5000)

    @pytest.fixture
    def setup(self, tmp_path):
        lib = trace._render_lib()
        if lib is None:
            pytest.skip("compiled backend unavailable")
        tracer = Tracer(str(tmp_path / "t.jsonl"))
        ints = tracer.event_emitter("ints", self.KEYS)
        flag = tracer.event_emitter("flag", ("on",), bools=("on",))
        pick = tracer.event_emitter("pick", ("s",), enums={"s": self.CHOICES})
        yield tracer, lib, ints.codec, flag.codec, pick.codec
        tracer.close()

    @staticmethod
    def render_c(tracer, lib, data, cap):
        ffi = trace._RENDER_BACKEND.ffi
        out = ffi.new("char[]", cap)
        n = lib.fs_trace_render(
            ffi.from_buffer(data), len(data), *tracer._build_ctables(), out, cap
        )
        return n, ffi.buffer(out, max(n, 0))[:]

    def stream(self, ints, flag, pick):
        values = BOUNDARY_INTS + [0] * (-len(BOUNDARY_INTS) % len(self.KEYS))
        heads = (-1, -(2**63), 0, 2**63 - 1, 7)  # nullable span: null when < 0
        records = []
        for i in range(0, len(values), len(self.KEYS)):
            span = heads[(i // len(self.KEYS)) % len(heads)]
            records.append(ints.struct.pack(ints.id, span, values[i], *values[i:i + len(self.KEYS)]))
        records += [flag.struct.pack(flag.id, 3, 2, gid) for gid in flag.gmaps[0]]
        records += [pick.struct.pack(pick.id, -1, 1, gid) for gid in pick.gmaps[0]]
        return b"".join(records)

    def test_matches_the_python_renderer(self, setup):
        tracer, lib, ints, flag, pick = setup
        data = self.stream(ints, flag, pick)
        assert pick.gmaps[0][-1] == len(tracer._strings) - 1  # the last entry
        expected = tracer._render_packed_py(data)
        assert bytes(tracer._render_packed(data)) == expected
        for value in BOUNDARY_INTS:
            assert b":%d," % value in expected or b":%d}" % value in expected
        assert b'"span":null' in expected and b'"s":""' in expected

    def test_output_ending_at_cap_needs_the_slack(self, setup):
        tracer, lib, ints, flag, pick = setup
        data = self.stream(ints, flag, pick)
        expected = tracer._render_packed_py(data)
        assert self.render_c(tracer, lib, data, len(expected)) == (-1, b"")
        assert self.render_c(tracer, lib, data, len(expected) + 32) == (len(expected), expected)

    def test_buffer_grows_until_the_output_fits(self, setup):
        tracer, lib, ints, flag, pick = setup
        last = pick.gmaps[0][-1]
        data = pick.struct.pack(pick.id, 1, 2, last) * 60
        expected = tracer._render_packed_py(data)
        assert len(expected) > 4 * len(data) + (1 << 16)
        assert bytes(tracer._render_packed(data)) == expected

    def test_truncated_stream_is_rejected(self, setup):
        tracer, lib, ints, flag, pick = setup
        data = self.stream(ints, flag, pick)[:-1]
        assert self.render_c(tracer, lib, data, 1 << 20)[0] == -2
        with pytest.raises(ConfigurationError, match="rejected the packed stream"):
            tracer._render_packed(data)


class TestClosedTracer:
    """Recording after close() raises instead of losing the record."""

    @pytest.fixture
    def closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(str(path))
        ref = tracer.span_emitter("ref", *REF_SHAPE, enums={"op": ("read", "write")})
        msg = tracer.event_emitter("msg", ("src", "dst"))
        tracer.close()
        return tracer, ref, msg, path

    @pytest.mark.parametrize("record", [
        lambda tracer, ref, msg: tracer.set_meta(scheme="V-COMA", nodes=1),
        lambda tracer, ref, msg: tracer.event("msg", 1),
        lambda tracer, ref, msg: tracer.begin("run", 1),
        lambda tracer, ref, msg: tracer.end(1),
        lambda tracer, ref, msg: tracer.take_packed(
            msg.codec.struct.pack(msg.codec.id, -1, 1, 1, 2)
        ),
        lambda tracer, ref, msg: msg(1, 1, 2),
        lambda tracer, ref, msg: (ref[0](1, 0, 0, 7), ref[1](2, 5, 0)),
    ], ids=["set_meta", "event", "begin", "end", "take_packed", "event_emitter", "span_emitter"])
    def test_recording_raises(self, closed, record):
        tracer, ref, msg, path = closed
        with pytest.raises(ConfigurationError, match="is closed"):
            record(tracer, ref, msg)
        assert path.read_bytes() == b""

    def test_close_twice_is_a_no_op(self, closed):
        tracer, _, _, path = closed
        tracer.close()
        assert path.read_bytes() == b""


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
