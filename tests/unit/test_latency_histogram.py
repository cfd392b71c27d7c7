"""LatencyHistogram and its machine integration."""

import pytest

from repro import CustomWorkload, Machine, Scheme, SegmentSpec, Simulator
from repro.common.stats import LatencyHistogram
from repro.system.refs import READ, WRITE


class TestHistogram:
    def test_bucketing(self):
        h = LatencyHistogram()
        for latency in (0, 1, 2, 3, 4, 7, 8, 100):
            h.record(latency)
        assert h.bucket(0) == 2  # 0 and 1
        assert h.bucket(1) == 2  # 2, 3
        assert h.bucket(2) == 2  # 4, 7
        assert h.bucket(3) == 1  # 8
        assert h.bucket(6) == 1  # 100
        assert h.count == 8

    def test_mean_and_total(self):
        h = LatencyHistogram()
        for latency in (10, 20, 30):
            h.record(latency)
        assert h.total == 60
        assert h.mean == pytest.approx(20.0)

    def test_empty_mean(self):
        assert LatencyHistogram().mean == 0.0

    def test_percentile_bounds(self):
        h = LatencyHistogram()
        for _ in range(90):
            h.record(5)
        for _ in range(10):
            h.record(1000)
        assert h.percentile(0.5) == 7  # bucket [4, 7]
        assert h.percentile(0.99) == 1023  # 1000 lives in bucket [512, 1023]

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(0.0)
        assert LatencyHistogram().percentile(0.5) == 0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(4)
        b.record(4)
        b.record(100)
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.bucket(2) == 2
        # operands untouched
        assert a.count == 1 and b.count == 2

    def test_render(self):
        h = LatencyHistogram()
        h.record(6)
        h.record(74)
        text = h.render()
        assert "mean=" in text and "|" in text

    def test_render_empty(self):
        assert "no samples" in LatencyHistogram().render()


class TestMachineIntegration:
    def test_run_collects_latencies(self, small_params):
        def stream(node, ctx):
            base = ctx.segment("data").base
            yield READ, base
            yield WRITE, base

        workload = CustomWorkload(
            [SegmentSpec("data", 8 * small_params.page_size)], stream, name="lh"
        )
        machine = Machine(small_params, Scheme.V_COMA, workload)
        result = Simulator(machine).run()
        reads = result.read_latency
        writes = result.write_latency
        assert reads.count == small_params.nodes
        assert writes.count == small_params.nodes
        # The first read is an AM/remote access: latency >= 74.
        assert reads.mean >= small_params.am_hit_latency

    def test_relaxed_writes_record_zero(self, small_params):
        def stream(node, ctx):
            yield WRITE, ctx.segment("data").base

        workload = CustomWorkload(
            [SegmentSpec("data", 4 * small_params.page_size)], stream, name="rz"
        )
        machine = Machine(
            small_params, Scheme.V_COMA, workload, relaxed_writes=True
        )
        result = Simulator(machine).run()
        assert result.write_latency.mean == 0.0
