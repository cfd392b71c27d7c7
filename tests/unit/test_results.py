"""A scalar run's RunSummary: aggregation and agent readouts."""

import pytest

from repro import CustomWorkload, Machine, Scheme, SegmentSpec, Simulator
from repro.analysis import run_miss_sweep, run_timing
from repro.system.refs import READ, WRITE


def run_small(params, scheme=Scheme.V_COMA):
    def stream(node, ctx):
        base = ctx.segment("data").base
        for i in range(20):
            yield (READ if i % 2 else WRITE), base + (i * 64) % (8 * params.page_size)

    workload = CustomWorkload(
        [SegmentSpec("data", 8 * params.page_size)], stream, name="mini"
    )
    machine = Machine(params, scheme, workload)
    return Simulator(machine).run()


class TestAggregation:
    def test_total_references(self, small_params):
        result = run_small(small_params)
        assert result.total_references == 20 * small_params.nodes

    def test_aggregate_equals_sum_of_nodes(self, small_params):
        result = run_small(small_params)
        agg = result.aggregate_breakdown()
        assert agg.busy == sum(b.busy for b in result.breakdowns)
        assert agg.rem_stall == sum(b.rem_stall for b in result.breakdowns)

    def test_average_scales(self, small_params):
        result = run_small(small_params)
        avg = result.average_breakdown()
        agg = result.aggregate_breakdown()
        assert avg.busy == pytest.approx(agg.busy / small_params.nodes)

    def test_every_node_total_matches_wall_clock(self, small_params):
        result = run_small(small_params)
        for b in result.breakdowns:
            assert b.total == result.total_time

    def test_counters_merged_from_all_components(self, small_params):
        result = run_small(small_params)
        counters = result.counters
        assert counters["pages_preloaded"] > 0
        assert counters["reads"] > 0

    def test_summary_keys(self, small_params):
        summary = run_small(small_params).summary()
        for key in ("scheme", "workload", "total_time", "busy", "sync"):
            assert key in summary


class TestAgentIntrospection:
    def test_study_results_none_without_study_agent(self, small_params):
        result = run_small(small_params)
        assert result.study_results() is None
        assert result.timing_summary() is None

    def test_timing_summary_populated(self, small_params):
        from repro import make_workload

        result = run_timing(
            small_params,
            Scheme.L0_TLB,
            make_workload("ocean", intensity=0.1),
            entries=8,
            max_refs_per_node=300,
        )
        summary = result.timing_summary()
        assert summary["entries"] == 8
        assert summary["accesses"] > 0
        assert 0 <= summary["miss_rate"] <= 1

    def test_study_results_populated(self, small_params):
        from repro import TapPoint, make_workload

        result = run_miss_sweep(
            small_params,
            make_workload("ocean", intensity=0.1),
            sizes=(8,),
            max_refs_per_node=300,
        )
        study = result.study_results()
        assert study is not None
        assert study.accesses(TapPoint.L0) == result.total_references
