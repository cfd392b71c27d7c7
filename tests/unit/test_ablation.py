"""Ablation experiment helpers."""

import pytest

from repro import MachineParams, Scheme, make_workload
from repro.analysis.ablation import (
    SharedVsPartitionedAgent,
    sharing_ablation,
    shootdown_scaling,
)
from repro.runner import JobSpec


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


class TestSharedVsPartitionedAgent:
    def test_both_sides_observe_stream(self, params):
        agent = SharedVsPartitionedAgent(params, entries=4)
        agent.at_home(0, 8, requester=1)
        agent.at_home(0, 8, requester=2)
        assert agent.shared_accesses == 2
        # Shared structure: second access hits; partitioned: both cold.
        assert agent.shared_misses == 1
        assert agent.partitioned_misses == 2

    def test_requesterless_accesses_only_feed_shared(self, params):
        agent = SharedVsPartitionedAgent(params, entries=4)
        agent.at_home(0, 8)
        assert agent.shared_accesses == 1
        assert agent.partitioned_misses == 0


class TestSharingAblation:
    def test_radix_shows_sharing_win(self, params):
        stats = sharing_ablation(
            params, make_workload("radix", intensity=0.3), entries=8,
            max_refs_per_node=3000,
        )
        assert stats["accesses"] > 0
        # The partitioned variant has 4x the aggregate capacity, so a
        # shared structure matching (or beating) it is a sharing win.
        assert stats["shared_misses"] <= stats["partitioned_misses"] * 1.3

    def test_returns_expected_keys(self, params):
        stats = sharing_ablation(
            params, make_workload("barnes", intensity=0.1), entries=8,
            max_refs_per_node=500,
        )
        assert set(stats) == {"entries", "accesses", "shared_misses", "partitioned_misses"}


class TestWritebackBypass:
    def test_bypass_never_increases_stall(self, params):
        """The ``ablation-writeback`` experiment's two L2-TLB/8 timing
        cells, with writebacks looked up and bypassed."""
        with_wb, bypass = (
            JobSpec.timing(
                params, Scheme.L2_TLB, "ocean", 8, include_l2_writebacks=include,
                max_refs_per_node=2000, overrides={"intensity": 0.3},
            ).execute()
            for include in (True, False)
        )
        stall_saved = (
            with_wb.aggregate_breakdown().tlb_stall - bypass.aggregate_breakdown().tlb_stall
        )
        assert stall_saved >= 0
        assert bypass.timing_summary()["accesses"] <= with_wb.timing_summary()["accesses"]


class TestShootdownScaling:
    def test_tlb_cost_grows_vcoma_constant(self):
        rows = shootdown_scaling((2, 4, 8))
        tlb_costs = [t for _, t, _ in rows]
        vcoma_costs = [v for _, _, v in rows]
        assert tlb_costs == sorted(tlb_costs) and tlb_costs[-1] > tlb_costs[0]
        assert len(set(vcoma_costs)) == 1
        assert all(v < t for (_, t, v) in rows)
