"""Ablation experiment cells (the sharing ablation is in test_sharing.py,
the shootdown costs in test_protection.py)."""

import pytest

from repro import MachineParams, Scheme
from repro.runner import JobSpec


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


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
