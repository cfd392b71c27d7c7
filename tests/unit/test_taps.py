"""StudyAgent and TimingAgent behaviour."""

import pytest

from repro import MachineParams, Organization, Scheme, TapPoint
from repro.system.taps import StudyAgent, TimingAgent


@pytest.fixture
def agent(small_params):
    return StudyAgent(small_params, sizes=(4, 16), orgs=(Organization.FULLY_ASSOCIATIVE,))


class TestStudyAgent:
    def test_never_charges(self, agent):
        assert agent.at_l0(0, 1) == 0
        assert agent.at_l1(0, 1) == 0
        assert agent.at_l2(0, 1) == 0
        assert agent.at_l3(0, 1) == 0
        assert agent.at_home(0, 1) == 0

    def test_counts_total_references_at_l0(self, agent):
        for vpn in range(5):
            agent.at_l0(0, vpn)
        assert agent.total_references == 5

    def test_results_sum_over_nodes(self, agent):
        agent.at_l0(0, 1)
        agent.at_l0(1, 2)
        study = agent.study()
        assert study.misses(TapPoint.L0, 4) == 2
        assert study.accesses(TapPoint.L0) == 2

    def test_no_wback_excludes_writebacks(self, agent):
        agent.at_l2(0, 1, writeback=False)
        agent.at_l2(0, 2, writeback=True)
        study = agent.study()
        assert study.accesses(TapPoint.L2) == 2
        assert study.accesses(TapPoint.L2_NO_WBACK) == 1

    def test_home_tap_keyed_by_home_node(self, agent, small_params):
        for _ in range(3):
            agent.at_home(2, 7)
        study = agent.study()
        # Same page re-accessed at one home: 1 cold miss only.
        assert study.misses(TapPoint.HOME, 4) == 1

    def test_miss_rate_uses_processor_references(self, agent):
        agent.at_l0(0, 1)
        agent.at_l0(0, 1)
        agent.at_l3(0, 5)
        study = agent.study()
        assert study.miss_rate(TapPoint.L3, 4) == pytest.approx(0.5)

    def test_misses_per_node(self, agent, small_params):
        agent.at_l0(0, 1)
        study = agent.study()
        assert study.misses_per_node(TapPoint.L0, 4) == pytest.approx(
            1 / small_params.nodes
        )

    def test_curve_sorted_by_size(self, agent):
        agent.at_l0(0, 1)
        curve = agent.study().curve(TapPoint.L0)
        assert [size for size, _ in curve] == [4, 16]

    def test_larger_buffer_never_worse(self, small_params):
        agent = StudyAgent(small_params, sizes=(4, 64))
        import random

        rng = random.Random(0)
        for _ in range(3000):
            agent.at_l0(0, rng.randrange(30))
        study = agent.study()
        assert study.misses(TapPoint.L0, 64) <= study.misses(TapPoint.L0, 4)


class TestTimingAgent:
    def test_charges_only_at_its_level(self, small_params):
        agent = TimingAgent(small_params, Scheme.L2_TLB, entries=4)
        assert agent.at_l0(0, 1) == 0
        assert agent.at_l1(0, 1) == 0
        assert agent.at_l3(0, 1) == 0
        assert agent.at_home(0, 1) == 0
        assert agent.at_l2(0, 1) == small_params.translation_miss_penalty
        assert agent.at_l2(0, 1) == 0  # now cached

    def test_l0_scheme(self, small_params):
        agent = TimingAgent(small_params, Scheme.L0_TLB, entries=4)
        assert agent.at_l0(0, 1) == small_params.translation_miss_penalty
        assert agent.at_l0(0, 1) == 0

    def test_vcoma_charges_at_home(self, small_params):
        agent = TimingAgent(small_params, Scheme.V_COMA, entries=4)
        assert agent.at_home(2, 1) == small_params.translation_miss_penalty
        assert agent.at_home(2, 1) == 0
        # Different home: separate DLB, cold again.
        assert agent.at_home(3, 1) == small_params.translation_miss_penalty

    def test_vcoma_shared_across_requesters(self, small_params):
        # The DLB is per home; any requester benefits from the fill.
        agent = TimingAgent(small_params, Scheme.V_COMA, entries=4)
        agent.at_home(2, 9)
        assert agent.at_home(2, 9) == 0

    def test_per_node_tlbs_do_not_share(self, small_params):
        agent = TimingAgent(small_params, Scheme.L0_TLB, entries=4)
        agent.at_l0(0, 9)
        assert agent.at_l0(1, 9) == small_params.translation_miss_penalty

    def test_writeback_bypass_option(self, small_params):
        agent = TimingAgent(
            small_params, Scheme.L2_TLB, entries=4, include_l2_writebacks=False
        )
        assert agent.at_l2(0, 1, writeback=True) == 0
        assert agent.buffer(0).accesses == 0

    def test_statistics(self, small_params):
        agent = TimingAgent(small_params, Scheme.L0_TLB, entries=4)
        agent.at_l0(0, 1)
        agent.at_l0(0, 1)
        assert agent.total_accesses == 2
        assert agent.total_misses == 1

    def test_direct_mapped_organization(self, small_params):
        agent = TimingAgent(
            small_params, Scheme.L0_TLB, entries=4, organization=Organization.DIRECT_MAPPED
        )
        agent.at_l0(0, 0)
        assert agent.at_l0(0, 4) == small_params.translation_miss_penalty  # conflict
        assert agent.at_l0(0, 0) == small_params.translation_miss_penalty
