"""The mapping-change cost model: per-node-TLB shootdown vs V-COMA update."""

import pytest

from repro import MachineParams
from repro.analysis import report
from repro.vm.protection import SHOOTDOWN_INTERRUPT_CYCLES, home_update_cost, shootdown_cost

#: ``ProtectionManager(machine).mapping_change_cost()`` on an L0-TLB and
#: a V-COMA machine, before the cost model became two closed forms:
#: nodes -> (per-node TLBs, V-COMA), on ``MachineParams.scaled_down(
#: factor=32, page_size=256)``.
MACHINE_COSTS = {2: (232, 20), 4: (264, 20), 8: (328, 20), 16: (456, 20), 32: (712, 20)}


def at(nodes):
    return MachineParams.scaled_down(factor=32, page_size=256).replace(nodes=nodes)


class TestCosts:
    @pytest.mark.parametrize("nodes", sorted(MACHINE_COSTS))
    def test_closed_forms_equal_the_machine_costs(self, nodes):
        assert (shootdown_cost(at(nodes)), home_update_cost(at(nodes))) == MACHINE_COSTS[nodes]

    def test_tlb_scheme_pays_full_shootdown(self, small_params):
        others = small_params.nodes - 1
        assert shootdown_cost(small_params) == (
            small_params.request_msg_cycles
            + SHOOTDOWN_INTERRUPT_CYCLES
            + others * small_params.request_msg_cycles
        )

    def test_vcoma_cost_is_home_side_only(self, small_params):
        assert home_update_cost(small_params) == (
            small_params.request_msg_cycles + small_params.directory_lookup_latency
        )

    def test_shootdown_cost_grows_with_nodes(self):
        costs = [shootdown_cost(at(nodes)) for nodes in (2, 4, 8)]
        assert costs == sorted(costs)
        assert costs[-1] > costs[0]

    def test_vcoma_cost_constant_in_nodes(self):
        assert len({home_update_cost(at(nodes)) for nodes in (2, 4, 8)}) == 1


class TestShootdownExperiment:
    def test_tlb_cost_grows_vcoma_constant(self):
        rows = report._shootdown(report.Setup(at(8)), results=None)
        assert [nodes for nodes, _, _ in rows] == [2, 4, 8, 16, 32]
        tlb_costs = [t for _, t, _ in rows]
        vcoma_costs = [v for _, _, v in rows]
        assert tlb_costs == sorted(tlb_costs) and tlb_costs[-1] > tlb_costs[0]
        assert len(set(vcoma_costs)) == 1
        assert all(v < t for (_, t, v) in rows)
