"""The exact Section 5.1 machine builds and runs.

The defaults elsewhere are scaled down for speed; this module proves the
paper's full configuration (32 nodes, 4 MB attraction memories, 4 KB
pages, 16/272-cycle messages) is genuinely runnable — just slower — by
simulating a short slice of two workloads on it.
"""

import pytest

from repro import MachineParams, Machine, Scheme, Simulator, TapPoint, make_workload
from repro.analysis import run_miss_sweep


@pytest.fixture(scope="module")
def paper_params():
    return MachineParams.paper_baseline()


class TestPaperBaseline:
    def test_geometry_matches_section_5_1(self, paper_params):
        p = paper_params
        assert (p.nodes, p.page_size) == (32, 4096)
        assert (p.request_msg_cycles, p.block_msg_cycles) == (16, 272)
        # 256 page colors of 128 slots, as derived in the paper's §6.
        assert p.global_page_sets == 256
        assert p.page_slots_per_global_set == 128

    def test_machine_builds_and_preloads(self, paper_params):
        machine = Machine(
            paper_params, Scheme.V_COMA, make_workload("barnes", intensity=0.02)
        )
        machine.engine.check_invariants()
        assert machine.counters["pages_preloaded"] > 100
        # Pressure stays comfortably under 1 (paper: working sets fit).
        assert max(machine.pressure.profile()) < 0.9

    def test_short_run_produces_paper_shapes(self, paper_params):
        result = run_miss_sweep(
            paper_params,
            make_workload("barnes", intensity=0.02),
            sizes=(8, 32),
            max_refs_per_node=400,
        )
        study = result.study_results()
        # Lock/unlock words are real stores too, so the L0 tap sees at
        # least one access per counted stream reference.
        assert study.accesses(TapPoint.L0) >= result.total_references
        # Filtering holds on the full-size machine too.
        assert study.misses(TapPoint.L3, 8) <= study.misses(TapPoint.L2_NO_WBACK, 8)
        assert study.misses(TapPoint.HOME, 32) <= study.misses(TapPoint.L3, 32)

    def test_physical_scheme_on_paper_machine(self, paper_params):
        machine = Machine(
            paper_params, Scheme.L0_TLB, make_workload("ocean", intensity=0.02)
        )
        result = Simulator(machine, max_refs_per_node=300).run()
        machine.engine.check_invariants()
        assert result.total_time > 0
