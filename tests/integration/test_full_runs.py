"""End-to-end runs: every workload under every scheme stays coherent
and produces sane statistics."""

import pytest

from repro import Machine, Scheme, Simulator, make_workload
from repro.system.taps import TimingAgent

MAX_REFS = 1200


@pytest.fixture
def params(small_params):
    return small_params


class TestAllWorkloadsAllSchemes:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_run_completes_coherently(self, params, workload_name, scheme):
        workload = make_workload(workload_name, intensity=0.15)
        machine = Machine(params, scheme, workload)
        result = Simulator(machine, max_refs_per_node=MAX_REFS).run()
        machine.engine.check_invariants()
        assert result.total_time > 0
        assert result.total_references > 0
        # Conservation: every node's account covers the whole run.
        for breakdown in result.breakdowns:
            assert breakdown.total == result.total_time

    def test_vcoma_timing_run(self, params, workload_name):
        workload = make_workload(workload_name, intensity=0.15)
        agent = TimingAgent(params, Scheme.V_COMA, entries=8)
        machine = Machine(params, Scheme.V_COMA, workload, agent=agent)
        result = Simulator(machine, max_refs_per_node=MAX_REFS).run()
        machine.engine.check_invariants()
        assert agent.total_accesses > 0
        # Translation stall is bounded by the total miss penalties;
        # misses on the injection path are never charged to a processor.
        agg = result.aggregate_breakdown()
        assert 0 < agg.tlb_stall <= agent.total_misses * params.translation_miss_penalty
        assert agg.tlb_stall % params.translation_miss_penalty == 0


class TestDeterminism:
    def test_identical_runs_identical_results(self, params):
        def run():
            machine = Machine(params, Scheme.V_COMA, make_workload("fft", intensity=0.15))
            return Simulator(machine, max_refs_per_node=800).run()

        a, b = run(), run()
        assert a.total_time == b.total_time
        assert a.counters == b.counters

    def test_seed_changes_results(self, params):
        machine_a = Machine(params, Scheme.V_COMA, make_workload("raytrace", intensity=0.15))
        params_b = params.replace(seed=777)
        machine_b = Machine(params_b, Scheme.V_COMA, make_workload("raytrace", intensity=0.15))
        a = Simulator(machine_a, max_refs_per_node=800).run()
        b = Simulator(machine_b, max_refs_per_node=800).run()
        # Different RNG streams shift something (timing or traffic).
        assert (
            a.total_time != b.total_time
            or a.counters != b.counters
        )


class TestConsistencyAcrossSchemes:
    def test_reference_counts_scheme_independent(self, params):
        counts = {}
        for scheme in (Scheme.L0_TLB, Scheme.V_COMA):
            machine = Machine(params, scheme, make_workload("ocean", intensity=0.15))
            result = Simulator(machine, max_refs_per_node=800).run()
            counts[scheme] = result.total_references
        assert counts[Scheme.L0_TLB] == counts[Scheme.V_COMA]

    def test_flc_behaviour_identical_between_virtual_schemes(self, params):
        """L3-TLB and V-COMA differ only in where translation happens;
        with a no-op agent their hierarchies behave identically."""
        results = {}
        for scheme in (Scheme.L3_TLB, Scheme.V_COMA):
            machine = Machine(params, scheme, make_workload("fft", intensity=0.15))
            result = Simulator(machine, max_refs_per_node=800).run()
            results[scheme] = (
                sum(n.flc.misses for n in machine.nodes),
                sum(n.slc.misses for n in machine.nodes),
                result.total_time,
            )
        assert results[Scheme.L3_TLB] == results[Scheme.V_COMA]
