"""Relaxed write model (consistency-ablation substrate)."""

import pytest

from repro import CustomWorkload, Machine, Scheme, SegmentSpec, Simulator
from repro.coma.states import AMState
from repro.system.refs import READ, WRITE


def build(params, relaxed):
    def stream(node, ctx):
        base = ctx.segment("data").base
        for i in range(30):
            yield WRITE, base + (i * 128) % (16 * params.page_size)
        yield READ, base

    workload = CustomWorkload(
        [SegmentSpec("data", 16 * params.page_size)], stream, name="wr"
    )
    return Machine(params, Scheme.V_COMA, workload, relaxed_writes=relaxed)


class TestRelaxedWrites:
    def test_relaxed_run_is_faster(self, small_params):
        sc = Simulator(build(small_params, relaxed=False)).run()
        relaxed = Simulator(build(small_params, relaxed=True)).run()
        assert relaxed.total_time < sc.total_time

    def test_coherence_state_still_updates(self, small_params):
        machine = build(small_params, relaxed=True)
        node = machine.nodes[0]
        addr = machine.space["data"].base
        cycles = node.reference(True, addr, now=0)
        assert cycles == 0  # processor does not wait
        assert machine.engine.ams[0].state_of(addr) is AMState.EXCLUSIVE

    def test_hidden_cycles_counted(self, small_params):
        machine = build(small_params, relaxed=True)
        result = Simulator(machine).run()
        hidden = sum(n.counters["hidden_store_cycles"] for n in machine.nodes)
        assert hidden > 0
        # The breakdown accounts contain no store stalls beyond reads.
        assert result.total_time < hidden + result.total_time

    def test_breakdown_conservation_still_holds(self, small_params):
        machine = build(small_params, relaxed=True)
        result = Simulator(machine).run()
        for breakdown in result.breakdowns:
            assert breakdown.total == result.total_time

    def test_reads_still_stall(self, small_params):
        machine = build(small_params, relaxed=True)
        node = machine.nodes[1]
        addr = machine.space["data"].base + 64
        assert node.reference(False, addr, now=0) > 0

    def test_sc_is_default(self, small_params):
        machine = build(small_params, relaxed=False)
        node = machine.nodes[0]
        addr = machine.space["data"].base
        assert node.reference(True, addr, now=0) > 0


class TestRelaxedTimingCell:
    """``JobSpec.timing(relaxed_writes=True)``: the ``ablation-consistency``
    cell, headless on the compiled engine, equals the scalar relaxed run."""

    def test_cell_equals_scalar_relaxed_machine(self, small_params):
        from repro import make_workload
        from repro.runner import JobSpec, RunSummary
        from repro.system.taps import TimingAgent

        spec = JobSpec.timing(
            small_params, Scheme.L0_TLB, "ocean", 8, relaxed_writes=True,
            max_refs_per_node=600, overrides={"intensity": 0.3},
        )
        machine = Machine(
            small_params, Scheme.L0_TLB, make_workload("ocean", intensity=0.3),
            agent=TimingAgent(small_params, Scheme.L0_TLB, 8), relaxed_writes=True,
        )
        oracle = RunSummary.from_result(Simulator(machine, max_refs_per_node=600).run())
        cell = spec.execute()
        sc = JobSpec.timing(
            small_params, Scheme.L0_TLB, "ocean", 8,
            max_refs_per_node=600, overrides={"intensity": 0.3},
        )
        for summary in (cell, oracle):
            summary.backend = summary.fallback_reason = None
        assert cell.to_dict() == oracle.to_dict()
        assert cell.total_time < sc.execute().total_time
        assert spec.content_hash() != sc.content_hash()
