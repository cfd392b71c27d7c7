"""Simulator: interleaving, barriers, locks, truncation."""

import pytest

from repro import (
    CustomWorkload,
    Machine,
    ReproError,
    Scheme,
    SegmentSpec,
    Simulator,
    make_workload,
)
from repro.coma.protocol import TranslationAgent
from repro.core.tlb import Organization
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.system.simulator import run_summary
from repro.system.taps import StudyAgent


def run_machine(params, streams, pages=32, **sim_kwargs):
    """Build and run a machine whose node streams are given literally."""

    def factory(node, ctx):
        base = ctx.segment("data").base
        for op, value in streams[node]:
            if op in (READ, WRITE, LOCK, UNLOCK):
                yield op, base + value
            else:
                yield op, value

    workload = CustomWorkload(
        [SegmentSpec("data", pages * params.page_size)], factory, name="literal"
    )
    machine = Machine(params, Scheme.V_COMA, workload)
    return Simulator(machine, **sim_kwargs).run()


class TestBasics:
    def test_empty_streams(self, small_params):
        result = run_machine(small_params, [[] for _ in range(small_params.nodes)])
        assert result.total_time == 0
        assert result.total_references == 0

    def test_reference_counting(self, small_params):
        streams = [[(READ, 0)], [(READ, 0), (WRITE, 256)], [], []]
        result = run_machine(small_params, streams)
        assert result.refs_per_node == [1, 2, 0, 0]

    def test_busy_time_charged_per_reference(self, small_params):
        streams = [[(READ, 0), (READ, 0)], [], [], []]
        result = run_machine(small_params, streams)
        # think_cycles defaults to 4 for CustomWorkload.
        assert result.breakdowns[0].busy == 8

    def test_max_refs_truncates(self, small_params):
        streams = [[(READ, i * 8) for i in range(100)], [], [], []]
        result = run_machine(small_params, streams, max_refs_per_node=10)
        assert result.refs_per_node[0] == 10

    def test_deterministic(self, small_params):
        streams = [[(WRITE, i * 64) for i in range(50)] for _ in range(4)]
        a = run_machine(small_params, streams)
        b = run_machine(small_params, streams)
        assert a.total_time == b.total_time
        assert a.aggregate_breakdown().to_dict() == b.aggregate_breakdown().to_dict()


class TestBarriers:
    def test_barrier_synchronizes_clocks(self, small_params):
        # Node 0 does lots of work before the barrier; others wait.
        streams = [
            [(WRITE, i * 128) for i in range(50)] + [(BARRIER, 0)],
            [(BARRIER, 0)],
            [(BARRIER, 0)],
            [(BARRIER, 0)],
        ]
        result = run_machine(small_params, streams)
        assert result.barriers == 4
        # The idle nodes accumulated sync time while waiting.
        assert result.breakdowns[1].sync > 0
        assert result.breakdowns[1].sync >= result.breakdowns[0].sync

    def test_unreleased_barrier_is_deadlock(self, small_params):
        streams = [[(BARRIER, 0)], [(BARRIER, 0)], [(BARRIER, 0)], []]
        # Node 3 never arrives but finishes immediately -> barrier
        # releases with the active quorum; no deadlock.
        result = run_machine(small_params, streams)
        assert result.barriers == 3

    def test_barrier_reuse_after_release_ok(self, small_params):
        # Once released, a barrier id may be reused by a later phase.
        streams = [
            [(BARRIER, 0), (READ, 0), (BARRIER, 0)]
            for _ in range(small_params.nodes)
        ]
        result = run_machine(small_params, streams)
        assert result.barriers == 2 * small_params.nodes

    def test_final_idle_tail_counts_as_sync(self, small_params):
        streams = [[(WRITE, i * 128) for i in range(30)], [(READ, 0)], [], []]
        result = run_machine(small_params, streams)
        assert result.breakdowns[2].sync == result.total_time
        total = result.breakdowns[1]
        assert total.sync == result.total_time - (
            total.busy + total.loc_stall + total.rem_stall + total.tlb_stall
        )


class TestLocks:
    def test_lock_grants_in_fifo_order(self, small_params):
        streams = [
            [(LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
            [(LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
            [],
            [],
        ]
        result = run_machine(small_params, streams)
        # One of the two nodes waited for the lock.
        syncs = [result.breakdowns[n].sync for n in (0, 1)]
        assert max(syncs) > 0

    def test_unlock_by_non_holder_rejected(self, small_params):
        streams = [[(UNLOCK, 0)], [], [], []]
        with pytest.raises(ReproError):
            run_machine(small_params, streams)

    def test_lock_generates_coherence_traffic(self, small_params):
        streams = [[(LOCK, 0), (UNLOCK, 0)], [], [], []]
        result = run_machine(small_params, streams)
        # Acquire + release are real stores to the lock word.
        assert result.breakdowns[0].memory_stall > 0

    def test_contended_lock_serializes(self, small_params):
        # Both nodes increment under the lock 5 times; the total time
        # must cover both critical sections serialized.
        def critical():
            return [(LOCK, 0), (WRITE, 64), (UNLOCK, 0)]

        streams = [critical() * 5, critical() * 5, [], []]
        result = run_machine(small_params, streams)
        assert result.total_time > 0
        held = result.breakdowns[0].sync + result.breakdowns[1].sync
        assert held > 0


def _numa_machine(params, fast):
    """The CC-NUMA runner cell, or (``fast=False``) the same machine run
    by a bare scalar simulator."""
    from repro.numa.machine import NumaMachine
    from repro.runner import JobSpec

    spec = JobSpec.sweep(
        params, "radix", max_refs_per_node=150, overrides={"intensity": 0.2},
        machine="numa",
    )
    if fast:
        return spec.execute()
    agent = StudyAgent(params, sizes=spec.sizes, orgs=[Organization(o) for o in spec.orgs])
    machine = NumaMachine(params, Scheme.V_COMA, spec.build_workload(), agent=agent)
    simulator = Simulator(machine, max_refs_per_node=150)
    simulator.fallback_reason = "fast=False"
    return simulator.run()


class _CustomAgent(TranslationAgent):
    """A subclass the compiled engine cannot know the semantics of."""


def _custom_agent(params, fast):
    summary, _ = run_summary(
        params, Scheme.V_COMA, make_workload("radix", intensity=0.2), _CustomAgent,
        max_refs_per_node=150, fast=fast,
    )
    return summary


class TestFallbackReason:
    """Every run the compiled engine cannot model stays scalar, says
    why, and reports the same numbers as an explicit ``fast=False``."""

    @pytest.mark.parametrize(
        "run, reason",
        [
            (_numa_machine, "custom machine type NumaMachine"),
            (_custom_agent, "unsupported agent _CustomAgent"),
        ],
        ids=["custom-machine", "custom-agent"],
    )
    def test_reason_and_identical_scalar(self, small_params, run, reason):
        result = run(small_params, True)
        assert result.backend == "scalar"
        assert result.fallback_reason == reason
        oracle = run(small_params, False)
        assert oracle.fallback_reason == "fast=False"
        ours, theirs = (r.to_dict() for r in (result, oracle))
        for payload in (ours, theirs):
            payload.pop("backend")
            payload.pop("fallback_reason")
        assert ours == theirs

    def test_timing_agent_refuses_set_associative(self, small_params):
        """The compiled engine models FA and DM timing buffers only;
        fallback_reason relies on TimingAgent never building another."""
        from repro.common.errors import ConfigurationError
        from repro.core.tlb import Organization
        from repro.system.taps import TimingAgent

        with pytest.raises(ConfigurationError):
            TimingAgent(
                small_params, Scheme.L0_TLB, 8, organization=Organization.SET_ASSOCIATIVE
            )
