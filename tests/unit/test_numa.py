"""CC-NUMA baseline machine (paper §2 comparison substrate)."""

import pytest

from repro import CustomWorkload, MachineParams, Scheme, SegmentSpec, Simulator
from repro.common.errors import CapacityError, ProtocolError
from repro.numa import NumaMachine, SHARED_TLB
from repro.system.machine import Machine
from repro.system.refs import READ, WRITE


def build(params, scheme=SHARED_TLB, pages=16):
    def stream(node, ctx):
        return iter(())

    workload = CustomWorkload(
        [SegmentSpec("data", pages * params.page_size)], stream, name="noop"
    )
    return NumaMachine(params, scheme, workload)


def data_addr(machine, offset=0):
    return machine.space["data"].base + offset


class TestBasics:
    def test_shared_tlb_aliases_vcoma_flags(self):
        assert SHARED_TLB is Scheme.V_COMA

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_builds(self, small_params, scheme):
        machine = build(small_params, scheme)
        machine.engine.check_invariants()
        assert len(machine.nodes) == small_params.nodes

    def test_no_frames_for_virtual_home(self, small_params):
        assert not build(small_params, SHARED_TLB).page_map
        machine = build(small_params, Scheme.L0_TLB)
        vpns = list(machine.space["data"].pages(small_params.page_size))
        assert machine.page_map == {vpn: i for i, vpn in enumerate(vpns)}
        assert machine.reverse_map == dict(enumerate(vpns))

    def test_physical_capacity_raises_at_first_unfit_page(self, small_params):
        """A virtual home maps no frames, so only the physical build
        runs out of them."""
        pages = small_params.total_am_pages + 1
        virtual = build(small_params, SHARED_TLB, pages=pages)
        vpn = virtual.space["data"].pages(small_params.page_size)[-1]
        with pytest.raises(CapacityError, match=f"physical memory exhausted allocating VPN {vpn:#x}$"):
            build(small_params, Scheme.L0_TLB, pages=pages)


class TestCoherence:
    def test_read_then_local_hit(self, small_params):
        machine = build(small_params)
        node = machine.nodes[0]
        addr = data_addr(machine)
        first = node.reference(False, addr, now=0)
        assert first >= machine.params.am_hit_latency
        assert node.reference(False, addr, now=0) == 0  # FLC hit

    def test_remote_access_costs_network(self, small_params):
        machine = build(small_params)
        layout = machine.layout
        segment = machine.space["data"]
        remote = next(
            segment.base + i * machine.params.page_size
            for i in range(8)
            if layout.home_node(segment.base + i * machine.params.page_size) != 0
        )
        node = machine.nodes[0]
        cost = node.reference(False, remote, now=0)
        assert cost > machine.params.block_msg_cycles

    def test_write_takes_ownership_and_invalidates(self, small_params):
        machine = build(small_params)
        addr = data_addr(machine)
        machine.nodes[0].reference(False, addr, now=0)
        assert machine.nodes[0].slc.contains(addr)
        machine.nodes[1].reference(True, addr, now=0)
        assert not machine.nodes[0].slc.contains(addr)
        block = machine.layout.block_base(addr)
        assert machine.engine._entries[block].owner == 1

    def test_dirty_owner_supplies_reader(self, small_params):
        machine = build(small_params)
        addr = data_addr(machine)
        machine.nodes[0].reference(True, addr, now=0)
        before = machine.engine.counters["cache_to_cache"]
        machine.nodes[1].reference(False, addr, now=0)
        assert machine.engine.counters["cache_to_cache"] == before + 1
        # Writer keeps a clean copy, readable locally.
        assert machine.nodes[0].slc.contains(addr)

    def test_upgrade_from_shared(self, small_params):
        machine = build(small_params)
        addr = data_addr(machine)
        machine.nodes[0].reference(False, addr, now=0)
        machine.nodes[1].reference(False, addr, now=0)
        before = machine.engine.counters["upgrades"]
        machine.nodes[0].reference(True, addr, now=0)
        assert machine.engine.counters["upgrades"] == before + 1
        assert not machine.nodes[1].slc.contains(addr)

    def test_writeback_tolerates_shared_coherence_block(self, small_params):
        # Two dirty SLC lines inside one coherence block write back in
        # sequence; the second must not blow up.
        machine = build(small_params)
        addr = data_addr(machine)
        machine.nodes[0].reference(True, addr, now=0)
        machine.nodes[0].reference(True, addr + machine.params.slc_block, now=0)
        machine.engine.writeback(0, addr, 0)
        machine.engine.writeback(0, addr + machine.params.slc_block, 0)

    def test_partial_block_writeback_then_foreign_write(self):
        """Two dirty SLC lines of one coherence block: evicting the
        first sends the block home, so the writer must not keep the
        second.  Another node then writes the block, and the writer
        evicting its second line must not find a foreign owner."""
        params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
        machine = build(params)
        writer, other = machine.nodes
        line = params.slc_block
        stride = params.slc_sets * params.slc_block  # same SLC set
        assert params.am_block == 2 * line
        writer.reference(True, data_addr(machine, 0), now=0)
        writer.reference(True, data_addr(machine, line), now=0)
        for way in range(1, params.slc_assoc + 1):  # evict line 0
            writer.reference(False, data_addr(machine, way * stride), now=0)
        other.reference(True, data_addr(machine, 0), now=0)
        for way in range(1, params.slc_assoc + 1):  # evict line 1
            writer.reference(False, data_addr(machine, line + way * stride), now=0)
        block = machine.layout.block_base(data_addr(machine))
        assert machine.engine._entries[block].owner == 1
        assert not writer.slc.contains(data_addr(machine, line))
        machine.engine.check_invariants()

    def test_foreign_owner_writeback_rejected(self, small_params):
        machine = build(small_params)
        addr = data_addr(machine)
        machine.nodes[1].reference(True, addr, now=0)
        with pytest.raises(ProtocolError):
            machine.engine.writeback(0, addr, 0)


class TestPaperMotivation:
    """Paper §2: without migration/replication, capacity misses stay
    remote; the COMA's attraction memory localizes them."""

    def _capacity_workload(self, params):
        # Working set far beyond the SLC, revisited repeatedly.
        span = params.slc_size * 8

        def stream(node, ctx):
            base = ctx.segment("data").base
            for sweep in range(3):
                for off in range(0, span, params.slc_block):
                    yield READ, base + off

        return CustomWorkload(
            [SegmentSpec("data", span)], stream, name="capacity"
        )

    def test_numa_capacity_misses_mostly_remote(self, small_params):
        workload = self._capacity_workload(small_params)
        numa = Simulator(
            NumaMachine(small_params, SHARED_TLB, workload), max_refs_per_node=1500
        ).run()
        coma = Simulator(
            Machine(small_params, Scheme.V_COMA, workload), max_refs_per_node=1500
        ).run()
        numa_b = numa.aggregate_breakdown()
        coma_b = coma.aggregate_breakdown()
        # COMA converts most remote capacity misses into local AM hits.
        assert coma_b.rem_stall < numa_b.rem_stall * 0.6
        assert coma.total_time < numa.total_time
