"""COMA-F protocol engine: state transitions, timing, injection."""

import pytest

from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ProtocolError
from repro.coma.protocol import ProtocolEngine
from repro.coma.states import AMState
from repro.interconnect.crossbar import Crossbar


@pytest.fixture
def engine(tiny_params, tiny_layout):
    return ProtocolEngine(tiny_params, tiny_layout, Crossbar(tiny_params))


def addr_homed_at(layout, home, color_offset=0, block=0):
    """A block address homed at ``home``; distinct ``color_offset``
    values give distinct pages of the *same* page color (hence the same
    attraction-memory sets), which is what the replacement tests need."""
    vpn = home + color_offset * layout.global_page_sets
    return (vpn << layout.page_bits) + block * (1 << layout.block_bits)


class TestPreload:
    def test_master_lands_at_home(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        owner = engine.preload_block(addr)
        assert owner == 1
        assert engine.ams[1].state_of(addr) is AMState.MASTER_SHARED
        assert engine.directories[1].entry(addr).owner == 1

    def test_preload_idempotent(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        assert engine.preload_block(addr) == 0
        assert engine.preload_block(addr) == 0
        assert len(list(engine.ams[0].resident_blocks())) == 1

    def test_overflow_spreads_to_other_nodes(self, engine, tiny_layout):
        # Fill home 0's set (assoc=4) with same-color pages, then more.
        addrs = [addr_homed_at(tiny_layout, 0, color_offset=i) for i in range(6)]
        owners = [engine.preload_block(a) for a in addrs]
        assert owners[:4] == [0, 0, 0, 0]
        assert owners[4:] == [1, 1]

    def test_preload_capacity_error_when_full(self, engine, tiny_layout):
        assoc = engine.params.am_assoc
        addrs = [
            addr_homed_at(tiny_layout, 0, color_offset=i)
            for i in range(assoc * engine.params.nodes + 1)
        ]
        for a in addrs[:-1]:
            engine.preload_block(a)
        with pytest.raises(CapacityError):
            engine.preload_block(addrs[-1])


class TestReadPath:
    def test_local_hit(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        outcome = engine.fetch(0, addr, is_write=False, now=0)
        assert outcome.remote is False
        assert outcome.cycles == engine.params.am_hit_latency
        engine.check_invariants()

    def test_remote_read_installs_shared(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        engine.preload_block(addr)
        outcome = engine.fetch(0, addr, is_write=False, now=0)
        assert outcome.remote is True
        assert engine.ams[0].state_of(addr) is AMState.SHARED
        assert engine.ams[1].state_of(addr) is AMState.MASTER_SHARED
        assert engine.directories[1].entry(addr).sharers == {0}
        engine.check_invariants()

    def test_remote_read_cost_includes_block_message(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        engine.preload_block(addr)
        outcome = engine.fetch(0, addr, is_write=False, now=0)
        p = engine.params
        expected = (
            p.am_hit_latency  # local miss detection
            + p.request_msg_cycles  # request to home
            + p.directory_lookup_latency
            + p.am_hit_latency  # home AM access
            + p.block_msg_cycles  # block reply
        )
        assert outcome.cycles == expected

    def test_read_downgrades_exclusive_owner(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.fetch(1, addr, is_write=True, now=0)  # node 1 takes EX
        assert engine.ams[1].state_of(addr) is AMState.EXCLUSIVE
        engine.fetch(0, addr, is_write=False, now=0)
        assert engine.ams[1].state_of(addr) is AMState.MASTER_SHARED
        assert engine.ams[0].state_of(addr) is AMState.SHARED
        engine.check_invariants()


class TestWritePath:
    def test_remote_write_takes_exclusive(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        engine.preload_block(addr)
        outcome = engine.fetch(0, addr, is_write=True, now=0)
        assert outcome.remote is True
        assert engine.ams[0].state_of(addr) is AMState.EXCLUSIVE
        assert engine.ams[1].state_of(addr) is AMState.INVALID
        entry = engine.directories[1].entry(addr)
        assert entry.owner == 0 and not entry.sharers
        engine.check_invariants()

    def test_write_invalidates_all_sharers(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.fetch(1, addr, is_write=False, now=0)  # node 1 shares
        assert engine.directories[0].entry(addr).sharers == {1}
        engine.fetch(1, addr, is_write=True, now=0)  # upgrade via hit path
        assert engine.ams[1].state_of(addr) is AMState.EXCLUSIVE
        assert engine.ams[0].state_of(addr) is AMState.INVALID
        engine.check_invariants()

    def test_local_write_hit_on_exclusive(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.fetch(0, addr, is_write=True, now=0)  # upgrade MS -> EX
        outcome = engine.fetch(0, addr, is_write=True, now=0)
        assert outcome.remote is False

    def test_upgrade_for_write_from_shared(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        engine.preload_block(addr)
        engine.fetch(0, addr, is_write=False, now=0)  # SHARED at node 0
        outcome = engine.upgrade_for_write(0, addr, now=0)
        assert outcome.remote is True
        assert engine.ams[0].state_of(addr) is AMState.EXCLUSIVE
        assert engine.ams[1].state_of(addr) is AMState.INVALID
        engine.check_invariants()

    def test_upgrade_on_exclusive_is_local(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.fetch(0, addr, is_write=True, now=0)
        outcome = engine.upgrade_for_write(0, addr, now=0)
        assert outcome.remote is False

    def test_upgrade_without_copy_is_inclusion_bug(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        with pytest.raises(ProtocolError):
            engine.upgrade_for_write(1, addr, now=0)


class TestWriteback:
    def test_writeback_requires_master(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        engine.preload_block(addr)
        engine.fetch(0, addr, is_write=True, now=0)
        engine.writeback(0, addr, now=0)  # EX at node 0: fine
        assert engine.counters["slc_writebacks_to_am"] == 1

    def test_writeback_on_shared_raises(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=1)
        engine.preload_block(addr)
        engine.fetch(0, addr, is_write=False, now=0)
        with pytest.raises(ProtocolError):
            engine.writeback(0, addr, now=0)


class TestReplacementAndInjection:
    def _fill_set(self, engine, layout, node, count, write=False):
        """Touch ``count`` same-color remote blocks from ``node``."""
        other = 1 - node
        addrs = [addr_homed_at(layout, other, color_offset=i) for i in range(count)]
        for a in addrs:
            engine.preload_block(a)
        for a in addrs:
            engine.fetch(node, a, is_write=write, now=0)
        return addrs

    def test_shared_replacement_drops_silently(self, engine, tiny_layout):
        assoc = engine.params.am_assoc
        addrs = self._fill_set(engine, tiny_layout, node=0, count=assoc + 1)
        # Node 0's set overflowed: one SHARED replica was dropped and
        # the directory no longer lists node 0 for it.
        resident = [a for a in addrs if engine.ams[0].contains(a)]
        assert len(resident) == assoc
        dropped = [a for a in addrs if not engine.ams[0].contains(a)]
        assert len(dropped) == 1
        entry = engine.directories[1].entry(dropped[0])
        assert 0 not in entry.sharers
        assert engine.counters["sharer_drops"] == 1
        engine.check_invariants()

    def test_master_replacement_injects(self, engine, tiny_layout):
        assoc = engine.params.am_assoc
        # Node 0 takes exclusive ownership of assoc+1 same-set blocks:
        # the last fetch must evict a master, which gets injected.
        addrs = self._fill_set(engine, tiny_layout, node=0, count=assoc + 1, write=True)
        assert engine.counters["injections"] >= 1
        # Every block still has exactly one master somewhere.
        for a in addrs:
            owner = engine.directories[1].entry(a).owner
            assert owner is not None
            assert engine.ams[owner].state_of(a).is_master
        engine.check_invariants()

    def test_injection_capacity_error_when_no_room(self, tiny_params, tiny_layout):
        engine = ProtocolEngine(tiny_params, tiny_layout, Crossbar(tiny_params))
        assoc = tiny_params.am_assoc
        nodes = tiny_params.nodes
        # Fill one global set completely with masters owned by node 0
        # and node 1 (preload spreads), then force one more master out.
        total = assoc * nodes
        addrs = [addr_homed_at(tiny_layout, 0, color_offset=i) for i in range(total)]
        for a in addrs:
            engine.preload_block(a)
        # All slots of this global set hold masters; taking exclusive
        # ownership of one more block in the same set must fail.
        extra = addr_homed_at(tiny_layout, 0, color_offset=total)
        with pytest.raises(CapacityError):
            engine.preload_block(extra)


class TestInvariantChecker:
    def test_detects_double_master(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.ams[1].install(addr, AMState.EXCLUSIVE)  # corrupt
        with pytest.raises(ProtocolError):
            engine.check_invariants()

    def test_detects_unregistered_sharer(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.ams[1].install(addr, AMState.SHARED)  # not in directory
        with pytest.raises(ProtocolError):
            engine.check_invariants()

    def test_clean_state_passes(self, engine, tiny_layout):
        addr = addr_homed_at(tiny_layout, home=0)
        engine.preload_block(addr)
        engine.fetch(1, addr, is_write=False, now=0)
        engine.check_invariants()


class TestInvariantsMidRun:
    def test_invariants_hold_after_every_reference(self, small_params, small_layout):
        """Four nodes each write the same 20 blocks, interleaved one
        reference at a time; directory and AMs agree after every one."""
        engine = ProtocolEngine(small_params, small_layout, Crossbar(small_params))
        addrs = [i * 128 for i in range(20)]
        for addr in addrs:
            engine.preload_block(addr)
        engine.check_invariants()
        now = 0
        for addr in addrs:
            for node in range(small_params.nodes):
                if engine.ams[node].state_of(addr).readable:
                    outcome = engine.upgrade_for_write(node, addr, now)
                else:
                    outcome = engine.fetch(node, addr, is_write=True, now=now)
                now += outcome.cycles
                engine.check_invariants()
                assert engine.ams[node].state_of(addr) is AMState.EXCLUSIVE
