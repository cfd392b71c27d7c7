"""AttractionMemory: states, LRU, victim policy."""

import pytest

from repro.coma.attraction import AttractionMemory
from repro.coma.states import AMState
from repro.common.errors import ProtocolError


@pytest.fixture
def am(tiny_layout):
    return AttractionMemory(tiny_layout, assoc=4, node=0)


def blocks_in_same_set(layout, count):
    """Distinct block addresses mapping to AM set 0."""
    stride = layout.am_sets << layout.block_bits
    return [i * stride for i in range(count)]


class TestLookup:
    def test_miss_returns_invalid(self, am):
        assert am.lookup(0) is AMState.INVALID
        assert am.misses == 1

    def test_install_then_hit(self, am):
        am.install(0, AMState.MASTER_SHARED)
        assert am.lookup(0) is AMState.MASTER_SHARED
        assert am.hits == 1

    def test_block_granularity(self, am, tiny_layout):
        am.install(0, AMState.SHARED)
        within = (1 << tiny_layout.block_bits) - 1
        assert am.lookup(within) is AMState.SHARED

    def test_state_of_no_stats(self, am):
        am.install(0, AMState.EXCLUSIVE)
        before = am.accesses
        assert am.state_of(0) is AMState.EXCLUSIVE
        assert am.accesses == before


class TestStates:
    def test_set_state_transitions(self, am):
        am.install(0, AMState.EXCLUSIVE)
        am.set_state(0, AMState.MASTER_SHARED)
        assert am.state_of(0) is AMState.MASTER_SHARED

    def test_set_state_invalid_removes(self, am):
        am.install(0, AMState.SHARED)
        am.set_state(0, AMState.INVALID)
        assert not am.contains(0)

    def test_set_state_absent_raises(self, am):
        with pytest.raises(ProtocolError):
            am.set_state(0, AMState.SHARED)

    def test_install_invalid_rejected(self, am):
        with pytest.raises(ProtocolError):
            am.install(0, AMState.INVALID)

    def test_master_flags(self):
        assert AMState.MASTER_SHARED.is_master and AMState.EXCLUSIVE.is_master
        assert not AMState.SHARED.is_master
        assert AMState.EXCLUSIVE.writable and not AMState.MASTER_SHARED.writable


class TestVictims:
    def test_no_victim_when_free(self, am):
        assert am.choose_victim(0) is None

    def test_prefers_shared_over_master(self, am, tiny_layout):
        blocks = blocks_in_same_set(tiny_layout, 4)
        am.install(blocks[0], AMState.MASTER_SHARED)
        am.install(blocks[1], AMState.SHARED)
        am.install(blocks[2], AMState.EXCLUSIVE)
        am.install(blocks[3], AMState.SHARED)
        victim = am.choose_victim(blocks[0])
        assert victim.state is AMState.SHARED
        assert victim.block == blocks[1]  # oldest shared first

    def test_falls_back_to_lru_master(self, am, tiny_layout):
        blocks = blocks_in_same_set(tiny_layout, 4)
        for b in blocks:
            am.install(b, AMState.MASTER_SHARED)
        victim = am.choose_victim(blocks[0])
        assert victim == (blocks[0], AMState.MASTER_SHARED)

    def test_droppable_victim_none_when_all_masters(self, am, tiny_layout):
        blocks = blocks_in_same_set(tiny_layout, 4)
        for b in blocks:
            am.install(b, AMState.EXCLUSIVE)
        assert am.droppable_victim(blocks[0]) is None

    def test_install_into_full_set_raises(self, am, tiny_layout):
        blocks = blocks_in_same_set(tiny_layout, 5)
        for b in blocks[:4]:
            am.install(b, AMState.SHARED)
        with pytest.raises(ProtocolError):
            am.install(blocks[4], AMState.SHARED)

    def test_has_invalid_slot(self, am, tiny_layout):
        blocks = blocks_in_same_set(tiny_layout, 4)
        assert am.has_invalid_slot(blocks[0])
        for b in blocks:
            am.install(b, AMState.SHARED)
        assert not am.has_invalid_slot(blocks[0])
        assert am.free_ways(blocks[0]) == 0


class TestEviction:
    def test_evict_returns_victim(self, am):
        am.install(0, AMState.SHARED)
        assert am.evict(0) == (0, AMState.SHARED)
        assert not am.contains(0)

    def test_evict_absent_raises(self, am):
        with pytest.raises(ProtocolError):
            am.evict(0)

    def test_invalidate_absent_is_none(self, am):
        assert am.invalidate(0) is None

    def test_occupancy_bookkeeping(self, am, tiny_layout):
        blocks = blocks_in_same_set(tiny_layout, 3)
        for b in blocks:
            am.install(b, AMState.SHARED)
        assert am.free_ways(blocks[0]) == am.assoc - 3
        assert sorted(b for b, _ in am.resident_blocks()) == sorted(blocks)
