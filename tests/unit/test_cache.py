"""Generic set-associative cache model."""

import pytest

from repro.cache import CLEAN_EXCLUSIVE, CLEAN_SHARED, DIRTY, Cache
from repro.common.errors import ConfigurationError


def make_cache(size=256, block=32, assoc=2):
    return Cache(size, block, assoc, name="t")


class TestConstruction:
    def test_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            Cache(100, 32, 2)  # size not multiple of block*assoc
        with pytest.raises(ConfigurationError):
            Cache(0, 32, 1)
        with pytest.raises(ConfigurationError):
            Cache(96, 32, 1)  # 3 sets, not a power of two
        with pytest.raises(ConfigurationError):
            Cache(256, 24, 1)  # block not a power of two

    def test_set_count(self):
        assert make_cache().sets == 4


class TestLookupInsert:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(0) is False
        c.insert(0)
        assert c.lookup(0) is True
        assert c.misses == 1 and c.hits == 1

    def test_block_granularity(self):
        c = make_cache()
        c.insert(0)
        assert c.lookup(31) is True  # same 32 B block
        assert c.lookup(32) is False  # next block

    def test_lru_eviction_order(self):
        c = make_cache()  # 2-way
        set_stride = c.sets * c.block_size
        a, b, d = 0, set_stride, 2 * set_stride  # same set
        c.insert(a)
        c.insert(b)
        c.lookup(a)  # a is now MRU
        victim = c.insert(d)
        assert victim.block == b

    def test_insert_existing_refreshes_without_eviction(self):
        c = make_cache()
        c.insert(0, DIRTY)
        assert c.insert(0, CLEAN_SHARED) is None
        # refill never downgrades state
        assert c.state_of(0) == DIRTY

    def test_victim_carries_state(self):
        c = Cache(64, 32, 1, name="dm")  # direct mapped, 2 sets
        c.insert(0, DIRTY)
        victim = c.insert(64)  # same set 0
        assert victim == (0, DIRTY)

    def test_contains_no_side_effects(self):
        c = make_cache()
        c.insert(0)
        before = (c.hits, c.misses)
        assert c.contains(0) and not c.contains(32)
        assert (c.hits, c.misses) == before

    def test_lookup_without_touch_keeps_lru(self):
        c = make_cache()
        set_stride = c.sets * c.block_size
        a, b, d = 0, set_stride, 2 * set_stride
        c.insert(a)
        c.insert(b)
        c.lookup(a, touch=False)  # a stays LRU
        victim = c.insert(d)
        assert victim.block == a


class TestStates:
    def test_set_state(self):
        c = make_cache()
        c.insert(0, CLEAN_SHARED)
        c.set_state(0, DIRTY)
        assert c.state_of(0) == DIRTY

    def test_set_state_absent_raises(self):
        with pytest.raises(KeyError):
            make_cache().set_state(0, DIRTY)

    def test_state_of_absent_is_none(self):
        assert make_cache().state_of(0) is None


class TestInvalidation:
    def test_invalidate_span(self):
        c = make_cache()
        for addr in (0, 32, 64):
            c.insert(addr, DIRTY)
        evicted = list(c.invalidate_span(0, 64))  # blocks 0 and 32
        assert {e.block for e in evicted} == {0, 32}
        assert c.contains(64)

    def test_downgrade_span_yields_only_dirty(self):
        c = make_cache()
        c.insert(0, DIRTY)
        c.insert(32, CLEAN_EXCLUSIVE)
        flushed = list(c.downgrade_span(0, 64))
        assert [e.block for e in flushed] == [0]
        assert c.state_of(0) == CLEAN_SHARED
        assert c.state_of(32) == CLEAN_SHARED


class TestStats:
    def test_occupancy_and_residents(self):
        c = make_cache()
        c.insert(0)
        c.insert(32)
        assert sorted(c.resident_blocks()) == [0, 32]

    def test_miss_rate(self):
        c = make_cache()
        c.lookup(0)
        c.insert(0)
        c.lookup(0)
        assert c.miss_rate == pytest.approx(0.5)
        assert c.accesses == 2
