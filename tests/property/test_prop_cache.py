"""Property tests: Cache against an explicit LRU reference model."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CLEAN_SHARED, DIRTY, Cache

BLOCK = 32
SETS = 4
ASSOC = 2
SIZE = BLOCK * SETS * ASSOC

addresses = st.integers(min_value=0, max_value=SIZE * 8)
streams = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert", "insert_dirty"]), addresses),
    max_size=200,
)


class ModelCache:
    """Dead-simple LRU model: one OrderedDict per set."""

    def __init__(self):
        self.sets = [OrderedDict() for _ in range(SETS)]

    @staticmethod
    def block(addr):
        return addr & ~(BLOCK - 1)

    @staticmethod
    def index(addr):
        return (addr // BLOCK) % SETS

    def lookup(self, addr):
        s, b = self.sets[self.index(addr)], self.block(addr)
        if b in s:
            s.move_to_end(b)
            return True
        return False

    def insert(self, addr, state):
        s, b = self.sets[self.index(addr)], self.block(addr)
        victim = None
        if b in s:
            s[b] = max(s[b], state)
            s.move_to_end(b)
            return None
        if len(s) >= ASSOC:
            victim = s.popitem(last=False)
        s[b] = state
        return victim


@given(stream=streams)
@settings(max_examples=150, deadline=None)
def test_cache_matches_lru_model(stream):
    cache = Cache(SIZE, BLOCK, ASSOC)
    model = ModelCache()
    for op, addr in stream:
        if op == "lookup":
            assert cache.lookup(addr) == model.lookup(addr)
        elif op == "insert":
            got = cache.insert(addr, CLEAN_SHARED)
            want = model.insert(addr, CLEAN_SHARED)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.block, got.state) == want
        else:
            got = cache.insert(addr, DIRTY)
            want = model.insert(addr, DIRTY)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.block, got.state) == want
        # Structural agreement after every step.
        assert sorted(cache.resident_blocks()) == sorted(
            b for s in model.sets for b in s
        )


@given(stream=st.lists(addresses, max_size=150))
@settings(max_examples=100, deadline=None)
def test_occupancy_bounded(stream):
    cache = Cache(SIZE, BLOCK, ASSOC)
    for addr in stream:
        cache.insert(addr)
        assert len(list(cache.resident_blocks())) <= SETS * ASSOC


@given(stream=st.lists(addresses, min_size=1, max_size=150))
@settings(max_examples=100, deadline=None)
def test_inserted_block_resident_until_capacity_evicts(stream):
    cache = Cache(SIZE, BLOCK, ASSOC)
    for addr in stream:
        cache.insert(addr)
        assert cache.contains(addr)

