"""A generic set-associative cache model (tags + small per-block state).

Addresses are integers; the cache works on *block base addresses* —
callers pass any byte address and the cache masks it down.  Replacement
is LRU (the per-set dict keeps access order: least-recently-used first).
Data values are never simulated; only hit/miss behaviour and per-block
state matter to the study.

Each resident block carries one small integer ``state`` whose meaning is
the caller's: the FLC ignores it (write-through, no dirty data), the SLC
uses :data:`CLEAN_SHARED` / :data:`CLEAN_EXCLUSIVE` / :data:`DIRTY` so
stores can complete locally only when the attraction memory already owns
the block exclusively.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.common.errors import ConfigurationError

#: Block states used by the write-back SLC (the FLC always uses
#: CLEAN_SHARED).  DIRTY implies exclusive ownership at the AM level.
CLEAN_SHARED = 0
CLEAN_EXCLUSIVE = 1
DIRTY = 2


class EvictedBlock(NamedTuple):
    """A block pushed out of the cache, with the state it had."""

    block: int
    state: int


class Cache:
    """Set-associative, LRU, tags-only cache.

    Parameters
    ----------
    size, block_size, assoc:
        Geometry in bytes/ways; ``size`` must equal
        ``sets * block_size * assoc`` with a power-of-two set count.
    name:
        Used in ``repr`` and error messages only.
    """

    __slots__ = (
        "name",
        "size",
        "block_size",
        "assoc",
        "sets",
        "_offset_mask",
        "_set_mask",
        "_block_shift",
        "_sets",
        "hits",
        "misses",
    )

    def __init__(self, size: int, block_size: int, assoc: int, name: str = "cache") -> None:
        if size <= 0 or block_size <= 0 or assoc <= 0:
            raise ConfigurationError("cache geometry must be positive")
        if size % (block_size * assoc):
            raise ConfigurationError(
                f"{name}: size {size} not a multiple of block*assoc {block_size * assoc}"
            )
        sets = size // (block_size * assoc)
        if sets & (sets - 1):
            raise ConfigurationError(f"{name}: set count {sets} must be a power of two")
        if block_size & (block_size - 1):
            raise ConfigurationError(f"{name}: block size must be a power of two")
        self.name = name
        self.size = size
        self.block_size = block_size
        self.assoc = assoc
        self.sets = sets
        self._offset_mask = block_size - 1
        self._set_mask = sets - 1
        self._block_shift = block_size.bit_length() - 1
        # _sets[i]: block base -> state, in LRU order (oldest first).
        self._sets: List[Dict[int, int]] = [dict() for _ in range(sets)]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def block_base(self, addr: int) -> int:
        return addr & ~self._offset_mask

    def _set_for(self, addr: int) -> Dict[int, int]:
        return self._sets[(addr >> self._block_shift) & self._set_mask]

    # ------------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> bool:
        """Probe for the block holding ``addr``; counts a hit or miss.

        ``touch`` refreshes LRU order on a hit (pass False for snoops).
        """
        block = addr & ~self._offset_mask
        cache_set = self._sets[(addr >> self._block_shift) & self._set_mask]
        if block in cache_set:
            self.hits += 1
            if touch:
                cache_set[block] = cache_set.pop(block)
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Presence check with no statistics or LRU side effects."""
        return (addr & ~self._offset_mask) in self._set_for(addr)

    def state_of(self, addr: int) -> Optional[int]:
        """Current state of the resident block, or None when absent."""
        return self._sets[(addr >> self._block_shift) & self._set_mask].get(
            addr & ~self._offset_mask
        )

    def insert(self, addr: int, state: int = CLEAN_SHARED) -> Optional[EvictedBlock]:
        """Fill the block holding ``addr``; returns the LRU victim when
        the set was full (the caller decides whether a dirty victim
        produces a writeback)."""
        block = addr & ~self._offset_mask
        cache_set = self._sets[(addr >> self._block_shift) & self._set_mask]
        if block in cache_set:
            # Refresh LRU; never downgrade state on a refill.
            old = cache_set.pop(block)
            cache_set[block] = max(old, state)
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim_block = next(iter(cache_set))
            victim = EvictedBlock(victim_block, cache_set.pop(victim_block))
        cache_set[block] = state
        return victim

    def set_state(self, addr: int, state: int) -> None:
        """Change the state of a resident block (e.g. write hit marks
        DIRTY, a coherence downgrade marks CLEAN_SHARED)."""
        block = addr & ~self._offset_mask
        cache_set = self._set_for(addr)
        if block not in cache_set:
            raise KeyError(f"{self.name}: set_state on absent block {block:#x}")
        cache_set[block] = state

    def invalidate_span(self, base: int, span: int) -> Iterator[EvictedBlock]:
        """Invalidate every cache block inside ``[base, base+span)`` —
        used to keep inclusion when a larger upper-level block leaves."""
        start = base & ~self._offset_mask
        sets = self._sets
        shift = self._block_shift
        set_mask = self._set_mask
        for block in range(start, base + span, self.block_size):
            state = sets[(block >> shift) & set_mask].pop(block, None)
            if state is not None:
                yield EvictedBlock(block, state)

    def downgrade_span(self, base: int, span: int, state: int = CLEAN_SHARED) -> Iterator[EvictedBlock]:
        """Downgrade every resident block inside ``[base, base+span)`` to
        ``state``, yielding blocks that were DIRTY (they must be written
        back)."""
        start = base & ~self._offset_mask
        for block in range(start, base + span, self.block_size):
            cache_set = self._set_for(block)
            old = cache_set.get(block)
            if old is None:
                continue
            if old == DIRTY:
                yield EvictedBlock(block, old)
            cache_set[block] = state

    def resident_blocks(self) -> Iterator[int]:
        for cache_set in self._sets:
            yield from cache_set.keys()

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.size}B, {self.assoc}-way, "
            f"{self.block_size}B blocks, miss_rate={self.miss_rate:.3f})"
        )
