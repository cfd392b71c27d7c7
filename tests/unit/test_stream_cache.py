"""Unit tests for the grid-level stream-sharing LRU.

:class:`~repro.core.timing_kernels.StreamCache` lets every cell of a
grid that shares a workload reuse one materialized ``(ops, vals)``
column pair.  The properties that matter: LRU hit/evict/cap behavior
under the ``REPRO_STREAM_CACHE_MB`` byte budget, and keying by the
*workload* identity (``JobSpec.trace_hash()``) rather than the grid
cell, so cells that differ only in bank sizes/orgs share streams while
anything that changes the reference stream itself (machine params,
page size, workload knobs, truncation) gets its own entry.
"""

import array

import pytest

from repro import MachineParams
from repro.core.timing_kernels import (
    STREAM_CACHE_ENV,
    StreamCache,
    get_backend,
    materialize_shared,
    stream_cache,
)
from repro.core.tlb import Organization
from repro.runner import JobSpec


def columns(n):
    """A fake materialized column pair costing exactly 9*n bytes."""
    return array.array("B", [0] * n), array.array("q", range(n))


class TestLRU:
    def test_hit_returns_same_object_and_counts(self):
        cache = StreamCache()
        cols = columns(4)
        cache.put("a", cols)
        assert cache.get("a") is cols
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = StreamCache()
        assert cache.get("nope") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_byte_accounting(self):
        cache = StreamCache()
        cache.put("a", columns(10))
        assert cache.total_bytes == 90  # 1 + 8 bytes per reference
        cache.put("a", columns(5))  # replacement, not accumulation
        assert cache.total_bytes == 45 and len(cache) == 1

    def test_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(250 / (1024 * 1024)))
        cache = StreamCache()
        cache.put("a", columns(10))  # 90 bytes
        cache.put("b", columns(10))  # 180 bytes
        assert cache.get("a") is not None  # refresh a: b is now LRU
        cache.put("c", columns(10))  # 270 > 250: evict b
        assert cache.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_oversized_entry_never_resident(self, monkeypatch):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(50 / (1024 * 1024)))
        cache = StreamCache()
        cache.put("big", columns(10))  # 90 bytes > 50-byte cap
        assert len(cache) == 0 and cache.total_bytes == 0

    def test_cap_env_read_per_call(self, monkeypatch):
        cache = StreamCache()
        cache.put("a", columns(10))
        monkeypatch.setenv(STREAM_CACHE_ENV, str(90 / (1024 * 1024)))
        cache.put("b", columns(10))  # 180 > 90: "a" evicted under new cap
        assert cache.get("a") is None and cache.get("b") is not None

    def test_bad_env_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(STREAM_CACHE_ENV, "not-a-number")
        assert StreamCache.max_bytes() == 256 * 1024 * 1024

    def test_clear(self):
        cache = StreamCache()
        cache.put("a", columns(4))
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes == 0
        assert cache.get("a") is None


class TestMaterializeShared:
    def test_none_key_bypasses_cache(self):
        cache = stream_cache()
        cache.clear()
        before = (cache.hits, cache.misses)
        out = materialize_shared(None, 0, lambda: [(0, 1), (1, 2)])
        assert list(out[1]) == [1, 2]
        assert (cache.hits, cache.misses) == before

    def test_factory_called_once_per_key(self):
        cache = stream_cache()
        cache.clear()
        calls = []

        def factory():
            calls.append(1)
            return [(0, 7), (0, 9)]

        first = materialize_shared("wk", 3, factory)
        second = materialize_shared("wk", 3, factory)
        assert len(calls) == 1
        assert second is first
        # A different node of the same workload is a different stream.
        materialize_shared("wk", 4, factory)
        assert len(calls) == 2
        cache.clear()


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


class TestKeyedByWorkloadNotGridCell:
    """The shared key is ``JobSpec.trace_hash()``: bank geometry and
    timing knobs must not split the cache; stream-shaping knobs must."""

    def test_bank_grids_share_a_key(self, params):
        base = JobSpec.sweep(params, "radix", sizes=(8, 32), max_refs_per_node=100)
        other = JobSpec.sweep(
            params,
            "radix",
            sizes=(16, 64, 256),
            orgs=(Organization.SET_ASSOCIATIVE, Organization.DIRECT_MAPPED),
            max_refs_per_node=100,
        )
        assert base.trace_hash() == other.trace_hash()

    def test_timing_cells_share_the_sweep_key(self, params):
        sweep = JobSpec.sweep(params, "radix", max_refs_per_node=100)
        timing_a = JobSpec.timing(
            params, "V-COMA", "radix", 8, max_refs_per_node=100
        )
        timing_b = JobSpec.timing(
            params,
            "L0-TLB",
            "radix",
            64,
            organization=Organization.DIRECT_MAPPED,
            max_refs_per_node=100,
        )
        assert timing_a.trace_hash() == timing_b.trace_hash()
        # Timing and sweep kinds share streams too (same trace identity).
        assert sweep.trace_hash() == timing_a.trace_hash()

    def test_stream_shaping_knobs_split_the_key(self, params):
        base = JobSpec.sweep(params, "radix", max_refs_per_node=100)
        assert (
            JobSpec.sweep(params, "fft", max_refs_per_node=100).trace_hash()
            != base.trace_hash()
        )
        assert (
            JobSpec.sweep(params, "radix", max_refs_per_node=200).trace_hash()
            != base.trace_hash()
        )
        assert (
            JobSpec.sweep(
                params, "radix", max_refs_per_node=100,
                overrides={"intensity": 0.7},
            ).trace_hash()
            != base.trace_hash()
        )
        other_params = MachineParams.scaled_down(factor=64, nodes=4, page_size=512)
        assert (
            JobSpec.sweep(other_params, "radix", max_refs_per_node=100).trace_hash()
            != base.trace_hash()
        )

    def test_grid_materializes_each_workload_stream_once(self, params):
        """Three bank grids over one workload: one materialization per
        node, the rest are LRU hits.  Without the compiled backend the
        scalar engine reads the generators and materializes nothing."""
        cache = stream_cache()
        cache.clear()
        hits0, misses0 = cache.hits, cache.misses
        specs = [
            JobSpec.sweep(params, "radix", sizes=sizes, max_refs_per_node=100,
                          overrides={"intensity": 0.2})
            for sizes in ((8,), (16, 32), (64,))
        ]
        for spec in specs:
            spec.execute()
        new_misses = cache.misses - misses0
        new_hits = cache.hits - hits0
        cache.clear()
        if get_backend() is None:
            assert (new_misses, new_hits) == (0, 0)
            return
        assert new_misses == params.nodes, "each node's stream cached once"
        assert new_hits == params.nodes * (len(specs) - 1)
