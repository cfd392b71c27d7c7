"""Unit tests for the columnar timing-kernel helpers: stream
materialization, RNG state marshalling and the compiled backend's
loader.  Epoch boundaries (where ``max_refs_per_node`` cuts a stream)
are cut in C; ``tests/integration/test_timing_equivalence.py`` checks
them against the scalar simulator.
"""

import array
import random

import pytest

from repro.core.timing_kernels import (
    RNG_STATE_WORDS,
    backend_status,
    get_backend,
    materialize_stream,
    rng_state_words,
)
from repro.system.refs import BARRIER, READ, WRITE

R, W, B = READ, WRITE, BARRIER


class TestMaterializeStream:
    def test_columns(self):
        ops, vals = materialize_stream([(R, 4096), (W, -1), (B, 3)])
        assert list(ops) == [R, W, B]
        assert list(vals) == [4096, -1, 3]
        # Both columns must expose the buffer protocol for ffi.from_buffer.
        assert isinstance(ops, array.array) and isinstance(vals, array.array)
        assert memoryview(ops).itemsize == 1
        assert memoryview(vals).itemsize == 8

    def test_empty(self):
        ops, vals = materialize_stream(iter(()))
        assert len(ops) == 0 and len(vals) == 0


class TestRngMarshalling:
    def test_round_trip_preserves_sequence(self):
        rng = random.Random(1234)
        rng.random()  # advance off the seed point
        words = rng_state_words(rng)
        assert len(words) == RNG_STATE_WORDS
        expected = [rng.getrandbits(32) for _ in range(10)]
        fresh = random.Random()
        fresh.setstate((3, tuple(words), None))
        assert [fresh.getrandbits(32) for _ in range(10)] == expected

    def test_rejects_pending_gauss(self):
        rng = random.Random(5)
        rng.gauss(0, 1)  # leaves a cached second variate in the state
        with pytest.raises(ValueError):
            rng_state_words(rng)


needs_backend = pytest.mark.skipif(
    get_backend() is None, reason=f"compiled backend unavailable: {backend_status()}"
)


@needs_backend
class TestCompiledMersenneTwister:
    """The C engine must continue the exact CPython draw sequence."""

    def test_genrand_matches_cpython(self):
        backend = get_backend()
        rng = random.Random(98_08)  # the paper's tech-report number
        words = rng_state_words(rng)
        n = 1000
        out = backend.ffi.new("uint32_t[]", n)
        state = backend.ffi.from_buffer("uint32_t[]", words)
        backend.lib.fs_rng_selftest(state, out, n)
        assert list(out) == [rng.getrandbits(32) for _ in range(n)]

    @pytest.mark.parametrize("seed", (0, 1, 0xFFFF_FFFF, 1 << 32, 0x1234_5678_9ABC_DEF0, (1 << 64) - 1))
    def test_seeding_matches_cpython(self, seed):
        """random.Random(seed) seeded in C: same state words, and the
        same draws across the first twist."""
        backend = get_backend()
        rng = random.Random(seed)
        n = 1000
        state = backend.ffi.new("uint32_t[]", RNG_STATE_WORDS)
        out = backend.ffi.new("uint32_t[]", n)
        backend.lib.fs_seed_selftest(seed, state, out, n)
        assert list(state) == list(rng.getstate()[1])
        assert list(out) == [rng.getrandbits(32) for _ in range(n)]

    def test_shuffle_matches_cpython(self):
        backend = get_backend()
        for seed in (0, 1, 42):
            rng = random.Random(seed)
            words = rng_state_words(rng)
            n = 97
            arr = backend.ffi.new("int32_t[]", list(range(n)))
            state = backend.ffi.from_buffer("uint32_t[]", words)
            backend.lib.fs_shuffle_selftest(state, arr, n)
            expected = list(range(n))
            rng.shuffle(expected)
            assert list(arr) == expected
