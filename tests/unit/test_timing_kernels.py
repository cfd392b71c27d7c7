"""Unit tests for the columnar timing-kernel helpers.

The epoch slicer is the contract between the Python driver and the
compiled engine: ``max_refs_per_node`` truncation must land on exactly
the reference the scalar simulator would have stopped at, and a sync
op sitting exactly at the truncation point must NOT be executed (the
scalar loop checks ``refs_done`` before consuming the sync).  Getting
any of these boundaries wrong shifts every downstream barrier/lock
interaction, so they get exhaustive coverage here, independent of the
heavyweight differential suite.
"""

import array
import random

import pytest

from repro.core.timing_kernels import (
    EPOCH_END,
    EPOCH_TRUNCATED,
    NO_NUMPY_ENV,
    RNG_STATE_WORDS,
    backend_status,
    epoch_spans,
    get_backend,
    get_numpy,
    load_rng_state,
    materialize_stream,
    rng_state_words,
    sync_positions,
)
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE

R, W, B, L, U = READ, WRITE, BARRIER, LOCK, UNLOCK


class TestEpochSpans:
    def test_no_syncs(self):
        assert epoch_spans([R, W, R]) == [(0, 3, EPOCH_END)]

    def test_empty_stream(self):
        assert epoch_spans([]) == [(0, 0, EPOCH_END)]

    def test_sync_at_start(self):
        assert epoch_spans([B, R, R]) == [(0, 0, 0), (1, 3, EPOCH_END)]

    def test_sync_at_end(self):
        assert epoch_spans([R, R, B]) == [(0, 2, 2), (3, 3, EPOCH_END)]

    def test_adjacent_syncs(self):
        assert epoch_spans([R, B, L, W, U]) == [
            (0, 1, 1),
            (2, 2, 2),
            (3, 4, 4),
            (5, 5, EPOCH_END),
        ]

    def test_truncation_before_first_sync(self):
        assert epoch_spans([R, R, R, B, R], max_refs=2) == [(0, 2, EPOCH_TRUNCATED)]

    def test_truncation_exactly_at_sync(self):
        # 2 refs then a barrier: with max_refs=2 the barrier is NOT
        # executed — the scalar loop finishes the node before consuming
        # the sync op, so the span must say TRUNCATED, not boundary=2.
        assert epoch_spans([R, W, B, R], max_refs=2) == [(0, 2, EPOCH_TRUNCATED)]

    def test_truncation_spanning_epochs(self):
        # 1 ref, barrier, then the cut lands inside the second epoch.
        assert epoch_spans([R, B, W, W, W], max_refs=2) == [
            (0, 1, 1),
            (2, 3, EPOCH_TRUNCATED),
        ]

    def test_truncation_exactly_at_stream_end(self):
        # max_refs equals the total reference count: the node finishes
        # naturally — EPOCH_END, not TRUNCATED.
        assert epoch_spans([R, W, R], max_refs=3) == [(0, 3, EPOCH_END)]

    def test_truncation_exactly_at_stream_end_after_sync(self):
        assert epoch_spans([R, B, W], max_refs=2) == [
            (0, 1, 1),
            (2, 3, EPOCH_END),
        ]

    def test_truncation_one_past_stream_end(self):
        assert epoch_spans([R, W], max_refs=5) == [(0, 2, EPOCH_END)]

    def test_max_refs_zero(self):
        assert epoch_spans([R, W], max_refs=0) == [(0, 0, EPOCH_TRUNCATED)]

    def test_spans_partition_the_stream(self):
        ops = [R, W, B, R, L, W, U, R, R, B, W]
        spans = epoch_spans(ops)
        # Consecutive spans tile the stream; each boundary is the sync
        # op between them.
        assert spans[0][0] == 0
        for (s0, e0, b0), (s1, _, _) in zip(spans, spans[1:]):
            assert b0 == e0
            assert s1 == e0 + 1
        assert spans[-1] == (10, 11, EPOCH_END)

    def test_columnar_input(self):
        ops, _ = materialize_stream([(R, 0), (B, 1), (W, 2)])
        assert epoch_spans(ops) == [(0, 1, 1), (2, 3, EPOCH_END)]


class TestSyncPositions:
    def test_basic(self):
        assert sync_positions([R, B, W, L, U, R]) == [1, 3, 4]

    def test_none(self):
        assert sync_positions([R, W, R]) == []

    @pytest.mark.skipif(get_numpy() is None, reason="numpy unavailable")
    def test_numpy_matches_fallback(self, monkeypatch):
        ops = [random.Random(7).choice([R, W, B, L, U]) for _ in range(500)]
        with_numpy = sync_positions(array.array("B", ops))
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert sync_positions(array.array("B", ops)) == with_numpy


class TestMaterializeStream:
    def test_columns(self):
        ops, vals = materialize_stream([(R, 4096), (W, -1), (B, 3)])
        assert list(ops) == [R, W, B]
        assert list(vals) == [4096, -1, 3]
        # Both columns must expose the buffer protocol for ffi.from_buffer.
        assert memoryview(ops).itemsize == 1
        assert memoryview(vals).itemsize == 8

    def test_empty(self):
        ops, vals = materialize_stream(iter(()))
        assert len(ops) == 0 and len(vals) == 0

    @pytest.mark.skipif(get_numpy() is None, reason="numpy unavailable")
    def test_fallback_matches_numpy(self, monkeypatch):
        stream = [(W, i * 64) for i in range(100)] + [(B, 0)]
        np_ops, np_vals = materialize_stream(iter(stream))
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        py_ops, py_vals = materialize_stream(iter(stream))
        assert isinstance(py_ops, array.array)
        assert list(py_ops) == list(np_ops)
        assert list(py_vals) == list(np_vals)

    def test_env_var_disables_numpy(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert get_numpy() is None
        ops, vals = materialize_stream([(R, 1)])
        assert isinstance(ops, array.array) and isinstance(vals, array.array)
        monkeypatch.delenv(NO_NUMPY_ENV)
        get_numpy()  # either numpy or None; must not raise


class TestRngMarshalling:
    def test_round_trip_preserves_sequence(self):
        rng = random.Random(1234)
        rng.random()  # advance off the seed point
        words = rng_state_words(rng)
        assert len(words) == RNG_STATE_WORDS
        expected = [rng.getrandbits(32) for _ in range(10)]
        fresh = random.Random()
        load_rng_state(fresh, words)
        assert [fresh.getrandbits(32) for _ in range(10)] == expected

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            load_rng_state(random.Random(), array.array("I", [0] * 10))

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
