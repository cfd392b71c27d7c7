"""Deterministic RNG substreams."""

from repro.common.rng import make_rng, substream_seed


def test_same_names_same_seed():
    assert substream_seed(1, "tlb", 0) == substream_seed(1, "tlb", 0)


def test_different_names_different_seed():
    assert substream_seed(1, "tlb", 0) != substream_seed(1, "tlb", 1)
    assert substream_seed(1, "tlb") != substream_seed(1, "dlb")


def test_different_base_seed_differs():
    assert substream_seed(1, "x") != substream_seed(2, "x")


def test_make_rng_reproducible():
    a = make_rng(42, "w", 3)
    b = make_rng(42, "w", 3)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_make_rng_independent_streams():
    a = make_rng(42, "w", 3)
    b = make_rng(42, "w", 4)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_mixed_name_types():
    assert substream_seed(0, "a", 1, "b") == substream_seed(0, "a", 1, "b")
    assert substream_seed(0, "a", 1) != substream_seed(0, "a", "1")


def test_memoized_seeds_equal_the_hash():
    """The memo returns what the hash gives, first call and cached
    alike, and keeps apart names that compare equal but whose ``repr``
    differs."""
    import hashlib

    def hashed(seed, *names):
        digest = hashlib.sha256(repr((seed,) + names).encode()).digest()
        return int.from_bytes(digest[:8], "little")

    for names in [("tlb", 0), ("a", 1), ("a", True), ("a", 1.0)]:
        for _ in range(2):
            assert substream_seed(3, *names) == hashed(3, *names)
    assert len({substream_seed(3, "a", value) for value in (1, True, 1.0)}) == 3
