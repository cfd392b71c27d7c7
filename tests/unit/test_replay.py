"""Unit tests for the bank replay (:func:`bank_miss_counts`).

The replay contract is *bit-identical miss counts* with a live
:class:`~repro.core.tlb.TranslationBank` — same RNG substreams, same
rejection-sampling victim draws — for every organization, on the
compiled batch kernel and on the scalar path (``REPRO_NO_COMPILED``).
Every test here checks the replay against live buffers fed the same
stream.
"""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.core.replay import bank_miss_counts
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)
ENTRIES = (1, 2, 8, 32, 128, 512)
#: Bank seeds on both sides of 2**32.
SEEDS = (7, 0x1_0000_0003)

needs_compiled = pytest.mark.skipif(
    get_backend() is None, reason="compiled backend unavailable"
)


def live_bank(pages, configs, seed=7, name="bank"):
    """Reference miss counts: a real TranslationBank fed one by one."""
    bank = TranslationBank(configs, seed=seed, name=name)
    for page in pages:
        bank.access(page)
    return {config: bank.misses(*config) for config in dict.fromkeys(configs)}


def replay_misses(pages, entries, org, seed=7, name="bank"):
    return bank_miss_counts(pages, [(entries, org)], seed, name)[(entries, org)]


def streams():
    """A spread of access patterns exercising every kernel branch."""
    rnd = random.Random(42)
    return {
        "empty": [],
        "single": [5],
        "all-same": [3] * 500,
        "all-distinct": list(range(400)),
        "cyclic": [p % 40 for p in range(600)],
        "skewed": [rnd.randrange(12) for _ in range(800)],
        "wide-random": [rnd.randrange(5000) for _ in range(1200)],
        "phase-shift": [p % 16 for p in range(400)]
        + [200 + (p % 300) for p in range(600)],
        "huge-pages": [rnd.randrange(1 << 40) for _ in range(300)],
        "over-capacity": [rnd.randrange(2048) for _ in range(3000)],
    }


@pytest.fixture(params=["compiled", "no-compiled"])
def backend(request, monkeypatch):
    """Run a test on the compiled batch kernel and on the scalar path."""
    if request.param == "compiled":
        if get_backend() is None:
            pytest.skip("compiled backend unavailable")
    else:
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
    return request.param


class TestKernelEquivalence:
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    @pytest.mark.parametrize("entries", ENTRIES)
    def test_matches_scalar_buffer(self, org, entries):
        for seed in SEEDS:
            for label, pages in streams().items():
                fast = replay_misses(pages, entries, org, seed=seed)
                slow = live_bank(pages, [(entries, org)], seed=seed)
                assert fast == slow[(entries, org)], (label, org.value, entries, seed)

    def test_stream_reuse_across_configs(self):
        """One call replays many configs without cross-talk: each count
        equals that config replayed alone."""
        pages = streams()["phase-shift"]
        configs = [(entries, org) for org in ORGS for entries in (8, 32)]
        together = bank_miss_counts(pages, configs, seed=7, name="bank")
        for entries, org in configs:
            assert together[(entries, org)] == replay_misses(pages, entries, org)

    def test_matches_translation_bank(self):
        """Every org × size in one call, duplicates mixed in, vs a live
        TranslationBank."""
        configs = [(entries, org) for entries in ENTRIES for org in ORGS]
        configs += configs[:4]
        for seed in SEEDS:
            for label, pages in streams().items():
                fast = bank_miss_counts(pages, configs, seed=seed, name="l1:0")
                assert fast == live_bank(pages, configs, seed=seed, name="l1:0"), label

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            replay_misses([1, 2, 3], 12, Organization.FULLY_ASSOCIATIVE)

    def test_order_independent(self):
        """Config order changes neither the keys' counts nor the RNG
        substream any member draws from."""
        pages = streams()["wide-random"]
        configs = [(entries, org) for entries in (2, 32, 512) for org in ORGS]
        forward = bank_miss_counts(pages, configs, seed=3, name="home:1")
        backward = bank_miss_counts(pages, configs[::-1], seed=3, name="home:1")
        assert forward == backward

    def test_mixed_orgs_same_size(self):
        """FA, SA and DM of one size in one call keep their own counts
        (and SA below the way count degenerates to FA's geometry, but
        not to FA's RNG substream)."""
        pages = streams()["over-capacity"]
        configs = [(2, org) for org in ORGS] + [(128, org) for org in ORGS]
        assert bank_miss_counts(pages, configs, seed=11, name="l2:0") == live_bank(
            pages, configs, seed=11, name="l2:0"
        )


class TestCompiledGate:
    @pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
    def test_fallback_matches_scalar(self, org, monkeypatch):
        """With the compiled backend gated off, the scalar path agrees."""
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        assert get_backend() is None
        pages = streams()["cyclic"]
        assert replay_misses(pages, 8, org) == live_bank(pages, [(8, org)])[(8, org)]

    @needs_compiled
    def test_compiled_and_fallback_agree(self, monkeypatch):
        pages = streams()["wide-random"]
        configs = [(32, org) for org in ORGS]
        compiled = bank_miss_counts(pages, configs, seed=7, name="bank")
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        assert bank_miss_counts(pages, configs, seed=7, name="bank") == compiled

    @needs_compiled
    @pytest.mark.parametrize("seed", (0, 1, 0xFFFF_FFFF, 1 << 32, (1 << 64) - 1))
    def test_kernel_seeds_like_random(self, seed):
        """fs_bank_run_many seeded directly with a member seed matches a
        buffer drawing from random.Random(seed), on both sides of 2**32."""
        ffi, lib = get_backend().ffi, get_backend().lib
        pages = streams()["over-capacity"]
        # (entries, org, assoc, sets): fully associative and 4-way.
        geometries = [(64, Organization.FULLY_ASSOCIATIVE, 64, 1),
                      (64, Organization.SET_ASSOCIATIVE, 4, 16)]
        misses = ffi.new("int64_t[]", len(geometries))
        status = lib.fs_bank_run_many(
            ffi.new("int64_t[]", pages), 8, len(pages), len(geometries),
            ffi.new("int64_t[]", [g[3] for g in geometries]),
            ffi.new("int64_t[]", [g[2] for g in geometries]),
            ffi.new("uint64_t[]", [seed] * len(geometries)),
            misses,
        )
        assert status == 0
        for (entries, org, assoc, _), got in zip(geometries, misses):
            buffer = TranslationBuffer(
                entries, org, assoc=assoc if org is Organization.SET_ASSOCIATIVE else None,
                rng=random.Random(seed),
            )
            for page in pages:
                buffer.access(page)
            assert got == buffer.misses, (entries, org.value)


class TestBankMissCounts:
    def test_duplicate_configs_computed_once(self):
        pages = streams()["cyclic"]
        configs = [(8, Organization.FULLY_ASSOCIATIVE)] * 3
        counts = bank_miss_counts(pages, configs, seed=7, name="bank")
        assert counts == live_bank(pages, configs)
        assert len(counts) == 1

    def test_empty_stream(self):
        counts = bank_miss_counts(
            [], [(8, Organization.FULLY_ASSOCIATIVE)], seed=7, name="bank"
        )
        assert counts == {(8, Organization.FULLY_ASSOCIATIVE): 0}

    def test_accepts_array_columns(self, backend):
        """Recorded tap columns arrive as 4- or 8-byte unsigned arrays."""
        import array

        pages = streams()["wide-random"]
        configs = [(32, org) for org in ORGS]
        want = live_bank(pages, configs)
        for typecode in ("I", "Q", "q"):
            column = array.array(typecode, pages)
            assert bank_miss_counts(column, configs, seed=7, name="bank") == want
