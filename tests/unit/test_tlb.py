"""TranslationBuffer (TLB/DLB model) behaviour."""

import random

import pytest

from repro import ConfigurationError, Organization, TranslationBank, TranslationBuffer


class TestConstruction:
    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            TranslationBuffer(12)

    def test_entries_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TranslationBuffer(0)

    def test_fully_associative_single_set(self):
        tlb = TranslationBuffer(8)
        assert tlb.sets == 1 and tlb.assoc == 8

    def test_direct_mapped_one_way(self):
        tlb = TranslationBuffer(8, Organization.DIRECT_MAPPED)
        assert tlb.sets == 8 and tlb.assoc == 1

    def test_set_associative_requires_valid_assoc(self):
        with pytest.raises(ConfigurationError):
            TranslationBuffer(8, Organization.SET_ASSOCIATIVE)
        with pytest.raises(ConfigurationError):
            TranslationBuffer(8, Organization.SET_ASSOCIATIVE, assoc=3)
        tlb = TranslationBuffer(8, Organization.SET_ASSOCIATIVE, assoc=2)
        assert tlb.sets == 4


class TestAccess:
    def test_first_access_misses_then_hits(self):
        tlb = TranslationBuffer(4)
        assert tlb.access(1) is False
        assert tlb.access(1) is True
        assert tlb.misses == 1 and tlb.hits == 1

    def test_capacity_eviction(self):
        tlb = TranslationBuffer(2, rng=random.Random(0))
        tlb.access(1)
        tlb.access(2)
        tlb.access(3)  # evicts one of {1, 2}
        assert tlb.valid_entries == 2
        assert tlb.contains(3)
        assert tlb.contains(1) != tlb.contains(2)

    def test_miss_rate(self):
        tlb = TranslationBuffer(4)
        for page in (1, 2, 1, 2):
            tlb.access(page)
        assert tlb.miss_rate == pytest.approx(0.5)

    def test_direct_mapped_conflict(self):
        tlb = TranslationBuffer(4, Organization.DIRECT_MAPPED)
        assert tlb.access(0) is False
        assert tlb.access(4) is False  # same slot (page % 4)
        assert tlb.access(0) is False  # got evicted
        assert tlb.misses == 3

    def test_direct_mapped_no_conflict_distinct_slots(self):
        tlb = TranslationBuffer(4, Organization.DIRECT_MAPPED)
        for page in range(4):
            tlb.access(page)
        assert all(tlb.contains(p) for p in range(4))

    def test_fully_associative_holds_working_set(self):
        tlb = TranslationBuffer(8)
        for page in range(8):
            tlb.access(page)
        for page in range(8):
            assert tlb.access(page) is True

    def test_random_replacement_deterministic_with_seed(self):
        def run():
            tlb = TranslationBuffer(4, rng=random.Random(7))
            for page in range(100):
                tlb.access(page % 13)
            return tlb.misses

        assert run() == run()


class TestBank:
    def test_bank_feeds_all_configs(self):
        bank = TranslationBank(
            [(4, Organization.FULLY_ASSOCIATIVE), (8, Organization.DIRECT_MAPPED)]
        )
        for page in range(20):
            bank.access(page)
        assert bank.accesses == 20
        assert bank.misses(4) == 20  # all cold, FA/4
        assert bank.misses(8, Organization.DIRECT_MAPPED) == 20

    def test_bigger_fa_buffer_never_misses_more(self):
        bank = TranslationBank(
            [(4, Organization.FULLY_ASSOCIATIVE), (64, Organization.FULLY_ASSOCIATIVE)]
        )
        rng = random.Random(3)
        for _ in range(2000):
            bank.access(rng.randrange(40))
        assert bank.misses(64) <= bank.misses(4)

    def test_results_keys(self):
        bank = TranslationBank([(4, Organization.FULLY_ASSOCIATIVE)])
        bank.access(1)
        assert bank.results() == {(4, "fa"): 1}

    def test_duplicate_configs_collapse(self):
        bank = TranslationBank(
            [(4, Organization.FULLY_ASSOCIATIVE), (4, Organization.FULLY_ASSOCIATIVE)]
        )
        assert len(bank.buffers) == 1


class TestBankSetAssociative:
    def test_sa_members_built_with_ways(self):
        bank = TranslationBank([(16, Organization.SET_ASSOCIATIVE)])
        buffer = bank.buffers[(16, Organization.SET_ASSOCIATIVE)]
        assert buffer.assoc == TranslationBank.SET_ASSOC_WAYS
        assert buffer.sets == 16 // TranslationBank.SET_ASSOC_WAYS

    def test_sa_capped_by_entries(self):
        bank = TranslationBank([(2, Organization.SET_ASSOCIATIVE)])
        assert bank.buffers[(2, Organization.SET_ASSOCIATIVE)].assoc == 2

    def test_sa_between_fa_and_dm_on_conflicty_stream(self):
        import random

        bank = TranslationBank(
            [
                (16, Organization.FULLY_ASSOCIATIVE),
                (16, Organization.SET_ASSOCIATIVE),
                (16, Organization.DIRECT_MAPPED),
            ]
        )
        rng = random.Random(0)
        hot = [i * 16 for i in range(12)]  # collide mod 16
        for _ in range(4000):
            bank.access(rng.choice(hot))
        fa = bank.misses(16, Organization.FULLY_ASSOCIATIVE)
        sa = bank.misses(16, Organization.SET_ASSOCIATIVE)
        dm = bank.misses(16, Organization.DIRECT_MAPPED)
        assert fa <= sa <= dm
