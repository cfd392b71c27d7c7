"""Property tests: TranslationBuffer against invariants and a model."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Organization, TranslationBuffer

sizes = st.sampled_from([1, 2, 4, 8, 16])
pages = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=300)
orgs = st.sampled_from(list(Organization))


def build(entries, org, seed=0):
    assoc = 2 if org is Organization.SET_ASSOCIATIVE and entries >= 2 else None
    if org is Organization.SET_ASSOCIATIVE and entries < 2:
        org = Organization.DIRECT_MAPPED
    return TranslationBuffer(entries, org, assoc=assoc, rng=random.Random(seed))


@given(entries=sizes, org=orgs, stream=pages)
@settings(max_examples=120, deadline=None)
def test_occupancy_never_exceeds_capacity(entries, org, stream):
    tlb = build(entries, org)
    for page in stream:
        tlb.access(page)
        assert tlb.valid_entries <= tlb.entries


@given(entries=sizes, org=orgs, stream=pages)
@settings(max_examples=120, deadline=None)
def test_accessed_page_always_resident_after_access(entries, org, stream):
    tlb = build(entries, org)
    for page in stream:
        tlb.access(page)
        assert tlb.contains(page)


@given(entries=sizes, org=orgs, stream=pages)
@settings(max_examples=120, deadline=None)
def test_hits_plus_misses_equals_accesses(entries, org, stream):
    tlb = build(entries, org)
    for page in stream:
        tlb.access(page)
    assert tlb.hits + tlb.misses == tlb.accesses == len(stream)


@given(stream=pages)
@settings(max_examples=100, deadline=None)
def test_unbounded_fa_buffer_misses_equal_distinct_pages(stream):
    tlb = build(64, Organization.FULLY_ASSOCIATIVE)
    for page in stream:
        tlb.access(page)
    assert tlb.misses == len(set(stream))


@given(entries=sizes, stream=pages)
@settings(max_examples=100, deadline=None)
def test_direct_mapped_matches_reference_model(entries, stream):
    """A direct-mapped buffer is fully deterministic: model it exactly."""
    tlb = build(entries, Organization.DIRECT_MAPPED)
    slots = {}
    expected_misses = 0
    for page in stream:
        slot = page % entries
        if slots.get(slot) != page:
            expected_misses += 1
            slots[slot] = page
        tlb.access(page)
    assert tlb.misses == expected_misses


@given(stream=pages, seed=st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_random_replacement_deterministic_per_seed(stream, seed):
    a = build(4, Organization.FULLY_ASSOCIATIVE, seed=seed)
    b = build(4, Organization.FULLY_ASSOCIATIVE, seed=seed)
    for page in stream:
        assert a.access(page) == b.access(page)


@given(stream=pages)
@settings(max_examples=60, deadline=None)
def test_fa_inclusion_across_sizes(stream):
    """With deterministic LRU-free streams this is not guaranteed for
    random replacement in general, but a buffer holding every page ever
    seen (cold-only) can never miss more than a smaller one."""
    big = build(64, Organization.FULLY_ASSOCIATIVE)  # never evicts here
    small = build(2, Organization.FULLY_ASSOCIATIVE)
    for page in stream:
        big.access(page)
        small.access(page)
    assert big.misses <= small.misses
