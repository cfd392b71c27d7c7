"""Segmented virtual address space."""

import pytest

from repro import ConfigurationError
from repro.vm.segments import Segment, SegmentKind, SegmentedAddressSpace


class TestSegment:
    def test_bounds(self):
        s = Segment("s", base=0x1000, size=0x200)
        assert s.end == 0x1200
        assert s.contains(0x1000) and s.contains(0x11FF)
        assert not s.contains(0x1200)

    def test_address_checked(self):
        s = Segment("s", base=0x1000, size=0x200)
        assert s.address(0) == 0x1000
        with pytest.raises(IndexError):
            s.address(0x200)

    def test_pages(self):
        s = Segment("s", base=0x1000, size=0x200)
        assert list(s.pages(page_size=256)) == [16, 17]

    def test_pages_partial_last_page(self):
        s = Segment("s", base=0, size=300)
        assert list(s.pages(page_size=256)) == [0, 1]

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            Segment("s", base=0, size=0)


class TestSpace:
    def test_segments_never_overlap(self):
        space = SegmentedAddressSpace(page_size=256)
        a = space.allocate("a", 1000)
        b = space.allocate("b", 500)
        assert a.end <= b.base

    def test_bases_page_aligned(self):
        space = SegmentedAddressSpace(page_size=256)
        a = space.allocate("a", 100)
        b = space.allocate("b", 100)
        assert a.base % 256 == 0 and b.base % 256 == 0

    def test_alignment_honoured(self):
        space = SegmentedAddressSpace(page_size=256)
        space.allocate("a", 100)
        b = space.allocate("b", 100, alignment=4096)
        assert b.base % 4096 == 0

    def test_alignment_below_page_rejected(self):
        space = SegmentedAddressSpace(page_size=256)
        with pytest.raises(ConfigurationError):
            space.allocate("a", 100, alignment=128)

    def test_duplicate_name_rejected(self):
        space = SegmentedAddressSpace(page_size=256)
        space.allocate("a", 100)
        with pytest.raises(ConfigurationError):
            space.allocate("a", 100)

    def test_lookup_and_iteration(self):
        space = SegmentedAddressSpace(page_size=256)
        a = space.allocate("a", 100, kind=SegmentKind.PRIVATE, owner=3)
        assert space["a"] is a
        assert "a" in space and "b" not in space
        assert list(space) == [a]
        assert len(space) == 1
        assert a.owner == 3

    def test_bad_page_size(self):
        with pytest.raises(ConfigurationError):
            SegmentedAddressSpace(page_size=100)
