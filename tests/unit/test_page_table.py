"""HomePageTable lookup/walk semantics."""

import pytest

from repro import TranslationFault
from repro.vm.page_table import HomePageTable, PageTableEntry


@pytest.fixture
def table():
    return HomePageTable(node=1, global_page_sets=16)


class TestBasics:
    def test_insert_lookup(self, table):
        table.insert(PageTableEntry(vpn=0x21, payload=7))
        entry = table.lookup(0x21)
        assert entry is not None and entry.payload == 7

    def test_lookup_counts_walks(self, table):
        table.lookup(1)
        table.lookup(2)
        assert table.walks == 2

    def test_walk_raises_on_unmapped(self, table):
        with pytest.raises(TranslationFault):
            table.walk(0x99)

    def test_resolve_returns_payload(self, table):
        table.insert(PageTableEntry(vpn=5, payload=500))
        assert table.resolve(5) == 500

    def test_remove(self, table):
        table.insert(PageTableEntry(vpn=5, payload=500))
        removed = table.remove(5)
        assert removed.payload == 500
        assert not table.contains(5)

    def test_remove_unmapped_raises(self, table):
        with pytest.raises(KeyError):
            table.remove(5)

    def test_len(self, table):
        table.insert(PageTableEntry(vpn=1, payload=1))
        table.insert(PageTableEntry(vpn=2, payload=2))
        assert len(table) == 2


class TestGlobalSetOrganization:
    def test_same_color_pages_share_bucket(self, table):
        table.insert(PageTableEntry(vpn=3, payload=1))
        table.insert(PageTableEntry(vpn=3 + 16, payload=2))  # same color
        table.insert(PageTableEntry(vpn=4, payload=3))  # different color
        assert table.set_occupancy(3) == 2
        assert table.set_occupancy(4) == 1

    def test_entries_in_set(self, table):
        table.insert(PageTableEntry(vpn=3, payload=1))
        table.insert(PageTableEntry(vpn=19, payload=2))
        vpns = {e.vpn for e in table.entries_in_set(3)}
        assert vpns == {3, 19}

    def test_entries_iterates_all(self, table):
        for vpn in (1, 2, 33):
            table.insert(PageTableEntry(vpn=vpn, payload=vpn))
        assert {e.vpn for e in table.entries()} == {1, 2, 33}


class TestMetadata:
    def test_clear_reference_bits(self, table):
        entry = PageTableEntry(vpn=1, payload=0, referenced=True)
        table.insert(entry)
        table.clear_reference_bits()
        assert not entry.referenced
