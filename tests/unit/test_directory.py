"""Directory storage and DirectoryEntry invariants."""

import pytest

from repro.coma.directory import Directory
from repro.coma.states import DirectoryEntry


class TestDirectoryEntry:
    def test_holders_includes_owner_and_sharers(self):
        e = DirectoryEntry(owner=1, sharers={2, 3})
        assert e.holders == {1, 2, 3}

    def test_holders_without_owner(self):
        e = DirectoryEntry(sharers={2})
        assert e.holders == {2}

    def test_check_rejects_owner_in_sharers(self):
        e = DirectoryEntry(owner=1, sharers={1})
        with pytest.raises(AssertionError):
            e.check()


class TestDirectory:
    def test_entry_created_on_first_touch(self):
        d = Directory(0)
        e = d.entry(0x100)
        assert e.owner is None and not e.sharers
        assert d.peek(0x100) is e
        assert d.lookups == 1

    def test_entry_persistent(self):
        d = Directory(0)
        d.entry(0x100).owner = 3
        assert d.entry(0x100).owner == 3

    def test_peek_does_not_create(self):
        d = Directory(0)
        assert d.peek(0x100) is None
        assert not list(d.blocks())

    def test_drop_sharer(self):
        d = Directory(0)
        d.entry(0x100).sharers.update({1, 2})
        d.drop_sharer(0x100, 1)
        assert d.entry(0x100).sharers == {2}

    def test_drop_sharer_unknown_block_noop(self):
        Directory(0).drop_sharer(0x500, 1)  # must not raise

    def test_blocks_iteration(self):
        d = Directory(0)
        d.entry(0x100)
        d.entry(0x200)
        assert {b for b, _ in d.blocks()} == {0x100, 0x200}
