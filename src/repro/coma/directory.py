"""Per-home-node directory memory.

The directory of a flat COMA records, for every block homed at this
node, where the master copy lives and which nodes hold replicas.  In
V-COMA the directory is *located* through the virtual-to-directory-
address translation (page table + DLB); the protocol engine charges
that lookup as a DLB access at the home, a
:class:`~repro.core.tlb.TranslationBuffer` whose miss costs the
page-table walk — this module is the storage itself, keyed by protocol
block address.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.coma.states import DirectoryEntry


class Directory:
    """Directory entries for the blocks homed at one node."""

    def __init__(self, node: int) -> None:
        self.node = node
        self._entries: Dict[int, DirectoryEntry] = {}
        self.lookups = 0

    def entry(self, block: int) -> DirectoryEntry:
        """Fetch (creating on first touch) the entry for a block."""
        self.lookups += 1
        found = self._entries.get(block)
        if found is None:
            found = DirectoryEntry()
            self._entries[block] = found
        return found

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """Entry without creating or counting (tests/invariants)."""
        return self._entries.get(block)

    def drop_sharer(self, block: int, node: int) -> None:
        entry = self._entries.get(block)
        if entry is not None:
            entry.sharers.discard(node)

    def blocks(self) -> Iterator[Tuple[int, DirectoryEntry]]:
        return iter(self._entries.items())
