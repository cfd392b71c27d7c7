"""V-COMA's directory address space (paper Section 4.2).

Virtual addresses are unsuitable for addressing directory memory (the
virtual space is huge and sparse), so V-COMA translates virtual addresses
into *directory addresses*.  Directory memory is organized in **directory
pages**: one directory page per resident virtual page, holding one
directory entry per memory block of that page.  The virtual-memory system
allocates and reclaims directory memory in directory-page units; the
directory page plays the role a pageframe plays in a conventional system.

:class:`DirectoryAddressSpace` is the per-home-node allocator of directory
pages.  Directory addresses are dense small integers (entry granularity),
which is exactly the property the paper wants: the necessary directory
memory is sized by main memory, not by the virtual space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import CapacityError


@dataclass(frozen=True)
class DirectoryPageHandle:
    """A directory page: its base directory address and entry count."""

    base: int
    entries: int

    def entry_address(self, index: int) -> int:
        if not 0 <= index < self.entries:
            raise IndexError(f"directory entry {index} outside page of {self.entries}")
        return self.base + index


class DirectoryAddressSpace:
    """Allocator of directory pages for one home node.

    Parameters
    ----------
    entries_per_page:
        Directory entries per directory page = memory blocks per page.
    capacity_pages:
        Maximum simultaneously-allocated directory pages; ``None`` means
        unbounded (the paper sizes directory memory to main memory — the
        simulator enforces a bound only when one is given).
    """

    def __init__(self, entries_per_page: int, capacity_pages: Optional[int] = None) -> None:
        if entries_per_page <= 0:
            raise ValueError("entries_per_page must be positive")
        self.entries_per_page = entries_per_page
        self.capacity_pages = capacity_pages
        self._free: List[int] = []
        self._next_base = 0
        self._allocated: Dict[int, DirectoryPageHandle] = {}

    @property
    def allocated_pages(self) -> int:
        return len(self._allocated)

    def allocate(self) -> DirectoryPageHandle:
        """Allocate one directory page, reusing reclaimed space first."""
        if (
            self.capacity_pages is not None
            and self.allocated_pages >= self.capacity_pages
            and not self._free
        ):
            raise CapacityError(
                f"directory memory exhausted ({self.capacity_pages} pages)"
            )
        if self._free:
            base = self._free.pop()
        else:
            base = self._next_base
            self._next_base += self.entries_per_page
        handle = DirectoryPageHandle(base=base, entries=self.entries_per_page)
        self._allocated[base] = handle
        return handle

    def reclaim(self, handle: DirectoryPageHandle) -> None:
        """Return a directory page to the free pool."""
        if handle.base not in self._allocated:
            raise KeyError(f"directory page at {handle.base} is not allocated")
        del self._allocated[handle.base]
        self._free.append(handle.base)

    def is_allocated(self, base: int) -> bool:
        return base in self._allocated

    def __len__(self) -> int:
        return len(self._allocated)
