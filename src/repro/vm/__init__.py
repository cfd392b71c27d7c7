"""Virtual-memory substrate.

A PowerPC-like *segmented, synonym-free* global virtual address space
(paper Section 2.2.1), per-home page tables mapping virtual pages to
directory pages (V-COMA) or physical frames (physical schemes), the
round-robin frame allocator with optional page coloring (L3-TLB), the
global-set pressure accounting behind paper Figure 11, and the cost of
a mapping change (:mod:`repro.vm.protection`).  Every page is
preloaded, as in the paper, so there is no paging.
"""

from repro.vm.segments import Segment, SegmentedAddressSpace, SegmentKind
from repro.vm.page_table import HomePageTable, PageTableEntry
from repro.vm.frames import FrameAllocator
from repro.vm.pressure import PressureTracker

__all__ = [
    "FrameAllocator",
    "HomePageTable",
    "PageTableEntry",
    "PressureTracker",
    "Segment",
    "SegmentKind",
    "SegmentedAddressSpace",
]
