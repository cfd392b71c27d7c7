"""Virtual-memory substrate.

A PowerPC-like *segmented, synonym-free* global virtual address space
(paper Section 2.2.1), the global-set pressure accounting behind paper
Figure 11, and the cost of a mapping change
(:mod:`repro.vm.protection`).  Every page is preloaded, as in the
paper, so there is no paging; where each page goes is
:func:`repro.system.machine.place_pages`.
"""

from repro.vm.segments import Segment, SegmentedAddressSpace, SegmentKind
from repro.vm.pressure import PressureTracker

__all__ = [
    "PressureTracker",
    "Segment",
    "SegmentKind",
    "SegmentedAddressSpace",
]
