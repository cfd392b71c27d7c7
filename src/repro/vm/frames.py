"""Physical pageframe allocation for the physical-address schemes.

The paper assigns physical pages **round robin** across nodes (Section
5.3).  In a flat COMA a physical page is really a directory slot: the low
``p`` bits of the physical frame number (PFN) select the page's home node
and the low ``s+b-n`` bits are its *color* — the bits that index the
attraction-memory sets (paper Figures 4 and 6).

* Without coloring (L0/L1/L2-TLB), frames are handed out sequentially:
  ``pfn = 0, 1, 2, …`` — homes cycle round robin through the nodes and
  colors cycle uniformly through the global sets, which is the paper's
  baseline ("round robin is a good strategy for the COMA").
* With coloring (L3-TLB), the frame must carry the virtual page's color:
  ``pfn ≡ color (mod G)``, so allocation keeps one counter per color and
  hands out ``pfn = counter*G + color``.  When ``G >= P`` this forces the
  home node to ``color mod P`` — the same home V-COMA would use — which
  is the regime the paper analyzes.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ConfigurationError


class FrameAllocator:
    """Round-robin physical frame allocator with optional page coloring.

    ``frames_per_node`` is each node's attraction-memory capacity in
    pages; the machine-wide frame pool is ``nodes * frames_per_node``.
    """

    def __init__(self, layout: AddressLayout, frames_per_node: int, coloring: bool = False) -> None:
        if frames_per_node <= 0:
            raise ConfigurationError("frames_per_node must be positive")
        if frames_per_node % layout.global_page_sets:
            raise ConfigurationError(
                "frames_per_node must be a multiple of the number of page colors"
            )
        self.layout = layout
        self.nodes = layout.nodes
        self.frames_per_node = frames_per_node
        self.coloring = coloring
        self._sequential_cursor = 0
        self._color_cursor: Dict[int, int] = {}
        self._free: Dict[int, None] = {}  # freed PFNs, insertion-ordered
        self._allocated: Dict[int, int] = {}  # pfn -> vpn

    # ------------------------------------------------------------------
    @property
    def total_frames(self) -> int:
        return self.nodes * self.frames_per_node

    @property
    def frames_per_color(self) -> int:
        return self.total_frames // self.layout.global_page_sets

    # ------------------------------------------------------------------
    def allocate(self, vpn: int, color: int = None) -> int:
        """Allocate a frame for ``vpn``; returns the PFN.

        With coloring enabled the frame color defaults to the virtual
        page's color; passing ``color`` overrides it (used by tests and
        by OS-policy experiments).
        """
        if self.coloring and color is None:
            color = self.layout.global_page_set_of_vpn(vpn)
        if color is None:
            pfn = self._allocate_sequential(vpn)
        else:
            pfn = self._allocate_colored(vpn, color)
        self._allocated[pfn] = vpn
        return pfn

    def allocate_first(self, vpns: Sequence[int]) -> None:
        """``allocate`` each of ``vpns`` in order on a fresh allocator
        without colouring: their PFNs are 0, 1, 2, …  The caller has
        checked that they fit."""
        self._allocated = dict(enumerate(vpns))
        self._sequential_cursor = len(vpns)

    def _allocate_sequential(self, vpn: int) -> int:
        for pfn in self._free:
            del self._free[pfn]
            return pfn
        if self._sequential_cursor >= self.total_frames:
            raise CapacityError(f"physical memory exhausted allocating VPN {vpn:#x}")
        pfn = self._sequential_cursor
        self._sequential_cursor += 1
        return pfn

    def _allocate_colored(self, vpn: int, color: int) -> int:
        colors = self.layout.global_page_sets
        if not 0 <= color < colors:
            raise ConfigurationError(f"color {color} out of range 0..{colors - 1}")
        for pfn in self._free:
            if pfn % colors == color:
                del self._free[pfn]
                return pfn
        slot = self._color_cursor.get(color, 0)
        if slot >= self.frames_per_color:
            raise CapacityError(
                f"no frame of color {color} left for VPN {vpn:#x} "
                f"(global set full: {self.frames_per_color} frames)"
            )
        self._color_cursor[color] = slot + 1
        return slot * colors + color

    # ------------------------------------------------------------------
    def home_of(self, pfn: int) -> int:
        """Home node of a physical page: low ``p`` bits of the PFN."""
        return pfn & (self.nodes - 1)

    def color_of(self, pfn: int) -> int:
        return pfn & (self.layout.global_page_sets - 1)

    def physical_address(self, pfn: int, page_offset: int) -> int:
        return (pfn << self.layout.page_bits) | page_offset

    def free(self, pfn: int) -> None:
        """Release a frame back to the pool (page-out path)."""
        if pfn not in self._allocated:
            raise KeyError(f"PFN {pfn:#x} is not allocated")
        del self._allocated[pfn]
        self._free[pfn] = None

    def vpn_of(self, pfn: int) -> int:
        return self._allocated[pfn]
