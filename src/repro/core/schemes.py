"""The five dynamic-address-translation designs (paper Section 3).

Each scheme is defined by *where* in the memory hierarchy the translation
structure sits, i.e. which access stream reaches it:

========  =====================================================
Scheme    Stream translated
========  =====================================================
L0-TLB    every processor reference (classic per-CPU TLB)
L1-TLB    FLC misses **plus all stores** (the FLC is write-through)
L2-TLB    SLC misses plus SLC writebacks (unless bypassed)
L3-TLB    attraction-memory misses (remote requests)
V-COMA    home-node directory lookups (the shared DLB)
========  =====================================================

The :class:`TapPoint` enumeration names these streams; the simulator
exposes a tap at each point so that a single run can drive TLB models for
every scheme (see ``repro.system.taps``).
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class Scheme(enum.Enum):
    """One of the paper's five translation designs."""

    L0_TLB = "L0-TLB"
    L1_TLB = "L1-TLB"
    L2_TLB = "L2-TLB"
    L3_TLB = "L3-TLB"
    V_COMA = "V-COMA"

    @property
    def uses_virtual_flc(self) -> bool:
        """Is the first-level cache virtually indexed and tagged?"""
        return self is not Scheme.L0_TLB

    @property
    def uses_virtual_slc(self) -> bool:
        return self in (Scheme.L2_TLB, Scheme.L3_TLB, Scheme.V_COMA)

    @property
    def uses_virtual_am(self) -> bool:
        """Is the attraction memory virtually indexed and tagged?

        Virtual AMs constrain page placement to the global set selected
        by the virtual address (page coloring); physical AMs place pages
        wherever the OS allocated frames.
        """
        return self in (Scheme.L3_TLB, Scheme.V_COMA)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class TapPoint(enum.Enum):
    """Points in the hierarchy where a translation stream can be observed.

    ``L2_NO_WBACK`` is the paper's ``L2-TLB/no_wback`` variant: the L2
    stream with SLC writebacks excluded (modelling physical pointers kept
    in the virtual SLC so writebacks bypass the TLB).
    """

    L0 = "L0"
    L1 = "L1"
    L2 = "L2"
    L2_NO_WBACK = "L2/no_wback"
    L3 = "L3"
    HOME = "HOME"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


TAP_OF_SCHEME: Dict[Scheme, TapPoint] = {
    Scheme.L0_TLB: TapPoint.L0,
    Scheme.L1_TLB: TapPoint.L1,
    Scheme.L2_TLB: TapPoint.L2,
    Scheme.L3_TLB: TapPoint.L3,
    Scheme.V_COMA: TapPoint.HOME,
}

#: Presentation order used by every table in the paper.
SCHEME_ORDER: Tuple[Scheme, ...] = (
    Scheme.L0_TLB,
    Scheme.L1_TLB,
    Scheme.L2_TLB,
    Scheme.L3_TLB,
    Scheme.V_COMA,
)
