"""Global-set memory-pressure accounting (paper Sections 3.4 and 6).

*Memory pressure* of a global page set is the number of occupied page
slots divided by the set's capacity (``P * K`` slots).  When pressure
approaches 1, replication in the set is inhibited and the page daemon
must start swapping.  V-COMA has no control over which global set a
virtual page lands in, so the paper's Figure 11 plots the pressure
profile across the global page sets for every benchmark to show that
virtual-layout locality spreads pressure almost uniformly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import CapacityError, ConfigurationError


class PressureTracker:
    """Tracks page-slot occupancy per global page set."""

    def __init__(self, global_page_sets: int, slots_per_set: int) -> None:
        if global_page_sets <= 0 or slots_per_set <= 0:
            raise ConfigurationError("pressure tracker geometry must be positive")
        self.global_page_sets = global_page_sets
        self.slots_per_set = slots_per_set
        self._occupied: List[int] = [0] * global_page_sets
        self.peak: List[int] = [0] * global_page_sets

    def set_of_vpn(self, vpn: int) -> int:
        return vpn & (self.global_page_sets - 1)

    def allocate_page(self, gps: int, count: int = 1) -> None:
        """Occupy ``count`` page slots in a global set.

        Raises :class:`CapacityError` when the set would exceed its
        ``P*K`` capacity — in a real system the page daemon would swap
        a page out instead; the modelled runs preload every page and
        never page.
        """
        if not 0 <= gps < self.global_page_sets:
            raise ConfigurationError(f"global page set {gps} out of range")
        if self._occupied[gps] + count > self.slots_per_set:
            raise CapacityError(
                f"global page set {gps} overflows: "
                f"{self._occupied[gps]}+{count} > {self.slots_per_set} slots"
            )
        self._occupied[gps] += count
        if self._occupied[gps] > self.peak[gps]:
            self.peak[gps] = self._occupied[gps]

    def occupy(self, counts: List[int]) -> None:
        """``allocate_page(gps, counts[gps])`` for every global set."""
        for gps, count in enumerate(counts):
            if count:
                self.allocate_page(gps, count)

    def free_page(self, gps: int, count: int = 1) -> None:
        if self._occupied[gps] < count:
            raise ValueError(f"global page set {gps}: freeing more than occupied")
        self._occupied[gps] -= count

    def occupancy(self, gps: int) -> int:
        return self._occupied[gps]

    def pressure(self, gps: int) -> float:
        return self._occupied[gps] / self.slots_per_set

    def profile(self) -> List[float]:
        """Pressure of every global page set (Figure 11's x-axis order)."""
        return [occ / self.slots_per_set for occ in self._occupied]

    def peak_profile(self) -> List[float]:
        return [occ / self.slots_per_set for occ in self.peak]

    def max_pressure(self) -> float:
        return max(self.profile())

    def mean_pressure(self) -> float:
        profile = self.profile()
        return sum(profile) / len(profile)

    def imbalance(self) -> float:
        """Max/mean pressure ratio — 1.0 is perfectly uniform."""
        mean = self.mean_pressure()
        return self.max_pressure() / mean if mean else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "mean": self.mean_pressure(),
            "max": self.max_pressure(),
            "min": min(self.profile()),
            "imbalance": self.imbalance(),
        }
