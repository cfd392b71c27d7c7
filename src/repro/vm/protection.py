"""Page-protection changes and translation-coherence costs.

The paper motivates V-COMA partly through the **TLB consistency
problem**: per-node TLBs replicate translations, so any mapping or
protection change must interrupt every processor that might cache the
entry (a TLB shootdown).  V-COMA keeps translations only at the home
node, so a change touches one DLB plus the nodes actually holding blocks
of the page (paper Section 4.3):

    "If a processor wants to change the protection bits of a page, it
    sends a message to the home node which hosts the page.  The PE at
    the home node changes the bits in the page table and in the DLB.
    Then, according to the directory entries, it sends update messages
    to the nodes holding the blocks of that page."

:class:`ProtectionManager` implements both flows over a machine and
reports their cost, so the consistency advantage is measurable (see
``python -m repro paper run ablation-shootdown``).
"""

from __future__ import annotations

from typing import Set

from repro.common.stats import Counters
from repro.core.schemes import Scheme
from repro.vm.page_table import Protection

#: Cycles for a processor to take an inter-processor interrupt, flush
#: the TLB entry, and acknowledge — a conservative, literature-typical
#: shootdown cost per interrupted processor.
SHOOTDOWN_INTERRUPT_CYCLES = 200


class ProtectionManager:
    """Executes protection/mapping changes against a machine.

    The manager is scheme-aware: for per-node-TLB schemes every
    processor must be interrupted (the initiator cannot know which TLBs
    cache the entry); for V-COMA only the home's page table/DLB entry
    changes, plus update messages to the nodes the directory lists as
    holding blocks of the page.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.counters = Counters()

    # ------------------------------------------------------------------
    def change_protection(self, vpn: int, protection: Protection) -> int:
        """Change one page's protection bits; returns the cycle cost."""
        machine = self.machine
        home = machine.layout.home_node_of_vpn(vpn)
        entry = machine.page_tables[home].walk(vpn)
        entry.protection = protection
        self.counters.add("protection_changes")
        if machine.scheme is Scheme.V_COMA:
            return self._vcoma_update_cost(vpn, home)
        return self._shootdown_cost()

    def unmap_page(self, vpn: int) -> int:
        """Demap a page (its cached translations must die everywhere);
        returns the cycle cost.  The page itself stays resident — this
        models remap-type operations, not swap-out."""
        self.counters.add("unmaps")
        if self.machine.scheme is Scheme.V_COMA:
            home = self.machine.layout.home_node_of_vpn(vpn)
            return self._vcoma_update_cost(vpn, home)
        return self._shootdown_cost()

    # ------------------------------------------------------------------
    def _shootdown_cost(self) -> int:
        """Classic TLB shootdown: interrupt every other processor, wait
        for all acknowledgements (overlapped interrupts, serial ack
        collection on the initiator)."""
        params = self.machine.params
        others = params.nodes - 1
        self.counters.add("shootdown_interrupts", others)
        # Interrupt request out, flush + ack back, per processor; the
        # interrupts overlap but each ack must be collected.
        return (
            params.request_msg_cycles  # broadcast request
            + SHOOTDOWN_INTERRUPT_CYCLES  # slowest handler
            + others * params.request_msg_cycles  # ack collection
        )

    def _vcoma_update_cost(self, vpn: int, home: int) -> int:
        """V-COMA: one home-side update plus messages to the nodes the
        directory says hold blocks of the page."""
        machine = self.machine
        params = machine.params
        holders = self._page_holders(vpn, home)
        holders.discard(home)
        self.counters.add("dlb_updates")
        self.counters.add("holder_updates", len(holders))
        cost = params.request_msg_cycles + params.directory_lookup_latency
        if holders:
            # Overlapped multicast of update messages + one ack round.
            cost += 2 * params.request_msg_cycles
        return cost

    def _page_holders(self, vpn: int, home: int) -> Set[int]:
        machine = self.machine
        layout = machine.layout
        base = vpn << layout.page_bits
        block = machine.params.am_block
        holders: Set[int] = set()
        for i in range(machine.params.blocks_per_page):
            entry = machine.engine.directories[home].peek(base + i * block)
            if entry is not None:
                holders |= entry.holders
        return holders

    # ------------------------------------------------------------------
    def mapping_change_cost(self) -> int:
        """Cost of one generic mapping change under this machine's
        scheme — the quantity whose scaling with node count motivates
        the paper (per-node TLBs get worse with P; V-COMA does not)."""
        if self.machine.scheme is Scheme.V_COMA:
            params = self.machine.params
            return params.request_msg_cycles + params.directory_lookup_latency
        return self._shootdown_cost()
