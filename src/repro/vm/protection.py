"""Translation-coherence cost of one mapping or protection change.

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

Both costs are closed forms of the machine's message and directory
latencies (see ``python -m repro paper run ablation-shootdown``).
"""

from __future__ import annotations

from repro.common.params import MachineParams

#: Cycles for a processor to take an inter-processor interrupt, flush
#: the TLB entry, and acknowledge — a conservative, literature-typical
#: shootdown cost per interrupted processor.
SHOOTDOWN_INTERRUPT_CYCLES = 200


def shootdown_cost(params: MachineParams) -> int:
    """Per-node TLBs: interrupt every other processor and wait for all
    acknowledgements.  The interrupts overlap (one broadcast request,
    the slowest handler), but the initiator collects each ack in turn,
    so the cost grows with the node count."""
    others = params.nodes - 1
    return (
        params.request_msg_cycles  # broadcast request
        + SHOOTDOWN_INTERRUPT_CYCLES  # slowest handler
        + others * params.request_msg_cycles  # ack collection
    )


def home_update_cost(params: MachineParams) -> int:
    """V-COMA: one message to the home and one directory access to
    update its page table and DLB entry, whatever the node count."""
    return params.request_msg_cycles + params.directory_lookup_latency
