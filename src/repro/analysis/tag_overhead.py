"""Virtual-tag memory overhead (paper Section 6).

V-COMA tags the attraction memory with virtual addresses, which are
longer than physical ones: "32-bit PowerPC implements 52-bit virtual
address and 32-bit physical address; 64-bit PowerPC implements 80-bit
virtual address and 64-bit physical address.  Including the access right
bits, the virtual tag may [be] 2 to 3 bytes longer than physical tag.
This will increase the tag memory by 1.5% ~ 2.5% of the attraction
memory (assuming 128 byte block size), and 3% ~ 4.5% for 64 bytes, and
6% ~ 9% for 32 bytes cache block size."

:func:`tag_overhead` computes those numbers exactly, for any geometry,
so designers can evaluate the trade-off the paper flags (and the CAT
tag-compression mitigation's headroom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: (virtual bits, physical bits) for the paper's two reference ISAs.
POWERPC_32 = (52, 32)
POWERPC_64 = (80, 64)


@dataclass(frozen=True)
class TagOverhead:
    """Tag storage for one addressing option, in bits per block."""

    tag_bits: int
    block_bytes: int


def tag_bits(address_bits: int, block_bytes: int, sets: int, access_right_bits: int = 4) -> int:
    """Tag width for one cache block: address bits minus the block
    offset and set-index bits, plus per-block access-right bits (needed
    in virtually tagged levels, paper §2.2.4)."""
    offset_bits = (block_bytes - 1).bit_length()
    index_bits = (sets - 1).bit_length() if sets > 1 else 0
    return max(0, address_bits - offset_bits - index_bits) + access_right_bits


def extra_tag_bytes_per_block(
    virtual_bits: int,
    physical_bits: int,
    block_bytes: int,
    sets: int,
    access_right_bits: int = 4,
) -> float:
    """How many more tag *bytes* a virtual tag costs per block.

    The physical tag needs no access-right bits (rights are checked at
    the TLB); the virtual tag carries them.
    """
    virtual = tag_bits(virtual_bits, block_bytes, sets, access_right_bits)
    physical = tag_bits(physical_bits, block_bytes, sets, access_right_bits=0)
    return (virtual - physical) / 8.0


def tag_overhead_increase(
    virtual_bits: int,
    physical_bits: int,
    block_bytes: int,
    sets: int = 1,
    access_right_bits: int = 4,
) -> float:
    """The paper's §6 metric: extra tag memory as a fraction of the
    attraction memory's data capacity."""
    extra_bytes = extra_tag_bytes_per_block(
        virtual_bits, physical_bits, block_bytes, sets, access_right_bits
    )
    return extra_bytes / block_bytes


def paper_table(sets: int = 1) -> Dict[Tuple[str, int], float]:
    """Reproduce the paper's §6 figures: overhead increase for both
    PowerPC variants at 128/64/32-byte blocks.

    Returns ``{(isa, block_bytes): fraction}``; the paper quotes the
    ranges 1.5-2.5% (128 B), 3-4.5% (64 B) and 6-9% (32 B) across the
    two ISAs.
    """
    table = {}
    for isa, (v, p) in (("ppc32", POWERPC_32), ("ppc64", POWERPC_64)):
        for block in (128, 64, 32):
            table[(isa, block)] = tag_overhead_increase(v, p, block, sets)
    return table


def render_tag_overhead_table(sets: int = 1) -> str:
    """Text rendering of :func:`paper_table`."""
    table = paper_table(sets)
    lines = [
        "Virtual-tag memory overhead vs physical tags (paper §6)",
        "block      ppc32 (52/32)   ppc64 (80/64)",
    ]
    for block in (128, 64, 32):
        a = table[("ppc32", block)] * 100
        b = table[("ppc64", block)] * 100
        lines.append(f"{block:>4} B     {a:9.2f}%      {b:9.2f}%")
    return "\n".join(lines)
