"""Machine description: sizes, geometries and latencies.

:class:`MachineParams` is an immutable, validated description of the
simulated multiprocessor.  The defaults are the paper's baseline (Section
5.1): 32 nodes, 200 MHz processors, a 16 KB direct-mapped write-through
FLC with 32-byte blocks, a 64 KB 4-way write-back SLC with 64-byte blocks,
a 4 MB 4-way attraction memory with 128-byte blocks, 4 KB pages, and an
8-bit crossbar at 100 MHz on which an 8-byte request takes 16 processor
cycles and a block message 272.

Tests and benchmarks typically use :meth:`MachineParams.scaled_down`,
which shrinks every memory by a common factor while keeping the paper's
geometry (associativities, block sizes, latency ratios) intact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.errors import ConfigurationError


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _log2(x: int) -> int:
    return x.bit_length() - 1


@dataclass(frozen=True)
class MachineParams:
    """Immutable description of the simulated COMA multiprocessor.

    All sizes are in bytes and must be powers of two.  Latencies are in
    processor cycles.  Network message costs are derived from the crossbar
    width and the clock ratio but can be overridden.
    """

    nodes: int = 32
    cpu_clock_mhz: int = 200
    network_clock_mhz: int = 100
    page_size: int = 4096

    flc_size: int = 16 * 1024
    flc_block: int = 32
    flc_assoc: int = 1

    slc_size: int = 64 * 1024
    slc_block: int = 64
    slc_assoc: int = 4

    am_size: int = 4 * 1024 * 1024
    am_block: int = 128
    am_assoc: int = 4

    slc_hit_latency: int = 6
    am_hit_latency: int = 74
    translation_miss_penalty: int = 40
    directory_lookup_latency: int = 4

    network_width_bytes: int = 1
    request_payload_bytes: int = 8
    message_header_bytes: int = 8

    seed: int = 1998

    def __post_init__(self) -> None:
        for name in (
            "nodes",
            "page_size",
            "flc_size",
            "flc_block",
            "flc_assoc",
            "slc_size",
            "slc_block",
            "slc_assoc",
            "am_size",
            "am_block",
            "am_assoc",
        ):
            value = getattr(self, name)
            if not _is_pow2(value):
                raise ConfigurationError(f"{name}={value} must be a power of two")
        for name in (
            "cpu_clock_mhz",
            "network_clock_mhz",
            "slc_hit_latency",
            "am_hit_latency",
            "translation_miss_penalty",
            "directory_lookup_latency",
            "network_width_bytes",
            "request_payload_bytes",
            "message_header_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.cpu_clock_mhz % self.network_clock_mhz != 0:
            raise ConfigurationError("cpu clock must be a multiple of the network clock")
        if not self.flc_block <= self.slc_block <= self.am_block:
            raise ConfigurationError("block sizes must not shrink down the hierarchy")
        for level, (size, block, assoc) in {
            "flc": (self.flc_size, self.flc_block, self.flc_assoc),
            "slc": (self.slc_size, self.slc_block, self.slc_assoc),
            "am": (self.am_size, self.am_block, self.am_assoc),
        }.items():
            if size % (block * assoc) != 0:
                raise ConfigurationError(
                    f"{level}_size must be a multiple of block*assoc "
                    f"({size} % {block * assoc} != 0)"
                )
            if not _is_pow2(size // (block * assoc)):
                raise ConfigurationError(f"{level} set count must be a power of two")
        if self.page_size < self.am_block:
            raise ConfigurationError("a page must hold at least one attraction-memory block")
        if self.am_way_size < self.page_size:
            raise ConfigurationError(
                "attraction-memory way size must be at least one page "
                f"(way={self.am_way_size}, page={self.page_size}); "
                "a page must map onto consecutive AM sets"
            )

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    @property
    def clock_ratio(self) -> int:
        """Processor cycles per network cycle."""
        return self.cpu_clock_mhz // self.network_clock_mhz

    @property
    def flc_sets(self) -> int:
        return self.flc_size // (self.flc_block * self.flc_assoc)

    @property
    def slc_sets(self) -> int:
        return self.slc_size // (self.slc_block * self.slc_assoc)

    @property
    def am_sets(self) -> int:
        return self.am_size // (self.am_block * self.am_assoc)

    @property
    def am_way_size(self) -> int:
        """Bytes covered by one way of the attraction memory (S*B)."""
        return self.am_size // self.am_assoc

    @property
    def global_page_sets(self) -> int:
        """Number of *global page sets* (page colors): ``S*B / N``."""
        return self.am_way_size // self.page_size

    @property
    def pages_per_am(self) -> int:
        return self.am_size // self.page_size

    @property
    def page_slots_per_global_set(self) -> int:
        """Maximum page slots in a global page set: ``P * K`` (paper §6)."""
        return self.nodes * self.am_assoc

    @property
    def blocks_per_page(self) -> int:
        """Directory entries per directory page (paper §4.2)."""
        return self.page_size // self.am_block

    @property
    def total_am_pages(self) -> int:
        """System-wide attraction-memory capacity in pages."""
        return self.pages_per_am * self.nodes

    # ------------------------------------------------------------------
    # derived latencies (processor cycles)
    # ------------------------------------------------------------------
    @property
    def request_msg_cycles(self) -> int:
        """Cycles to deliver an 8-byte request over the crossbar.

        8 payload bytes on a 1-byte-wide link at a 2:1 clock ratio gives
        the paper's 16 processor cycles.
        """
        flits = -(-self.request_payload_bytes // self.network_width_bytes)
        return flits * self.clock_ratio

    @property
    def block_msg_cycles(self) -> int:
        """Cycles to deliver a message carrying one AM block.

        Header + 128-byte block on the default crossbar gives the paper's
        272 processor cycles.
        """
        payload = self.am_block + self.message_header_bytes
        flits = -(-payload // self.network_width_bytes)
        return flits * self.clock_ratio

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "MachineParams":
        """Return a copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def paper_baseline(cls) -> "MachineParams":
        """The exact configuration of Section 5.1."""
        return cls()

    @classmethod
    def scaled_down(cls, factor: int = 64, nodes: int = 8, **overrides) -> "MachineParams":
        """A geometry-preserving shrink of the paper machine.

        ``factor`` divides every memory size (FLC floor 1 KB, SLC floor
        2 KB, AM floor 16 KB) while keeping block sizes, associativities
        and latencies; ``nodes`` replaces the node count.  Extra keyword
        overrides are applied last.
        """
        if factor < 1:
            raise ConfigurationError("scale factor must be >= 1")
        base = cls()
        params = {
            "nodes": nodes,
            "flc_size": max(base.flc_size // factor, 1024),
            "slc_size": max(base.slc_size // factor, 2048),
            "am_size": max(base.am_size // factor, 16 * 1024),
            "page_size": min(base.page_size, max(base.am_size // factor, 16 * 1024) // base.am_assoc),
        }
        params.update(overrides)
        return cls(**params)

    def describe(self) -> str:
        """Human-readable multi-line summary of the configuration."""
        lines = [
            f"{self.nodes} nodes @ {self.cpu_clock_mhz} MHz",
            f"FLC {self.flc_size // 1024} KB {self.flc_assoc}-way, {self.flc_block} B blocks (write-through)",
            f"SLC {self.slc_size // 1024} KB {self.slc_assoc}-way, {self.slc_block} B blocks (write-back)",
            f"AM  {self.am_size // 1024} KB {self.am_assoc}-way, {self.am_block} B blocks",
            f"page {self.page_size} B, {self.global_page_sets} global page sets "
            f"x {self.page_slots_per_global_set} slots",
            f"latency: SLC {self.slc_hit_latency}, AM {self.am_hit_latency}, "
            f"request {self.request_msg_cycles}, block {self.block_msg_cycles}, "
            f"TLB/DLB miss {self.translation_miss_penalty} cycles",
        ]
        return "\n".join(lines)
