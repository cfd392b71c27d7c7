"""CC-NUMA machine assembly.

Mirrors :class:`~repro.system.machine.Machine` but with fixed home
memories instead of attraction memories: preload only maps pages to
frames, for the physical-home schemes (data "lives" at its home; there
are no master copies to place and no global-set pressure).  The same
:class:`~repro.system.node.Node`, translation agents, and
:class:`~repro.system.simulator.Simulator` drive it, so COMA-vs-NUMA
comparisons hold everything else equal.

Scheme flags mean the same as in the COMA machine; ``Scheme.V_COMA``
here *is* the paper's SHARED-TLB: virtual caches, the home selected by
the virtual address, translation performed at the home on every memory
access.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.address import AddressLayout
from repro.common.params import MachineParams
from repro.common.rng import make_rng
from repro.common.stats import Counters
from repro.coma.protocol import TranslationAgent
from repro.core.schemes import Scheme
from repro.interconnect.crossbar import Crossbar
from repro.numa.protocol import NumaEngine
from repro.system.machine import build_address_space, frames_exhausted
from repro.system.node import Node
from repro.workloads.base import Workload


class NumaMachine:
    """A CC-NUMA multiprocessor configured for one translation scheme."""

    def __init__(
        self,
        params: MachineParams,
        scheme: Scheme,
        workload: Workload,
        agent: Optional[TranslationAgent] = None,
        contention: bool = False,
        relaxed_writes: bool = False,
    ) -> None:
        self.params = params
        self.scheme = scheme
        self.workload = workload
        self.layout = AddressLayout.from_params(params)
        self.agent = agent if agent is not None else TranslationAgent()
        self.crossbar = Crossbar(params, contention=contention)
        self.counters = Counters()

        self._virtual_home = scheme.uses_virtual_am
        self.page_map: Dict[int, int] = {}
        self.reverse_map: Dict[int, int] = {}

        self.engine = NumaEngine(
            params,
            self.layout,
            self.crossbar,
            agent=self.agent,
            inclusion_hook=self._inclusion_hook,
            rng=make_rng(params.seed, "numa"),
        )

        self.space, self.ctx = build_address_space(params, self.layout, workload)

        self.nodes: List[Node] = [
            Node(
                n,
                params,
                scheme,
                self.engine,
                self.agent,
                to_physical=self._to_physical,
                to_virtual=self._to_virtual,
                relaxed_writes=relaxed_writes,
            )
            for n in range(params.nodes)
        ]

        self._preload()

    # ------------------------------------------------------------------
    def _to_physical(self, vaddr: int) -> int:
        page_bits = self.layout.page_bits
        pfn = self.page_map[vaddr >> page_bits]
        return (pfn << page_bits) | (vaddr & (self.params.page_size - 1))

    def _to_virtual(self, paddr: int) -> int:
        page_bits = self.layout.page_bits
        vpn = self.reverse_map[paddr >> page_bits]
        return (vpn << page_bits) | (paddr & (self.params.page_size - 1))

    def _preload(self) -> None:
        """Map every page; with physical addressing, page ``i`` gets
        frame ``i``, so frames go out round robin over the homes (the
        OS's page placement — the thing the paper notes cannot chase
        locality in a CC-NUMA)."""
        frames = self.params.total_am_pages
        pfn = 0
        for segment in self.space:
            for vpn in segment.pages(self.params.page_size):
                if not self._virtual_home:
                    if pfn == frames:
                        raise frames_exhausted(vpn)
                    self.page_map[vpn] = pfn
                    self.reverse_map[pfn] = vpn
                    pfn += 1
                self.counters.add("pages_preloaded")

    # ------------------------------------------------------------------
    def _inclusion_hook(self, node: int, proto_block: int, action: str) -> None:
        self.nodes[node].on_inclusion(proto_block, action)

    def node_stream(self, node: int):
        return self.workload.node_stream(node, self.ctx)

    def merged_counters(self) -> Counters:
        merged = self.counters.merge(self.engine.counters).merge(self.crossbar.counters)
        for node in self.nodes:
            merged = merged.merge(node.counters)
        return merged

    def __repr__(self) -> str:
        return (
            f"NumaMachine({self.scheme.value}, {self.workload.name}, "
            f"{self.params.nodes} nodes)"
        )
