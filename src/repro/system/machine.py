"""Machine assembly: substrates wired for one translation scheme.

``Machine(params, scheme, workload)`` builds the full system:

* the segmented virtual address space with the workload's segments,
* per-home page tables; for virtual-AM schemes (L3-TLB, V-COMA) a
  directory-page allocator per home, for physical-AM schemes (L0/L1/L2)
  the round-robin frame allocator and the virtual↔physical page maps,
* attraction memories + directories + COMA-F protocol engine,
* one :class:`~repro.system.node.Node` per processor, wired with the
  right cache virtuality and translation taps,
* global-set pressure accounting (paper Figure 11),

then **preloads** every page (the paper simulates no paging): page-table
entries, directory pages/frames, and one master copy per memory block
spread from its home node.

The preload's page order, frames and global-set pressure come from
:func:`place_pages`, which needs no machine: the compiled engine's
``fs_preload`` builds the same attraction-memory and directory image
from it.

Note on L3-TLB: with page coloring and at least as many page colors as
nodes (the paper's regime), the physical home of a page coincides with
its virtual home, and virtual indexing makes the AM placement identical
to V-COMA's; the schemes then differ only in *where* translation happens
— which is exactly how we model them (shared protocol state, different
taps).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.address import AddressLayout
from repro.common.params import MachineParams
from repro.common.rng import make_rng
from repro.common.stats import Counters
from repro.coma.protocol import ProtocolEngine, TranslationAgent
from repro.core.directory_space import DirectoryAddressSpace
from repro.core.schemes import Scheme
from repro.interconnect.crossbar import Crossbar
from repro.system.node import Node
from repro.vm.frames import FrameAllocator
from repro.vm.page_table import HomePageTable, PageTableEntry
from repro.vm.pressure import PressureTracker
from repro.vm.segments import SegmentedAddressSpace
from repro.workloads.base import Workload, WorkloadContext


def build_address_space(
    params: MachineParams, layout: AddressLayout, workload: Workload
) -> Tuple[SegmentedAddressSpace, WorkloadContext]:
    """The workload's segments, allocated in declaration order, and the
    context its reference streams are generated in."""
    space = SegmentedAddressSpace(params.page_size)
    segments = {}
    for spec in workload.segment_specs(params):
        segments[spec.name] = space.allocate(
            spec.name,
            spec.size,
            kind=spec.kind,
            owner=spec.owner,
            alignment=spec.alignment,
            offset=spec.offset,
        )
    return space, WorkloadContext(params, layout, segments, params.seed, workload.name)


def engine_rng(params: MachineParams):
    """The protocol engine's injection-forwarding RNG substream."""
    return make_rng(params.seed, "inject")


@dataclass
class Placement:
    """Where the preload puts every page (paper Section 5.1).

    ``vpns`` lists the pages in preload order; ``ppns`` holds each
    page's protocol page number: the VPN itself when the attraction
    memory is virtually indexed, otherwise the sequential PFN the
    frame allocator handed out.  ``pressure`` is the resulting
    global-set occupancy (Figure 11).
    """

    vpns: array
    ppns: array
    pressure: PressureTracker
    frames: Optional[FrameAllocator]


def place_pages(
    params: MachineParams,
    layout: AddressLayout,
    virtual_am: bool,
    space: SegmentedAddressSpace,
) -> Placement:
    """Assign every page of ``space`` its protocol page and global set.

    A page's global set is the low bits of its protocol page: the VPN
    with a virtual AM, else the PFN, and a fresh allocator without
    colouring hands out PFNs 0, 1, 2, … in page order.  So the whole
    placement is range arithmetic; only a data set that does not fit is
    replayed page by page, so that the first page that does not fit
    raises the :class:`~repro.common.errors.CapacityError` it always
    has (physical memory runs out, or a global page set overflows its
    ``P*K`` slots).
    """
    colors = layout.global_page_sets
    slots = params.page_slots_per_global_set
    pressure = PressureTracker(colors, slots)
    ranges = [segment.pages(params.page_size) for segment in space]
    vpns = array("q")
    for pages in ranges:
        vpns.extend(pages)
    count = len(vpns)
    if virtual_am:
        frames = None
        ppns = array("q", vpns)
        occupied = [0] * colors
        for pages in ranges:
            _count_colors(occupied, pages)
        fits = max(occupied) <= slots
    else:
        frames = FrameAllocator(layout, params.pages_per_am, coloring=False)
        ppns = array("q", range(count))
        whole, extra = divmod(count, colors)
        occupied = [whole + (c < extra) for c in range(colors)]
        fits = count <= frames.total_frames and max(occupied) <= slots
    if fits:
        pressure.occupy(occupied)
        if frames is not None:
            frames.allocate_first(vpns)
    else:
        for vpn in vpns:
            ppn = vpn if frames is None else frames.allocate(vpn)
            pressure.allocate_page(ppn & (colors - 1))
    return Placement(vpns, ppns, pressure, frames)


def _count_colors(occupied: List[int], pages: range) -> None:
    """Add the pages of one contiguous VPN range to each colour's count."""
    colors = len(occupied)
    whole, extra = divmod(len(pages), colors)
    if whole:
        for c in range(colors):
            occupied[c] += whole
    first = pages.start
    for i in range(extra):
        occupied[(first + i) & (colors - 1)] += 1


def write_trace_meta(tracer, params: MachineParams, scheme: Scheme, workload: Workload) -> None:
    """A run's trace header: scheme, node count, workload and version."""
    from repro import __version__

    tracer.set_meta(
        scheme=scheme.value, nodes=params.nodes, workload=workload.name, version=__version__
    )


def merge_counters(bags: List[Counters], agent, scheme: Scheme) -> Counters:
    """The machine-wide counter bag: machine, engine, crossbar and node
    counters summed in that order, plus the timing agent's translation
    statistics.

    Those are derived here, not maintained on the hot path.  For V-COMA
    the structure is the home-directory DLB, otherwise a per-node TLB;
    with tracing on, ``dlb_hit + dlb_fill`` events reconcile exactly
    with ``dlb_accesses`` (and fills with misses).
    """
    merged = bags[0]
    for bag in bags[1:]:
        merged = merged.merge(bag)
    accesses = getattr(agent, "total_accesses", None)
    if accesses is not None:
        prefix = "dlb" if scheme is Scheme.V_COMA else "tlb"
        merged[f"{prefix}_accesses"] = accesses
        merged[f"{prefix}_misses"] = agent.total_misses
    return merged


class Machine:
    """A COMA multiprocessor configured for one scheme and workload."""

    def __init__(
        self,
        params: MachineParams,
        scheme: Scheme,
        workload: Workload,
        agent: Optional[TranslationAgent] = None,
        contention: bool = False,
        relaxed_writes: bool = False,
        tracer=None,
    ) -> None:
        self.params = params
        self.scheme = scheme
        self.workload = workload
        self.layout = AddressLayout.from_params(params)
        self.agent = agent if agent is not None else TranslationAgent()
        self.crossbar = Crossbar(params, contention=contention)
        self.counters = Counters()
        #: Optional :class:`~repro.obs.trace.Tracer`, threaded through
        #: every instrumented layer (simulator, nodes, protocol engine,
        #: crossbar, translation agent).  None → tracing disabled.
        self.tracer = tracer
        if tracer is not None:
            write_trace_meta(tracer, params, scheme, workload)
            self.crossbar.trace = tracer
            self.agent.attach_trace(tracer)

        self._virtual_am = scheme.uses_virtual_am
        self.page_map: Dict[int, int] = {}
        self.reverse_map: Dict[int, int] = {}
        self.page_tables: List[HomePageTable] = [
            HomePageTable(n, self.layout.global_page_sets) for n in range(params.nodes)
        ]
        self.directory_spaces: List[DirectoryAddressSpace] = [
            DirectoryAddressSpace(params.blocks_per_page) for _ in range(params.nodes)
        ]

        self.engine = ProtocolEngine(
            params,
            self.layout,
            self.crossbar,
            agent=self.agent,
            inclusion_hook=self._inclusion_hook,
            rng=engine_rng(params),
        )
        if tracer is not None:
            self.engine.trace = tracer

        # -- segments and workload context ------------------------------
        self.space, self.ctx = build_address_space(params, self.layout, workload)

        # -- nodes -------------------------------------------------------
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
                trace=tracer,
            )
            for n in range(params.nodes)
        ]

        self._preload()

    # ------------------------------------------------------------------
    # address-space conversion
    # ------------------------------------------------------------------
    def _to_physical(self, vaddr: int) -> int:
        page_bits = self.layout.page_bits
        pfn = self.page_map[vaddr >> page_bits]
        return (pfn << page_bits) | (vaddr & (self.params.page_size - 1))

    def _to_virtual(self, paddr: int) -> int:
        page_bits = self.layout.page_bits
        vpn = self.reverse_map[paddr >> page_bits]
        return (vpn << page_bits) | (paddr & (self.params.page_size - 1))

    # ------------------------------------------------------------------
    # preload (paper Section 5.1: data sets preloaded, no paging)
    # ------------------------------------------------------------------
    def _preload(self) -> None:
        layout = self.layout
        page_bits = layout.page_bits
        block = self.params.am_block
        blocks_per_page = self.params.blocks_per_page
        self.placement = place_pages(self.params, layout, self._virtual_am, self.space)
        self.pressure = self.placement.pressure
        self.frames = self.placement.frames
        for vpn, ppn in zip(self.placement.vpns, self.placement.ppns):
            home = layout.home_node_of_vpn(vpn)
            if self._virtual_am:
                handle = self.directory_spaces[home].allocate()
                self.page_tables[home].insert(PageTableEntry(vpn, handle.base))
            else:
                self.page_map[vpn] = ppn
                self.reverse_map[ppn] = vpn
                self.page_tables[home].insert(PageTableEntry(vpn, ppn))
            proto_base = ppn << page_bits
            for i in range(blocks_per_page):
                self.engine.preload_block(proto_base + i * block)
            self.counters.add("pages_preloaded")

    # ------------------------------------------------------------------
    def _inclusion_hook(self, node: int, proto_block: int, action: str) -> None:
        self.nodes[node].on_inclusion(proto_block, action)

    # ------------------------------------------------------------------
    def node_stream(self, node: int):
        """The workload's reference stream for one node."""
        return self.workload.node_stream(node, self.ctx)

    def merged_counters(self) -> Counters:
        return merge_counters(
            [self.counters, self.engine.counters, self.crossbar.counters]
            + [node.counters for node in self.nodes],
            self.agent,
            self.scheme,
        )

    def __repr__(self) -> str:
        return (
            f"Machine({self.scheme.value}, {self.workload.name}, "
            f"{self.params.nodes} nodes)"
        )
