"""Machine assembly and preload."""

import pytest

from repro import CapacityError, CustomWorkload, Machine, Scheme, SegmentSpec, make_workload
from repro.coma.states import AMState
from repro.common.address import AddressLayout
from repro.system.machine import build_address_space, place_pages
from repro.system.refs import READ
from repro.system.simulator import run_summary
from repro.system.taps import TimingAgent
from repro.vm.pressure import PressureTracker
from repro.workloads import PAPER_ORDER


def simple_workload(pages=8, page_size=256):
    def stream(node, ctx):
        segment = ctx.segment("data")
        yield READ, segment.base

    return CustomWorkload(
        [SegmentSpec("data", pages * page_size)], stream, name="simple"
    )


@pytest.fixture
def vcoma_machine(small_params):
    return Machine(small_params, Scheme.V_COMA, simple_workload())


@pytest.fixture
def l0_machine(small_params):
    return Machine(small_params, Scheme.L0_TLB, simple_workload())


def data_pages(machine):
    return list(machine.space["data"].pages(machine.params.page_size))


class TestPreloadVirtual:
    def test_every_page_mapped_at_home(self, vcoma_machine):
        machine = vcoma_machine
        placed = set(machine.placement.vpns)
        for vpn in data_pages(machine):
            assert vpn in placed
            home = machine.layout.home_node_of_vpn(vpn)
            entry = machine.engine.directories[home].peek(vpn << machine.layout.page_bits)
            assert entry is not None and entry.owner is not None

    def test_directory_pages_allocated(self, vcoma_machine):
        """Every block of every page has its directory entry at the
        page's home."""
        machine = vcoma_machine
        page_bits = machine.layout.page_bits
        blocks = {
            (vpn << page_bits) + i * machine.params.am_block
            for vpn in data_pages(machine)
            for i in range(machine.params.blocks_per_page)
        }
        held = {b for d in machine.engine.directories for b, _ in d.blocks()}
        assert held == blocks

    def test_masters_installed(self, vcoma_machine):
        machine = vcoma_machine
        block = machine.params.am_block
        segment = machine.space["data"]
        for addr in range(segment.base, segment.end, block):
            entry = machine.engine.directories[machine.layout.home_node(addr)].entry(addr)
            assert entry.owner is not None
            assert machine.engine.ams[entry.owner].state_of(addr) is AMState.MASTER_SHARED

    def test_pressure_recorded(self, vcoma_machine):
        assert sum(vcoma_machine.pressure.profile()) > 0

    def test_no_frames_for_virtual_scheme(self, vcoma_machine):
        placement = vcoma_machine.placement
        assert list(placement.ppns) == list(placement.vpns)
        assert not vcoma_machine.page_map

    def test_invariants_after_preload(self, vcoma_machine):
        vcoma_machine.engine.check_invariants()

    def test_overcommitted_set_raises(self, small_params):
        """More same-color pages than the whole global set holds: the
        preload itself fails, since the simulator never pages."""
        colors = small_params.am_way_size // small_params.page_size
        span = (small_params.nodes * small_params.am_assoc + 2) * colors
        workload = simple_workload(pages=span, page_size=small_params.page_size)
        with pytest.raises(CapacityError):
            Machine(small_params, Scheme.V_COMA, workload)


class TestPreloadPhysical:
    def test_frames_allocated_per_page(self, l0_machine):
        vpns = data_pages(l0_machine)
        assert l0_machine.page_map == {vpn: i for i, vpn in enumerate(vpns)}
        assert list(l0_machine.placement.ppns) == list(range(len(vpns)))

    def test_round_robin_homes(self, l0_machine):
        nodes = l0_machine.params.nodes
        homes = [pfn & (nodes - 1) for pfn in sorted(l0_machine.page_map.values())]
        assert homes[:nodes] == list(range(nodes))

    def test_address_conversion_roundtrip(self, l0_machine):
        segment = l0_machine.space["data"]
        vaddr = segment.base + 1234
        paddr = l0_machine._to_physical(vaddr)
        assert l0_machine._to_virtual(paddr) == vaddr
        # Page offsets survive translation.
        page_mask = l0_machine.params.page_size - 1
        assert paddr & page_mask == vaddr & page_mask

    def test_masters_at_physical_homes(self, l0_machine):
        machine = l0_machine
        block = machine.params.am_block
        segment = machine.space["data"]
        for vaddr in range(segment.base, segment.end, block):
            paddr = machine._to_physical(vaddr)
            home = machine.layout.home_node(paddr)
            entry = machine.engine.directories[home].entry(paddr)
            assert entry.owner is not None

    def test_invariants_after_preload(self, l0_machine):
        l0_machine.engine.check_invariants()


class TestAssembly:
    def test_one_node_per_processor(self, vcoma_machine, small_params):
        assert len(vcoma_machine.nodes) == small_params.nodes

    def test_node_stream_comes_from_workload(self, vcoma_machine):
        events = list(vcoma_machine.node_stream(0))
        assert len(events) == 1
        assert events[0][0] == READ

    def test_merged_counters_include_preload(self, vcoma_machine):
        counters = vcoma_machine.merged_counters()
        assert counters["pages_preloaded"] == len(data_pages(vcoma_machine))

    def test_repr_mentions_scheme(self, vcoma_machine):
        assert "V-COMA" in repr(vcoma_machine)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_every_scheme_builds(self, small_params, scheme):
        machine = Machine(small_params, scheme, simple_workload())
        machine.engine.check_invariants()


def place_page_by_page(params, layout, virtual_am, space):
    """The placement one page at a time through the tracker, page ``i``
    taking PFN ``i`` on a physical AM: the reference :func:`place_pages`
    must equal."""
    pressure = PressureTracker(layout.global_page_sets, params.page_slots_per_global_set)
    vpns, ppns = [], []
    for segment in space:
        for vpn in segment.pages(params.page_size):
            ppn = vpn if virtual_am else len(vpns)
            pressure.allocate_page(ppn & (layout.global_page_sets - 1))
            vpns.append(vpn)
            ppns.append(ppn)
    return vpns, ppns, pressure


class TestPlacePages:
    @pytest.mark.parametrize("virtual_am", [True, False], ids=["virtual", "physical"])
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_equals_page_by_page_placement(self, small_params, name, virtual_am):
        layout = AddressLayout.from_params(small_params)
        space, _ = build_address_space(small_params, layout, make_workload(name))
        placement = place_pages(small_params, layout, virtual_am, space)
        vpns, ppns, pressure = place_page_by_page(small_params, layout, virtual_am, space)
        assert list(placement.vpns) == vpns and list(placement.ppns) == ppns
        assert placement.pressure.profile() == pressure.profile()


def one_page_too_many(params):
    """A data set of one page more than the attraction memories hold,
    and the VPN of that page."""
    workload = simple_workload(pages=params.total_am_pages + 1, page_size=params.page_size)
    layout = AddressLayout.from_params(params)
    space, _ = build_address_space(params, layout, workload)
    return workload, space["data"].pages(params.page_size)[-1]


class TestPhysicalCapacity:
    """A physical-AM data set that outgrows the frames fails at its
    first page without one, on every path that places pages."""

    def test_machine_raises_at_first_unfit_page(self, small_params):
        workload, vpn = one_page_too_many(small_params)
        with pytest.raises(CapacityError, match=f"physical memory exhausted allocating VPN {vpn:#x}$"):
            Machine(small_params, Scheme.L0_TLB, workload)

    def test_run_summary_raises_at_first_unfit_page(self, small_params):
        """On the compiled engine the placement comes from the headless
        run, without a machine."""
        workload, vpn = one_page_too_many(small_params)
        with pytest.raises(CapacityError, match=f"physical memory exhausted allocating VPN {vpn:#x}$"):
            run_summary(
                small_params, Scheme.L0_TLB, workload,
                lambda: TimingAgent(small_params, Scheme.L0_TLB, 8),
            )

    def test_exact_fit_places_every_frame(self, small_params):
        workload = simple_workload(pages=small_params.total_am_pages, page_size=small_params.page_size)
        machine = Machine(small_params, Scheme.L0_TLB, workload)
        assert sorted(machine.reverse_map) == list(range(small_params.total_am_pages))
        assert machine.pressure.profile() == [1.0] * machine.layout.global_page_sets
