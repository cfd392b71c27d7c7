"""Workload generators: determinism, bounds, balance, character."""

import itertools

import pytest

from repro import MachineParams, Machine, Scheme, make_workload
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.workloads import PAPER_ORDER, WORKLOADS
from repro.workloads.base import Workload
from repro.workloads.raytrace import RaytraceWorkload


@pytest.fixture
def ctx_for(small_params):
    """Build a real WorkloadContext (segments allocated) for a workload."""

    def build(workload):
        machine = Machine(small_params, Scheme.V_COMA, workload)
        return machine.ctx

    return build


def take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestRegistry:
    def test_all_six_benchmarks_registered(self):
        assert set(PAPER_ORDER) == set(WORKLOADS)
        assert len(WORKLOADS) == 6

    def test_make_workload_by_name(self):
        wl = make_workload("radix")
        assert wl.name == "radix"

    def test_make_workload_case_insensitive(self):
        assert make_workload("OCEAN").name == "ocean"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_workload("nope")

    def test_config_forwarded(self):
        wl = make_workload("radix", passes=3)
        assert wl.passes == 3


class TestStreamContracts:
    def test_deterministic(self, ctx_for, workload_name):
        wl = make_workload(workload_name, intensity=0.1)
        ctx = ctx_for(wl)
        a = take(wl.node_stream(0, ctx), 500)
        b = take(wl.node_stream(0, ctx), 500)
        assert a == b

    def test_nodes_differ(self, ctx_for, workload_name):
        wl = make_workload(workload_name, intensity=0.1)
        ctx = ctx_for(wl)
        a = take(wl.node_stream(0, ctx), 300)
        b = take(wl.node_stream(1, ctx), 300)
        assert a != b

    def test_addresses_inside_declared_segments(self, ctx_for, workload_name):
        wl = make_workload(workload_name, intensity=0.1)
        ctx = ctx_for(wl)
        segments = list(ctx.segments.values())
        for op, value in take(wl.node_stream(0, ctx), 2000):
            if op in (READ, WRITE, LOCK, UNLOCK):
                assert any(s.contains(value) for s in segments), hex(value)

    def test_barriers_balanced_across_nodes(self, ctx_for, workload_name, small_params):
        wl = make_workload(workload_name, intensity=0.1)
        ctx = ctx_for(wl)
        barrier_seqs = []
        for node in range(small_params.nodes):
            seq = [v for op, v in wl.node_stream(node, ctx) if op == BARRIER]
            barrier_seqs.append(seq)
        assert all(seq == barrier_seqs[0] for seq in barrier_seqs)
        assert barrier_seqs[0]  # at least one barrier

    def test_locks_balanced(self, ctx_for, workload_name):
        wl = make_workload(workload_name, intensity=0.1)
        ctx = ctx_for(wl)
        events = list(wl.node_stream(0, ctx))
        locks = sum(1 for op, _ in events if op == LOCK)
        unlocks = sum(1 for op, _ in events if op == UNLOCK)
        assert locks == unlocks

    def test_intensity_scales_stream_length(self, ctx_for, workload_name):
        heavy = make_workload(workload_name, intensity=0.4)
        light = make_workload(workload_name, intensity=0.1)
        ctx = ctx_for(heavy)
        heavy_len = len(list(heavy.node_stream(0, ctx)))
        light_len = len(list(light.node_stream(0, ctx)))
        assert light_len < heavy_len


class TestCharacter:
    def test_radix_is_write_heavy(self, ctx_for):
        wl = make_workload("radix", intensity=0.2)
        ctx = ctx_for(wl)
        events = list(wl.node_stream(0, ctx))
        writes = sum(1 for op, _ in events if op == WRITE)
        reads = sum(1 for op, _ in events if op == READ)
        assert writes > 0.4 * (reads + writes)

    def test_raytrace_is_read_mostly(self, ctx_for):
        wl = make_workload("raytrace", intensity=0.3)
        ctx = ctx_for(wl)
        events = list(wl.node_stream(0, ctx))
        writes = sum(1 for op, _ in events if op == WRITE)
        reads = sum(1 for op, _ in events if op == READ)
        assert reads > 2 * writes

    def test_ocean_touches_neighbour_band(self, ctx_for, small_params):
        wl = make_workload("ocean", intensity=0.3)
        ctx = ctx_for(wl)
        # Node 1 must read some addresses inside node 0's and node 2's
        # bands (the shared boundary rows).
        grid = ctx.segment("grid_a")
        band = None
        reads = {v for op, v in wl.node_stream(1, ctx) if op == READ and grid.contains(v)}
        own_lo = min(reads)
        own_hi = max(reads)
        assert own_hi - own_lo > 0  # sanity: spans more than a point

    def test_radix_output_pages_shared_across_nodes(self, ctx_for, small_params):
        wl = make_workload("radix", intensity=0.2)
        ctx = ctx_for(wl)
        out = ctx.segment("keys_out")
        page = small_params.page_size

        def write_pages(node):
            return {
                v // page
                for op, v in wl.node_stream(node, ctx)
                if op == WRITE and out.contains(v)
            }

        shared = write_pages(0) & write_pages(1)
        assert shared  # the sharing effect's precondition

    @staticmethod
    def _stack_colors(machine, wl):
        """Colors per group: {group: set of colors of its elements}."""
        params = machine.params
        g = params.am_way_size // params.page_size
        depth = wl.effective_stack_depth(params)
        groups = wl.effective_stack_groups(params)
        colors = {}
        for group in range(groups):
            colors[group] = {
                (machine.space[f"stack{n}_g{group}_e{i}"].base // params.page_size) % g
                for n in range(params.nodes)
                for i in range(depth)
            }
        return colors

    def test_raytrace_v1_groups_collide_in_distinct_colors(self, small_params):
        # V1: all nodes' elements of one group share a single color, and
        # different groups pollute different colors.
        wl = RaytraceWorkload()
        machine = Machine(small_params, Scheme.V_COMA, wl)
        colors = self._stack_colors(machine, wl)
        assert all(len(c) == 1 for c in colors.values())
        distinct = {next(iter(c)) for c in colors.values()}
        assert len(distinct) == len(colors)

    def test_raytrace_v2_stacks_spread(self, small_params):
        wl = RaytraceWorkload.v2()
        machine = Machine(small_params, Scheme.V_COMA, wl)
        colors = self._stack_colors(machine, wl)
        all_colors = set().union(*colors.values())
        elements = sum(len(c) for c in colors.values())
        # Page-aligned padding: consecutive elements take consecutive
        # colors instead of piling onto one per group.
        assert len(all_colors) > len(colors)


class TestHelpers:
    def test_scaled_fraction(self, small_params):
        wl = make_workload("ocean")
        bytes_ = wl.scaled(small_params, 0.5)
        assert bytes_ == int(small_params.am_size * small_params.nodes * 0.5)

    def test_scaled_minimum_one_page(self, small_params):
        wl = make_workload("ocean")
        assert wl.scaled(small_params, 0.0000001) == small_params.page_size

    def test_zipf_skew_concentrates(self, ctx_for, small_params):
        from repro.common.rng import make_rng
        from repro.vm.segments import Segment

        seg = Segment("z", base=0, size=64 * 1024)
        flat = [
            v
            for _, v in Workload.zipf_accesses(seg, 3000, make_rng(0, "a"), skew=1.0)
        ]
        skewed = [
            v
            for _, v in Workload.zipf_accesses(seg, 3000, make_rng(0, "a"), skew=4.0)
        ]
        import statistics

        assert statistics.median(skewed) < statistics.median(flat)
