"""Workload stream-building helpers (zipf, tree walk)."""

import statistics

import pytest

from repro.common.rng import make_rng
from repro.system.refs import WRITE
from repro.vm.segments import Segment
from repro.workloads.base import Workload


@pytest.fixture
def segment():
    return Segment("s", base=0x10000, size=64 * 1024)


def addresses(events):
    return [addr for _, addr in events]


class TestZipf:
    def test_all_addresses_in_segment(self, segment):
        rng = make_rng(0, "z")
        for _, addr in Workload.zipf_accesses(segment, 2000, rng):
            assert segment.contains(addr)

    def test_aligned_to_granularity(self, segment):
        rng = make_rng(0, "z")
        for _, addr in Workload.zipf_accesses(segment, 500, rng, granularity=64):
            assert (addr - segment.base) % 64 == 0

    def test_op_passthrough(self, segment):
        rng = make_rng(0, "z")
        events = list(Workload.zipf_accesses(segment, 10, rng, op=WRITE))
        assert all(op == WRITE for op, _ in events)

    def test_skew_concentrates_distinct_slots(self, segment):
        flat = set(addresses(Workload.zipf_accesses(
            segment, 3000, make_rng(0, "a"), skew=1.0, cluster_bytes=None)))
        hot = set(addresses(Workload.zipf_accesses(
            segment, 3000, make_rng(0, "a"), skew=5.0, cluster_bytes=None)))
        assert len(hot) < len(flat)

    def test_cluster_scatter_preserves_page_level_skew(self, segment):
        """Scattering by whole clusters must keep the number of distinct
        pages the same as the unscattered stream (only their identity
        changes)."""
        page = 512
        plain = Workload.zipf_accesses(
            segment, 3000, make_rng(0, "b"), skew=3.0, cluster_bytes=None
        )
        scattered = Workload.zipf_accesses(
            segment, 3000, make_rng(0, "b"), skew=3.0, cluster_bytes=page
        )
        plain_pages = {a // page for a in addresses(plain)}
        scattered_pages = {a // page for a in addresses(scattered)}
        assert len(scattered_pages) == pytest.approx(len(plain_pages), rel=0.15)

    def test_cluster_scatter_moves_hot_pages_off_segment_head(self, segment):
        page = 512
        scattered = addresses(Workload.zipf_accesses(
            segment, 3000, make_rng(0, "c"), skew=4.0, cluster_bytes=page
        ))
        # The hottest page is (almost surely) not the first page.
        from collections import Counter

        hottest = Counter(a // page for a in scattered).most_common(1)[0][0]
        assert hottest != segment.base // page


class TestTreeWalk:
    def test_bounds_and_alignment(self, segment):
        rng = make_rng(0, "t")
        for _, addr in Workload.tree_walk_accesses(segment, 2000, rng):
            assert segment.contains(addr)
            assert (addr - segment.base) % 64 == 0

    def test_root_is_hottest_without_scatter(self, segment):
        from collections import Counter

        rng = make_rng(0, "t")
        counts = Counter(addresses(Workload.tree_walk_accesses(
            segment, 5000, rng, descend=0.5, cluster_bytes=None
        )))
        root = segment.base  # heap slot 0
        assert counts[root] == max(counts.values())

    def test_level_distribution_geometric(self, segment):
        """Roughly (1-d) of all touches land on the root cell."""
        rng = make_rng(0, "t2")
        events = addresses(Workload.tree_walk_accesses(
            segment, 8000, rng, descend=0.5, cluster_bytes=None
        ))
        root_fraction = sum(1 for a in events if a == segment.base) / len(events)
        assert 0.4 < root_fraction < 0.6

    def test_higher_descend_reaches_more_pages(self, segment):
        shallow = addresses(Workload.tree_walk_accesses(
            segment, 4000, make_rng(0, "t3"), descend=0.3, cluster_bytes=None))
        deep = addresses(Workload.tree_walk_accesses(
            segment, 4000, make_rng(0, "t3"), descend=0.9, cluster_bytes=None))
        assert len(set(deep)) > len(set(shallow))

    def test_deterministic(self, segment):
        a = list(Workload.tree_walk_accesses(segment, 500, make_rng(7, "t")))
        b = list(Workload.tree_walk_accesses(segment, 500, make_rng(7, "t")))
        assert a == b

    def test_tiny_segment(self):
        seg = Segment("tiny", base=0, size=64)
        events = list(Workload.tree_walk_accesses(seg, 50, make_rng(0, "t")))
        assert len(events) == 50
        assert all(a == 0 for _, a in events)
