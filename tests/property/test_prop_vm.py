"""Property tests: virtual-memory substrate invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CapacityError
from repro.vm.pressure import PressureTracker
from repro.vm.segments import SegmentedAddressSpace


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
segment_requests = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=1 << 16),  # size
        st.sampled_from([None, 256, 512, 4096]),  # alignment
    ),
    min_size=1,
    max_size=20,
)


@given(requests=segment_requests)
@settings(max_examples=150, deadline=None)
def test_segments_disjoint_aligned_and_ordered(requests):
    space = SegmentedAddressSpace(page_size=256)
    segments = [
        space.allocate(f"s{i}", size, alignment=align)
        for i, (size, align) in enumerate(requests)
    ]
    for i, segment in enumerate(segments):
        align = requests[i][1] or 256
        assert segment.base % align == 0
        if i:
            assert segment.base >= segments[i - 1].end
    # each segment's first and last byte is covered by it alone
    for segment in segments:
        for addr in (segment.base, segment.end - 1):
            assert [s for s in space if s.contains(addr)] == [segment]


# ----------------------------------------------------------------------
# pressure
# ----------------------------------------------------------------------
pressure_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=3)),
    max_size=200,
)


@given(ops=pressure_ops)
@settings(max_examples=150, deadline=None)
def test_pressure_bookkeeping_consistent(ops):
    tracker = PressureTracker(global_page_sets=8, slots_per_set=4)
    model = [0] * 8
    for gps, count in ops:
        if model[gps] + count > 4:
            with pytest.raises(CapacityError):
                tracker.allocate_page(gps, count)
        else:
            tracker.allocate_page(gps, count)
            model[gps] += count
        profile = tracker.profile()
        assert profile == [m / 4 for m in model]
        assert all(0.0 <= p <= 1.0 for p in profile)
