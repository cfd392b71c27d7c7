"""Global-set pressure accounting (Figure 11 substrate)."""

import pytest

from repro import CapacityError, ConfigurationError
from repro.vm.pressure import PressureTracker


@pytest.fixture
def tracker():
    return PressureTracker(global_page_sets=4, slots_per_set=8)


class TestAccounting:
    def test_initially_empty(self, tracker):
        assert tracker.profile() == [0.0] * 4

    def test_allocate_and_pressure(self, tracker):
        tracker.allocate_page(0)
        tracker.allocate_page(0)
        assert tracker.profile() == [pytest.approx(0.25), 0.0, 0.0, 0.0]

    def test_capacity_enforced(self, tracker):
        tracker.allocate_page(2, count=8)
        with pytest.raises(CapacityError):
            tracker.allocate_page(2)

    def test_exact_capacity_allowed(self, tracker):
        tracker.allocate_page(2, count=8)
        assert tracker.profile()[2] == 1.0

    def test_out_of_range_set(self, tracker):
        with pytest.raises(ConfigurationError):
            tracker.allocate_page(4)


class TestStatistics:
    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            PressureTracker(0, 8)
