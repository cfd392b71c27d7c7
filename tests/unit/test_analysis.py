"""Analysis helpers: equivalent sizes, tables, figures rendering."""

import math

import pytest

from repro import MachineParams, Organization, Scheme, TapPoint, make_workload
from repro.analysis import (
    equivalent_tlb_size,
    pressure_profile,
    render_breakdown_bars,
    render_dm_vs_fa,
    render_equivalent_size_table,
    render_miss_curves,
    render_miss_rate_table,
    render_overhead_table,
    render_pressure_profile,
    run_miss_sweep,
    run_timing,
    scheme_miss_rates,
)
from repro.common.stats import AverageBreakdown
from repro.core.tlb import Organization as Org
from repro.system.taps import StudyResults


def make_study(curve_points, tap=TapPoint.L0):
    """Fabricate StudyResults with a given (size -> misses) curve."""
    sizes = tuple(size for size, _ in curve_points)
    orgs = (Organization.FULLY_ASSOCIATIVE,)
    misses = {}
    for t in TapPoint:
        for size, count in curve_points:
            misses[(t, size, orgs[0])] = count if t is tap else 0
    accesses = {t: 100 for t in TapPoint}
    return StudyResults(4, sizes, orgs, misses, accesses, total_references=1000)


class TestEquivalentSize:
    def test_exact_point(self):
        study = make_study([(8, 100), (32, 50), (128, 10)])
        assert equivalent_tlb_size(study, TapPoint.L0, 50) == pytest.approx(32)

    def test_interpolated_between_points(self):
        study = make_study([(8, 100), (32, 50)])
        size = equivalent_tlb_size(study, TapPoint.L0, 75)
        assert 8 < size < 32

    def test_already_better_at_smallest(self):
        study = make_study([(8, 100), (32, 50)])
        assert equivalent_tlb_size(study, TapPoint.L0, 200) == 8.0

    def test_unreachable_target(self):
        study = make_study([(8, 100), (32, 50)])
        assert math.isinf(equivalent_tlb_size(study, TapPoint.L0, 5))

    def test_flat_curve_segment(self):
        study = make_study([(8, 100), (32, 100), (128, 10)])
        size = equivalent_tlb_size(study, TapPoint.L0, 100)
        assert size == 8.0

    def test_monotonic_in_target(self):
        study = make_study([(8, 100), (32, 50), (128, 10)])
        sizes = [equivalent_tlb_size(study, TapPoint.L0, t) for t in (90, 60, 30, 12)]
        assert sizes == sorted(sizes)


class TestExperimentRunners:
    @pytest.fixture(scope="class")
    def sweep(self, request):
        params = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)
        return run_miss_sweep(
            params,
            make_workload("ocean", intensity=0.2),
            sizes=(8, 32),
            max_refs_per_node=800,
        )

    def test_sweep_produces_all_taps(self, sweep):
        study = sweep.study_results()
        for tap in TapPoint:
            assert study.misses(tap, 8) >= 0

    def test_scheme_miss_rates_has_five_schemes(self, sweep):
        rates = scheme_miss_rates(sweep.study_results(), 8)
        assert set(rates) == set(Scheme)
        assert all(0 <= r <= 1 for r in rates.values())

    def test_pressure_profile_shape(self):
        params = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)
        profile = pressure_profile(params, make_workload("ocean"))
        assert len(profile) == params.global_page_sets
        assert all(0 <= p <= 1 for p in profile)

    def test_run_timing_l2_writeback_toggle(self):
        params = MachineParams.scaled_down(factor=64, nodes=4, page_size=256)
        with_wb = run_timing(
            params, Scheme.L2_TLB, make_workload("ocean", intensity=0.2),
            entries=8, max_refs_per_node=500,
        )
        without = run_timing(
            params, Scheme.L2_TLB, make_workload("ocean", intensity=0.2),
            entries=8, include_l2_writebacks=False, max_refs_per_node=500,
        )
        assert without.timing_summary()["accesses"] <= with_wb.timing_summary()["accesses"]


class TestRendering:
    def test_miss_rate_table_contains_schemes_and_benchmarks(self):
        study = make_study([(8, 10), (32, 5), (128, 1)])
        text = render_miss_rate_table({"ocean": study}, sizes=(8, 32, 128))
        assert "OCEAN" in text and "V-COMA/8" in text

    def test_equivalent_table_renders_inf(self):
        study = make_study([(8, 100), (32, 50)], tap=TapPoint.L0)
        text = render_equivalent_size_table({"x": study}, dlb_entries=8)
        assert ">32" in text  # DLB target 0 misses unreachable by TLBs

    def test_overhead_table(self, small_params):
        result = run_timing(
            small_params, Scheme.L0_TLB, make_workload("ocean", intensity=0.1),
            entries=8, max_refs_per_node=200,
        )
        text = render_overhead_table({"L0-TLB/8": {"ocean": result}})
        assert "L0-TLB/8" in text and "OCEAN" in text

    def test_overhead_table_missing_cell(self, small_params):
        text = render_overhead_table({"L0-TLB/8": {}})
        assert "Table 4" in text

    def test_miss_curves_rendering(self):
        study = make_study([(8, 10), (32, 5)])
        text = render_miss_curves("ocean", study)
        assert "L2-TLB/no_wback" in text and "V-COMA" in text

    def test_dm_vs_fa_rendering(self):
        sizes = (8, 32)
        orgs = (Organization.FULLY_ASSOCIATIVE, Organization.DIRECT_MAPPED)
        misses = {
            (t, s, o): 1 for t in TapPoint for s in sizes for o in orgs
        }
        study = StudyResults(4, sizes, orgs, misses, {t: 4 for t in TapPoint}, 100)
        text = render_dm_vs_fa("fft", study)
        assert "/DM" in text

    def test_breakdown_bars_normalized(self):
        bars = {
            "TLB/8": AverageBreakdown(busy=50, loc_stall=30, rem_stall=20),
            "DLB/8": AverageBreakdown(busy=50, loc_stall=30, rem_stall=10),
        }
        text = render_breakdown_bars("radix", bars, baseline_label="TLB/8")
        assert "TLB/8" in text and "legend" in text
        assert "0.900" in text  # DLB total relative to baseline

    def test_pressure_profile_rendering(self):
        text = render_pressure_profile("fft", [0.5, 0.25, 0.25, 0.5])
        assert "mean=0.375" in text

    def test_pressure_profile_bucketing(self):
        profile = [0.5] * 100
        text = render_pressure_profile("fft", profile, max_rows=10)
        assert text.count("|") <= 11

    def test_pressure_profile_empty(self):
        assert "empty" in render_pressure_profile("x", [])
