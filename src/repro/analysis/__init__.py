"""Experiment harness: the paper's tables and figures.

``experiments`` runs single simulations; ``tables`` and ``figures``
render paper-style text output; ``report`` registers every artifact of
the evaluation (:data:`~repro.analysis.report.EXPERIMENTS`) with its
simulation cells and shape claims, and renders the report experiments
as one markdown document (:func:`~repro.analysis.report.generate_report`).
``python -m repro paper`` drives that registry; ``traffic`` profiles a
workload's per-segment traffic; ``examples/`` shows programmatic use.
"""

from repro.analysis.experiments import (
    equivalent_tlb_size,
    pressure_profile,
    run_miss_sweep,
    run_timing,
    scheme_miss_rates,
)
from repro.analysis.tables import (
    render_equivalent_size_table,
    render_miss_rate_table,
    render_overhead_table,
)
from repro.analysis.report import EXPERIMENTS, Claim, Experiment, generate_report
from repro.analysis.traffic import WorkloadProfile, profile_workload
from repro.analysis.tag_overhead import render_tag_overhead_table, tag_overhead_increase
from repro.analysis.figures import (
    render_breakdown_bars,
    render_dm_vs_fa,
    render_miss_curves,
    render_pressure_profile,
)

__all__ = [
    "equivalent_tlb_size",
    "pressure_profile",
    "render_breakdown_bars",
    "render_dm_vs_fa",
    "render_equivalent_size_table",
    "render_miss_curves",
    "render_miss_rate_table",
    "render_overhead_table",
    "render_pressure_profile",
    "run_miss_sweep",
    "run_timing",
    "Claim",
    "EXPERIMENTS",
    "Experiment",
    "WorkloadProfile",
    "generate_report",
    "profile_workload",
    "render_tag_overhead_table",
    "scheme_miss_rates",
    "tag_overhead_increase",
]
