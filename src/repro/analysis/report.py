"""The paper's experiments, registered once, and the one-shot report.

:data:`EXPERIMENTS` lists every artifact the reproduction regenerates:
Tables 2–4, Figures 8–11 and the §6 tag-overhead table, plus the
extensions (Figure 10's direct-mapped bars, RAYTRACE's padding
profiles, five ablations, node-count scaling and the CC-NUMA
motivation).  Each :class:`Experiment` holds

* its simulation cells, as :class:`~repro.runner.jobs.JobSpec` values;
* how to collect its artifact from the finished cells (only Figure 11's
  placement profiles still build a machine there);
* how to render the artifact as text;
* the paper's shape claims about it, as :class:`Claim` checks.

Everything that runs the paper reads this registry.  ``python -m repro
paper list|run|check`` lists the experiments, renders any of them, or
evaluates their claims and exits non-zero when one fails.
:func:`generate_report` runs the report experiments and renders them
as one markdown document.  Cells shared
between experiments run once: :func:`run_cells` deduplicates them by
:meth:`JobSpec.key` and submits them as one
:class:`~repro.runner.batch.BatchRunner` batch.

Absolute numbers differ from the paper's 32-node testbed; the claims
check orderings and effect directions (EXPERIMENTS.md records them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.experiments import equivalent_tlb_size, pressure_profile, scheme_miss_rates
from repro.analysis.figures import (
    render_breakdown_bars,
    render_dm_vs_fa,
    render_miss_curves,
    render_pressure_profile,
)
from repro.analysis.tables import (
    render_equivalent_size_table,
    render_miss_rate_table,
    render_overhead_table,
)
from repro.analysis.tag_overhead import render_tag_overhead_table
from repro.common.params import MachineParams
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME, Scheme, TapPoint
from repro.core.tlb import Organization
from repro.runner.jobs import JobSpec
from repro.system.taps import DEFAULT_SWEEP_SIZES
from repro.vm.protection import home_update_cost, shootdown_cost
from repro.workloads import PAPER_ORDER, make_workload

#: Per-workload intensities of the report scale: complete streams of
#: roughly equal length (~12-20k references per node on the report
#: machine).  Truncating streams instead would distort each workload's
#: phase mix (e.g. cutting FFT during its TLB-friendly local phase).
DEFAULT_INTENSITY = {
    "radix": 0.45,
    "fft": 0.25,
    "fmm": 1.0,
    "ocean": 0.2,
    "raytrace": 3.0,
    "barnes": 1.0,
}

FA = Organization.FULLY_ASSOCIATIVE
SA = Organization.SET_ASSOCIATIVE
DM = Organization.DIRECT_MAPPED


def default_params() -> MachineParams:
    """The report machine: 8 nodes with the paper's cache/AM geometry
    scaled down 8x, and 512 B pages so data sets span thousands of
    pages as the paper's do."""
    return MachineParams.scaled_down(factor=8, nodes=8, page_size=512)


def _fence(text: str) -> str:
    return "```\n" + text + "\n```"


# ----------------------------------------------------------------------
# the registry's vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Setup:
    """The machine and scale every experiment is built from."""

    params: MachineParams
    workloads: Tuple[str, ...] = tuple(PAPER_ORDER)
    #: Figure 8's size axis; Table 2 shows the sizes up to 128.
    sizes = DEFAULT_SWEEP_SIZES

    def overrides(self, name: str) -> Dict[str, float]:
        return {"intensity": DEFAULT_INTENSITY[name]}

    def workload(self, name: str):
        return make_workload(name, **self.overrides(name))

    def among(self, names: Iterable[str]) -> List[str]:
        """``names`` that this setup still runs (see :func:`run_cells`)."""
        return [name for name in names if name in self.workloads]

    def sweep(self, name: str, sizes=None, orgs=(FA, DM), params=None, label=None, machine="coma") -> JobSpec:
        """A one-run-many-taps miss sweep of ``name``."""
        return JobSpec.sweep(
            params or self.params, name, sizes=sizes or self.sizes, orgs=orgs,
            overrides=self.overrides(name), label=label or f"sweep:{name}", machine=machine,
        )

    def timing(self, label: str, scheme: Scheme, name: str, entries: int = 8, **knobs) -> JobSpec:
        """A coupled timing run of ``name``."""
        return JobSpec.timing(
            self.params, scheme, name, entries,
            overrides=self.overrides(name), label=label, **knobs,
        )

    def sharing(self, name: str) -> JobSpec:
        """The shared vs partitioned 8-entry DLB replay of ``name``'s recording."""
        return JobSpec.sharing(self.params, name, 8, overrides=self.overrides(name), label=f"sharing:{name}")


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``check(data)`` returns ``(holds, detail)``."""

    name: str
    text: str
    check: Callable[[Any], Tuple[bool, str]]


def _no_cells(setup: Setup) -> List[JobSpec]:
    return []


@dataclass(frozen=True)
class Experiment:
    """One artifact: its cells, how to collect and render it, its claims.

    ``collect(setup, results)`` builds the artifact's data from the
    finished cells; ``render(setup, data)`` returns the text blocks of
    its section.  ``report`` puts the experiment in
    :func:`generate_report`.
    """

    id: str
    title: str
    collect: Callable[[Setup, "Results"], Any]
    render: Callable[[Setup, Any], List[str]]
    cells: Callable[[Setup], List[JobSpec]] = _no_cells
    claims: Tuple[Claim, ...] = ()
    report: bool = False

    def section(self, setup: Setup, data) -> str:
        """The experiment's markdown section, exactly as the report has it."""
        blocks = [f"## {self.title}"] + [_fence(text) for text in self.render(setup, data)]
        return "\n\n".join(blocks)

    def check(self, data) -> List[Tuple[Claim, bool, str]]:
        return [(claim, *claim.check(data)) for claim in self.claims]


def _identity(spec: JobSpec) -> JobSpec:
    """The spec without its display label: two specs share an identity
    exactly when their :meth:`JobSpec.key` is equal."""
    return replace(spec, label=None)


class Results:
    """Finished cells' summaries, looked up by spec content (labels
    are ignored, so every experiment finds a shared cell)."""

    def __init__(self, outcomes) -> None:
        self._summaries = {_identity(job.spec): job.summary for job in outcomes if job.ok}

    def __contains__(self, spec: JobSpec) -> bool:
        return _identity(spec) in self._summaries

    def __getitem__(self, spec: JobSpec):
        return self._summaries[_identity(spec)]


def run_cells(experiments: Sequence[Experiment], setup: Setup, runner):
    """Run the experiments' cells as one batch, each distinct cell once.

    Returns ``(setup, results, outcomes)``.  Under a ``keep_going``
    runner a workload with a failed cell is dropped from the returned
    setup, because a partial row would misrender every table.  Failed
    contention cells drop nothing: Figure 10 falls back to its
    latency-only bars.
    """
    cells: Dict[JobSpec, JobSpec] = {}
    for entry in experiments:
        for spec in entry.cells(setup):
            cells.setdefault(_identity(spec), spec)
    outcomes = runner.run(list(cells.values()))
    results = Results(outcomes)
    complete = tuple(
        name for name in setup.workloads
        if all(
            spec in results for spec in cells.values()
            if spec.workload == name and not spec.contention
        )
    )
    return replace(setup, workloads=complete), results, outcomes


# ----------------------------------------------------------------------
# claim helpers
# ----------------------------------------------------------------------
def _tally(flags: Sequence[bool], need: float) -> Tuple[bool, str]:
    """At least ``need`` of ``flags`` hold."""
    good = sum(1 for flag in flags if flag)
    return good >= need, f"{good}/{len(flags)} cells"


def _every(flags: Mapping[str, bool]) -> Tuple[bool, str]:
    failing = [name for name, flag in flags.items() if not flag]
    return not failing, f"fails for {', '.join(failing)}" if failing else ""


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


#: The workloads ``validation``-style claims were stated on: the
#: showcase (RADIX) and the two writeback-heavy codes (§5.2).
_CORE = ("radix", "fft", "ocean")


# ----------------------------------------------------------------------
# Figures 8/9, Tables 2/3: one miss sweep per workload
# ----------------------------------------------------------------------
def _sweeps(setup: Setup) -> List[JobSpec]:
    return [setup.sweep(name) for name in setup.workloads]


def _studies(setup: Setup, results: Results):
    return {name: results[setup.sweep(name)].study_results() for name in setup.workloads}


def _l3_below_l2(studies):
    return _every({
        name: all(
            study.misses(TapPoint.L3, size) <= study.misses(TapPoint.L2_NO_WBACK, size)
            for size in (8, 32, 128)
        )
        for name, study in studies.items()
    })


def _vcoma_wins(studies):
    return _tally([
        study.misses(TapPoint.HOME, size) <= study.misses(TapPoint.L3, size)
        for study in studies.values() for size in (32, 128, 512)
    ], 0.8 * 3 * len(studies))


def _filtering(studies):
    def filtered(study, size):
        return (
            study.misses(TapPoint.L3, size) <= study.misses(TapPoint.L2_NO_WBACK, size)
            and study.misses(TapPoint.L2_NO_WBACK, size) <= study.misses(TapPoint.L1, size) * 1.10
            and study.misses(TapPoint.L1, size) <= study.misses(TapPoint.L0, size) * 1.05
        )

    return _every({name: all(filtered(studies[name], s) for s in (8, 32, 128)) for name in _CORE})


def _writeback_effect(studies):
    past_l0 = [n for n in ("fft", "ocean") if studies[n].misses(TapPoint.L2, 8) > studies[n].misses(TapPoint.L0, 8)]
    inflated = all(studies[n].misses(TapPoint.L2, 8) >= studies[n].misses(TapPoint.L2_NO_WBACK, 8) for n in _CORE)
    return bool(past_l0) and inflated, f"L2/8 above L0/8 on: {', '.join(past_l0) or 'none'}"


def _sharing(studies):
    return _tally([
        studies[name].misses(TapPoint.HOME, size) < studies[name].misses(TapPoint.L3, size)
        for name in _CORE for size in (32, 128)
    ], 0.8 * 2 * len(_CORE))


def _gap(study, tap, size):
    fa = study.misses(tap, size, FA)
    return (study.misses(tap, size, DM) - fa) / max(1, fa)


def _dm_close_to_fa(studies):
    return _every({
        name: all(_gap(study, tap, size) >= -0.35
                  for tap in (TapPoint.L0, TapPoint.L3, TapPoint.HOME) for size in (32, 128))
        for name, study in studies.items()
    })


def _gap_shrinks(studies):
    """At the largest size, in points of all processor references."""
    def ppt_gap(study, tap):
        size = max(study.sizes)
        return (study.misses(tap, size, DM) - study.misses(tap, size, FA)) / study.total_references * 100

    return _tally([
        ppt_gap(study, TapPoint.HOME) <= ppt_gap(study, TapPoint.L0) + 0.2 for study in studies.values()
    ], len(studies) - 1)


def _vcoma_lowest(studies):
    flags = []
    for study in studies.values():
        for size in (8, 32, 128):
            rates = scheme_miss_rates(study, size)
            others = [rates[s] for s in SCHEME_ORDER if s is not Scheme.V_COMA]
            flags.append(rates[Scheme.V_COMA] <= min(others) * 1.10)
    return _tally(flags, 0.8 * len(flags))


def _l0_significant(studies):
    significant = [n for n, s in studies.items() if s.miss_rate(TAP_OF_SCHEME[Scheme.L0_TLB], 8) > 0.01]
    return len(significant) >= 4, f"L0/8 above 1% on: {', '.join(significant)}"


def _equivalent(study, tap):
    return equivalent_tlb_size(study, tap, study.misses(TapPoint.HOME, 8))


def _tlbs_much_bigger(studies):
    return _tally([
        _equivalent(study, TAP_OF_SCHEME[scheme]) >= 32
        for study in studies.values()
        for scheme in (Scheme.L0_TLB, Scheme.L1_TLB, Scheme.L2_TLB, Scheme.L3_TLB)
    ], 0.6 * 4 * len(studies))


def _l3_closer(studies):
    return _tally([
        _equivalent(study, TapPoint.L3) <= _equivalent(study, TapPoint.L0)
        for study in studies.values()
    ], len(studies) - 1)


def _radix_equivalent(studies):
    # Stated on a sweep up to 128 entries; the 512-entry point can only
    # turn an unmatched (infinite) size into one above 128, so the
    # verdict is the same.
    size = _equivalent(studies["radix"], TapPoint.L0)
    return size > 32, f"equivalent L0 size ~{size:.0f}"


# ----------------------------------------------------------------------
# Table 4 and Figure 10: coupled timing runs
# ----------------------------------------------------------------------
_TABLE4_ROWS = tuple(
    (f"{prefix}/{entries}", scheme, entries)
    for entries in (8, 16)
    for prefix, scheme in (("L0-TLB", Scheme.L0_TLB), ("DLB", Scheme.V_COMA))
)


def _table4_cells(setup: Setup) -> List[JobSpec]:
    return [
        setup.timing(f"{row}:{name}", scheme, name, entries)
        for row, scheme, entries in _TABLE4_ROWS
        for name in setup.workloads
    ]


def _table4(setup: Setup, results: Results):
    return {
        row: {name: results[setup.timing(row, scheme, name, entries)] for name in setup.workloads}
        for row, scheme, entries in _TABLE4_ROWS
    }


def _overhead(rows, row, name):
    return rows[row][name].translation_overhead_ratio()


def _dlb_cuts_overhead(rows):
    return _every({name: _overhead(rows, "DLB/8", name) < _overhead(rows, "L0-TLB/8", name) for name in rows["DLB/8"]})


def _overhead_factor(rows):
    ratios = [_overhead(rows, "L0-TLB/8", n) / max(1e-9, _overhead(rows, "DLB/8", n)) for n in rows["DLB/8"]]
    return max(ratios) > 3 and min(ratios) > 1.5, "L0/DLB ratios " + " ".join(f"{r:.1f}x" for r in ratios)


def _bigger_tlb_helps(rows):
    return _tally([
        rows["L0-TLB/16"][name].aggregate_breakdown().tlb_stall
        <= rows["L0-TLB/8"][name].aggregate_breakdown().tlb_stall
        for name in rows["L0-TLB/8"]
    ], len(rows["L0-TLB/8"]) - 1)


def _radix_overhead(rows):
    l0, dlb = _overhead(rows, "L0-TLB/8", "radix"), _overhead(rows, "DLB/8", "radix")
    return dlb < l0 and l0 > 0.02, f"L0 {l0 * 100:.2f}% vs V-COMA {dlb * 100:.2f}%"


#: Figure 10's bars: label -> (scheme, organization, workload variant).
_BARS = {
    "TLB/8": (Scheme.L0_TLB, FA, None),
    "TLB/8/DM": (Scheme.L0_TLB, DM, None),
    "DLB/8": (Scheme.V_COMA, FA, None),
    "DLB/8/DM": (Scheme.V_COMA, DM, None),
    "DLB/8/V2": (Scheme.V_COMA, FA, "v2"),
}

#: RAYTRACE's padding pathology is bandwidth-borne (injection storms),
#: so its bars run with crossbar port contention enabled, plus the
#: page-aligned V2 layout.
_CONTENDED = ("TLB/8", "DLB/8", "DLB/8/V2")


def _bar(setup: Setup, bar: str, name: str, contention: bool = False) -> JobSpec:
    scheme, org, variant = _BARS[bar]
    label = f"{name}-contention:{bar}" if contention else f"{bar}:{name}"
    return setup.timing(label, scheme, name, organization=org, variant=variant, contention=contention)


def _fig10_cells(setup: Setup) -> List[JobSpec]:
    cells = [_bar(setup, bar, name) for name in setup.workloads for bar in ("TLB/8", "DLB/8")]
    if "raytrace" in setup.workloads:
        cells += [_bar(setup, bar, "raytrace", contention=True) for bar in _CONTENDED]
    return cells


def _fig10(setup: Setup, results: Results):
    runs = {}
    for name in setup.workloads:
        contended = [_bar(setup, bar, name, True) for bar in _CONTENDED] if name == "raytrace" else []
        if contended and all(spec in results for spec in contended):
            runs[name] = {bar: results[spec] for bar, spec in zip(_CONTENDED, contended)}
        else:
            runs[name] = {bar: results[_bar(setup, bar, name)] for bar in ("TLB/8", "DLB/8")}
    return runs


def _render_bars(setup: Setup, runs) -> List[str]:
    return [
        render_breakdown_bars(
            name, {bar: run.average_breakdown() for bar, run in bars.items()}, baseline_label="TLB/8"
        )
        for name, bars in runs.items()
    ]


def _padding(runs):
    v1, v2 = runs["raytrace"]["DLB/8"].total_time, runs["raytrace"]["DLB/8/V2"].total_time
    return v1 > v2, f"V1/V2 time ratio {v1 / max(1, v2):.2f}"


def _dm_bars(setup: Setup, name: str) -> Dict[str, JobSpec]:
    contention = name == "raytrace"
    bars = ("TLB/8", "TLB/8/DM", "DLB/8", "DLB/8/DM") + (("DLB/8/V2",) if contention else ())
    return {bar: _bar(setup, bar, name, contention) for bar in bars}


def _fig10_dm(setup: Setup, results: Results):
    runs = {}
    for name in setup.workloads:
        specs = _dm_bars(setup, name)
        if all(spec in results for spec in specs.values()):
            runs[name] = {bar: results[spec] for bar, spec in specs.items()}
    return runs


def _breakdowns(runs):
    return {name: {bar: run.average_breakdown() for bar, run in bars.items()} for name, bars in runs.items()}


def _dlb_stall_lower(runs):
    return _every({n: b["DLB/8"].tlb_stall < b["TLB/8"].tlb_stall for n, b in _breakdowns(runs).items()})


def _dm_gap_smaller(runs):
    def holds(b):
        tlb_extra = b["TLB/8/DM"].tlb_stall - b["TLB/8"].tlb_stall
        dlb_extra = b["DLB/8/DM"].tlb_stall - b["DLB/8"].tlb_stall
        return dlb_extra <= max(tlb_extra, 0) + 0.1 * b["TLB/8"].total

    return _every({name: holds(b) for name, b in _breakdowns(runs).items()})


def _v2_faster(runs):
    bars = _breakdowns(runs)["raytrace"]
    return bars["DLB/8/V2"].total < bars["DLB/8"].total, ""


# ----------------------------------------------------------------------
# Figure 11: placement alone fixes the pressure profile
# ----------------------------------------------------------------------
def _fig11(setup: Setup, results: Results):
    return {name: pressure_profile(setup.params, setup.workload(name)) for name in setup.workloads}


def _uniform_pressure(profiles):
    def holds(name, profile):
        mean = _mean(profile)
        if name == "raytrace":  # the padding pathology (fig11-padding)
            return mean > 0
        return mean > 0 and max(profile) <= mean * 1.7 and min(profile) >= mean * 0.3

    return _every({name: holds(name, profile) for name, profile in profiles.items()})


def _imbalance(profile) -> float:
    return max(profile) / _mean(profile)


def _padding_profiles(setup: Setup, results: Results):
    from repro.workloads import RaytraceWorkload

    return (
        pressure_profile(setup.params, RaytraceWorkload()),
        pressure_profile(setup.params, RaytraceWorkload.v2()),
    )


def _render_padding_profiles(setup: Setup, profiles) -> List[str]:
    v1, v2 = profiles
    return [
        render_pressure_profile("raytrace V1 (way-aligned padding)", v1),
        render_pressure_profile("raytrace V2 (page-aligned padding)", v2),
        f"imbalance: V1 {_imbalance(v1):.2f}  V2 {_imbalance(v2):.2f}",
    ]


def _padding_pressure(profiles):
    v1, v2 = (_imbalance(profile) for profile in profiles)
    return v1 > v2 * 1.3, f"imbalance V1 {v1:.2f} vs V2 {v2:.2f}"


# ----------------------------------------------------------------------
# ablations, scaling and the CC-NUMA motivation
# ----------------------------------------------------------------------
def _sharing_cells(setup: Setup) -> List[JobSpec]:
    return [setup.sharing(name) for name in setup.workloads]


def _sharing_ablation(setup: Setup, results: Results):
    return {name: results[setup.sharing(name)].sharing for name in setup.workloads}


def _render_sharing(setup: Setup, stats) -> List[str]:
    lines = [
        "Ablation: shared vs per-requester partitioned DLB (8 entries)",
        f"{'bench':10s} {'accesses':>10s} {'shared':>10s} {'partitioned':>12s} {'sharing win':>12s}",
    ]
    for name, s in stats.items():
        win = s["partitioned_misses"] / max(1, s["shared_misses"])
        lines.append(
            f"{name:10s} {s['accesses']:>10,} {s['shared_misses']:>10,} "
            f"{s['partitioned_misses']:>12,} {win:>11.2f}x"
        )
    return ["\n".join(lines)]


def _radix_sharing_win(stats):
    radix = stats["radix"]
    return radix["shared_misses"] * 1.2 < radix["partitioned_misses"], (
        f"shared {radix['shared_misses']:,} vs partitioned {radix['partitioned_misses']:,}"
    )


def _multiplexing_bounded(stats):
    return _every({n: s["shared_misses"] <= 2 * s["partitioned_misses"] for n, s in stats.items()})


def _writeback_cell(setup: Setup, name: str, include: bool) -> JobSpec:
    label = f"L2-TLB/8{'' if include else '-bypass'}:{name}"
    return setup.timing(label, Scheme.L2_TLB, name, include_l2_writebacks=include)


def _writeback_cells(setup: Setup) -> List[JobSpec]:
    return [_writeback_cell(setup, name, include) for name in setup.workloads for include in (True, False)]


def _writeback_ablation(setup: Setup, results: Results):
    stats = {}
    for name in setup.workloads:
        with_wb = results[_writeback_cell(setup, name, True)]
        bypass = results[_writeback_cell(setup, name, False)]
        stats[name] = {
            "with_writebacks": with_wb,
            "bypass": bypass,
            "stall_saved": with_wb.aggregate_breakdown().tlb_stall - bypass.aggregate_breakdown().tlb_stall,
        }
    return stats


def _render_writeback(setup: Setup, stats) -> List[str]:
    lines = [
        "Ablation: L2-TLB with writebacks vs writeback bypass (8 entries)",
        f"{'bench':10s} {'tlb stall (wb)':>15s} {'tlb stall (byp)':>16s} {'saved':>10s}",
    ]
    for name, s in stats.items():
        wb = s["with_writebacks"].aggregate_breakdown().tlb_stall
        byp = s["bypass"].aggregate_breakdown().tlb_stall
        lines.append(f"{name:10s} {wb:>15,} {byp:>16,} {s['stall_saved']:>10,}")
    return ["\n".join(lines)]


def _bypass_removes_accesses(stats):
    return _every({
        n: s["bypass"].timing_summary()["accesses"] <= s["with_writebacks"].timing_summary()["accesses"]
        for n, s in stats.items()
    })


def _bypass_stall_bounded(stats):
    # Writeback lookups also prefetch translations for later demand
    # accesses, so a small negative saving is legitimate.
    return _every({
        n: s["stall_saved"] >= -0.25 * max(1, s["with_writebacks"].aggregate_breakdown().tlb_stall)
        for n, s in stats.items()
    })


def _bypass_saves(stats):
    savers = [n for n, s in stats.items() if s["stall_saved"] > 0]
    return len(savers) >= 3, f"bypass saves stall for: {', '.join(savers)}"


_SHOOTDOWN_NODES = (2, 4, 8, 16, 32)


#: The machine the shootdown costs are stated on (the costs read only
#: its message and directory latencies).
_SHOOTDOWN_PARAMS = MachineParams.scaled_down(factor=32, page_size=256)


def _shootdown(setup: Setup, results: Results):
    """Cost of one mapping change vs node count: ``(nodes, per-node-TLB
    shootdown, V-COMA home update)`` rows."""
    rows = []
    for nodes in _SHOOTDOWN_NODES:
        params = _SHOOTDOWN_PARAMS.replace(nodes=nodes)
        rows.append((nodes, shootdown_cost(params), home_update_cost(params)))
    return rows


def _render_shootdown(setup: Setup, rows) -> List[str]:
    lines = ["Mapping-change cost (cycles) vs node count", f"{'nodes':>6s} {'per-node TLBs':>15s} {'V-COMA':>10s}"]
    lines += [f"{nodes:>6d} {tlb:>15,} {vcoma:>10,}" for nodes, tlb, vcoma in rows]
    return ["\n".join(lines)]


def _shootdown_grows(rows):
    tlb = [t for _, t, _ in rows]
    vcoma = [v for _, _, v in rows]
    return tlb == sorted(tlb) and tlb[-1] > tlb[0] and len(set(vcoma)) == 1, ""


def _shootdown_gap(rows):
    _, tlb, vcoma = rows[-1]
    return tlb > 10 * vcoma, f"{tlb:,} vs {vcoma:,} cycles at {rows[-1][0]} nodes"


def _sc_cell(setup: Setup, name: str, relaxed: bool = False) -> JobSpec:
    label = f"L0-TLB/8{'-relaxed' if relaxed else ''}:{name}"
    return setup.timing(label, Scheme.L0_TLB, name, relaxed_writes=relaxed)


def _consistency_cells(setup: Setup) -> List[JobSpec]:
    return [_sc_cell(setup, name, relaxed) for name in setup.among(_CORE) for relaxed in (False, True)]


def _consistency(setup: Setup, results: Results):
    """Sequential consistency (the L0-TLB/8 cell) against the same run
    with stores hidden behind a write buffer."""
    runs = {}
    for name in setup.among(_CORE):
        sc = results[_sc_cell(setup, name)]
        runs[name] = {
            "sc": sc.total_time,
            "relaxed": results[_sc_cell(setup, name, relaxed=True)].total_time,
            "translation": sc.aggregate_breakdown().tlb_stall // setup.params.nodes,
        }
    return runs


def _render_consistency(setup: Setup, runs) -> List[str]:
    lines = [
        "Ablation: consistency-model slack vs translation overhead (L0-TLB/8)",
        f"{'bench':8s} {'SC time':>12s} {'relaxed':>12s} {'consistency':>12s} {'translation':>12s}",
    ]
    for name, r in runs.items():
        lines.append(
            f"{name:8s} {r['sc']:>12,} {r['relaxed']:>12,} {r['sc'] - r['relaxed']:>12,} {r['translation']:>12,}"
        )
    return ["\n".join(lines)]


def _relaxed_never_slower(runs):
    return _every({name: r["relaxed"] <= r["sc"] for name, r in runs.items()})


def _translation_comparable(runs):
    return _every({
        name: r["sc"] - r["relaxed"] <= 0 or r["translation"] > 0.04 * (r["sc"] - r["relaxed"])
        for name, r in runs.items()
    })


_ORG_WORKLOADS = ("radix", "fmm", "ocean")
_ORG_SIZES = (8, 32, 128)


def _organization_cells(setup: Setup) -> List[JobSpec]:
    return [
        setup.sweep(name, sizes=_ORG_SIZES, orgs=(FA, SA, DM), label=f"sweep-assoc:{name}")
        for name in setup.among(_ORG_WORKLOADS)
    ]


def _organization(setup: Setup, results: Results):
    return {
        name: results[setup.sweep(name, sizes=_ORG_SIZES, orgs=(FA, SA, DM))].study_results()
        for name in setup.among(_ORG_WORKLOADS)
    }


def _render_organization(setup: Setup, studies) -> List[str]:
    lines = [
        "Ablation: DLB organization (misses per node, V-COMA home tap)",
        f"{'bench':8s}{'size':>6s}{'FA':>12s}{'SA4':>12s}{'DM':>12s}",
    ]
    for name, study in studies.items():
        for size in _ORG_SIZES:
            fa, sa, dm = (study.misses_per_node(TapPoint.HOME, size, org) for org in (FA, SA, DM))
            lines.append(f"{name:8s}{size:>6d}{fa:>12.1f}{sa:>12.1f}{dm:>12.1f}")
    return ["\n".join(lines)]


def _associativity_order(studies):
    # From 32 entries up; at 8 entries random replacement can lose to DM
    # on sequential sweeps.
    def holds(study, size):
        fa, sa, dm = (study.misses_per_node(TapPoint.HOME, size, org) for org in (FA, SA, DM))
        return sa <= dm * 1.25 and fa <= sa * 1.25

    return _every({name: all(holds(study, size) for size in (32, 128)) for name, study in studies.items()})


def _organizations_converge(studies):
    return _every({
        name: study.misses(TapPoint.HOME, 128, DM) <= study.misses(TapPoint.HOME, 128, FA) * 1.5 + 100
        for name, study in studies.items()
    })


_SCALING_NODES = (2, 4, 8, 16)


def _scaling_cells(setup: Setup) -> List[JobSpec]:
    if "radix" not in setup.workloads:
        return []
    return [
        setup.sweep("radix", sizes=(8,), params=setup.params.replace(nodes=nodes), label=f"sweep:radix@{nodes}")
        for nodes in _SCALING_NODES
    ]


def _scaling(setup: Setup, results: Results):
    rows = []
    for spec in _scaling_cells(setup):
        study = results[spec].study_results()
        rows.append((spec.params.nodes, study.miss_rate(TapPoint.L0, 8), study.miss_rate(TapPoint.HOME, 8)))
    return rows


def _render_scaling(setup: Setup, rows) -> List[str]:
    lines = [
        "RADIX miss rate per reference vs node count (8-entry structures)",
        f"{'nodes':>6s} {'L0-TLB':>10s} {'V-COMA DLB':>12s} {'ratio':>8s}",
    ]
    for nodes, l0, dlb in rows:
        lines.append(f"{nodes:>6d} {l0 * 100:>9.2f}% {dlb * 100:>11.2f}% {l0 / max(1e-9, dlb):>7.1f}x")
    return ["\n".join(lines)]


def _dlb_advantage_grows(rows):
    ratios = [l0 / max(1e-9, dlb) for _, l0, dlb in rows]
    return ratios[-1] > ratios[0], " -> ".join(f"{r:.1f}x" for r in ratios)


def _dlb_rate_grows_slower(rows):
    l0_growth = rows[-1][1] / max(1e-9, rows[0][1])
    dlb_growth = rows[-1][2] / max(1e-9, rows[0][2])
    return dlb_growth < l0_growth, f"growth L0 {l0_growth:.2f}x vs DLB {dlb_growth:.2f}x"


#: Capacity/locality-dominated workloads, where migration and
#: replication pay off; RADIX is coherence-dominated (write-once
#: permutation) and the NUMA-vs-COMA literature has NUMA winning there.
_CAPACITY = ("fft", "ocean")


#: Both legs' TLB/DLB sizes (fully associative); the table reads 8.
_NUMA_SIZES = (8, 32)


def _numa_leg(setup: Setup, name: str, machine: str) -> JobSpec:
    return setup.sweep(name, sizes=_NUMA_SIZES, orgs=(FA,), label=f"sweep-{machine}:{name}", machine=machine)


def _numa_cells(setup: Setup) -> List[JobSpec]:
    return [_numa_leg(setup, name, machine) for name in setup.among(_CORE) for machine in ("coma", "numa")]


def _numa(setup: Setup, results: Results):
    """The same workloads on a CC-NUMA (SHARED-TLB at the home) and on
    the V-COMA machine, observed at the same TLB/DLB sizes.  The NUMA
    machine has no compiled twin, so its cells run on the scalar engine."""
    return {
        name: {machine: results[_numa_leg(setup, name, machine)] for machine in ("numa", "coma")}
        for name in setup.among(_CORE)
    }


def _render_numa(setup: Setup, runs) -> List[str]:
    lines = [
        "CC-NUMA (SHARED-TLB) vs V-COMA, same workloads and constants",
        f"{'bench':8s} {'numa rem':>12s} {'coma rem':>12s} "
        f"{'numa time':>12s} {'coma time':>12s} {'home misses n/c':>16s}",
    ]
    for name, r in runs.items():
        numa, coma = r["numa"], r["coma"]
        lines.append(
            f"{name:8s} {numa.aggregate_breakdown().rem_stall:>12,} {coma.aggregate_breakdown().rem_stall:>12,} "
            f"{numa.total_time:>12,} {coma.total_time:>12,} "
            f"{numa.study_results().misses(TapPoint.HOME, 8):>7,}/{coma.study_results().misses(TapPoint.HOME, 8):<8,}"
        )
    return ["\n".join(lines)]


def _coma_localizes(runs):
    return _every({
        name: (
            runs[name]["coma"].aggregate_breakdown().rem_stall < runs[name]["numa"].aggregate_breakdown().rem_stall
            and runs[name]["coma"].total_time < runs[name]["numa"].total_time
        )
        for name in _CAPACITY
    })


def _am_filters_home_stream(runs):
    return _every({
        name: r["coma"].study_results().accesses(TapPoint.HOME) < r["numa"].study_results().accesses(TapPoint.HOME)
        for name, r in runs.items()
    })


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: Every experiment, report experiments first and in report order.
EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "fig8", "Figure 8 — translation misses vs TLB/DLB size",
        cells=_sweeps, collect=_studies,
        render=lambda setup, studies: [render_miss_curves(n, s) for n, s in studies.items()],
        claims=(
            Claim("l3-below-l2", "L3 misses <= L2/no_wback misses at 8-128 entries, every workload", _l3_below_l2),
            Claim("vcoma-wins", "V-COMA <= L3-TLB in >= 80% of (workload, size >= 32) cells", _vcoma_wins),
            Claim("filtering", "misses decrease with the translation point's depth (RADIX/FFT/OCEAN)", _filtering),
            Claim("writeback-effect", "SLC writebacks inflate L2-TLB misses, past L0 on FFT or OCEAN (§5.2)", _writeback_effect),
            Claim("sharing", "the shared DLB beats per-node L3 TLBs from 32 entries up (RADIX/FFT/OCEAN)", _sharing),
        ),
        report=True,
    ),
    Experiment(
        "fig9", "Figure 9 — direct-mapped vs fully-associative",
        cells=_sweeps, collect=_studies,
        render=lambda setup, studies: [render_dm_vs_fa(n, s) for n, s in studies.items()],
        claims=(
            Claim("dm-near-fa", "DM misses at most 35% below FA (L0, L3, V-COMA at 32/128 entries)", _dm_close_to_fa),
            Claim("gap-shrinks", "at 512 entries the DLB's DM-FA gap is within 0.2 points of L0's, all but one workload", _gap_shrinks),
        ),
        report=True,
    ),
    Experiment(
        "table2", "Table 2 — miss rates per processor reference (%)",
        cells=_sweeps, collect=_studies,
        render=lambda setup, studies: [
            render_miss_rate_table(studies, sizes=tuple(s for s in setup.sizes if s <= 128))
        ],
        claims=(
            Claim("vcoma-lowest", "V-COMA has the lowest rate (within 10%) in >= 80% of cells", _vcoma_lowest),
            Claim("l0-significant", "the L0-TLB/8 miss rate exceeds 1% on at least 4 workloads", _l0_significant),
        ),
        report=True,
    ),
    Experiment(
        "table3", "Table 3 — TLB size equivalent to an 8-entry DLB",
        cells=_sweeps, collect=_studies,
        render=lambda setup, studies: [render_equivalent_size_table(studies, dlb_entries=min(setup.sizes))],
        claims=(
            Claim("tlbs-much-bigger", "the equivalent TLB has >= 32 entries in >= 60% of cells", _tlbs_much_bigger),
            Claim("l3-closer", "L3's equivalent size <= L0's on all but one workload", _l3_closer),
            Claim("equivalent-size", "matching an 8-entry DLB takes an L0 TLB above 32 entries (RADIX)", _radix_equivalent),
        ),
        report=True,
    ),
    Experiment(
        "table4", "Table 4 — translation stall / memory stall (%)",
        cells=_table4_cells, collect=_table4,
        render=lambda setup, rows: [render_overhead_table(rows)],
        claims=(
            Claim("dlb-cuts-overhead", "DLB/8's translation share is below L0-TLB/8's on every workload", _dlb_cuts_overhead),
            Claim("overhead-factor", "L0/DLB overhead ratio: max above 3x, min above 1.5x", _overhead_factor),
            Claim("bigger-tlb-helps", "L0-TLB/16 stalls no more than L0-TLB/8 on all but one workload", _bigger_tlb_helps),
            Claim("overhead", "translation stall: above 2% under L0-TLB, smaller under V-COMA (RADIX)", _radix_overhead),
        ),
        report=True,
    ),
    Experiment(
        "fig10", "Figure 10 — execution-time breakdown (normalized to L0-TLB/8)",
        cells=_fig10_cells, collect=_fig10, render=_render_bars,
        claims=(
            Claim("padding", "pathological padding slows V-COMA; page alignment recovers it (RAYTRACE V2)", _padding),
        ),
        report=True,
    ),
    Experiment(
        "fig11", "Figure 11 — global-set pressure profiles",
        collect=_fig11,
        render=lambda setup, profiles: [render_pressure_profile(n, p) for n, p in profiles.items()],
        claims=(
            Claim("pressure", "global-set pressure within [0.3, 1.7] x mean without placement effort (all but RAYTRACE)", _uniform_pressure),
        ),
        report=True,
    ),
    Experiment(
        "tag-overhead", "§6 — virtual-tag memory overhead",
        collect=lambda setup, results: None,
        render=lambda setup, data: [render_tag_overhead_table()],
        report=True,
    ),
    Experiment(
        "fig10-dm", "Figure 10 with direct-mapped bars",
        cells=lambda setup: [spec for name in setup.workloads for spec in _dm_bars(setup, name).values()],
        collect=_fig10_dm, render=_render_bars,
        claims=(
            Claim("dlb-stall-lower", "DLB/8 translation stall below TLB/8's on every workload", _dlb_stall_lower),
            Claim("dm-gap-smaller", "the DM penalty is smaller for the DLB than for the L0 TLB (10% slack)", _dm_gap_smaller),
            Claim("v2-faster", "RAYTRACE's page-aligned V2 layout beats the pathological V1", _v2_faster),
        ),
    ),
    Experiment(
        "fig11-padding", "Figure 11 — RAYTRACE padding layouts",
        collect=_padding_profiles, render=_render_padding_profiles,
        claims=(
            Claim("padding-pressure", "the V1 padding concentrates pressure: imbalance above 1.3x V2's", _padding_pressure),
        ),
    ),
    Experiment(
        "ablation-sharing", "Ablation — the DLB's sharing/prefetching contribution",
        cells=_sharing_cells, collect=_sharing_ablation, render=_render_sharing,
        claims=(
            Claim("radix-sharing-win", "RADIX's shared DLB misses 20% less than P-fold private slices", _radix_sharing_win),
            Claim("multiplexing-bounded", "the shared DLB never misses more than 2x the private slices", _multiplexing_bounded),
        ),
    ),
    Experiment(
        "ablation-writeback", "Ablation — L2-TLB writeback bypass",
        cells=_writeback_cells, collect=_writeback_ablation, render=_render_writeback,
        claims=(
            Claim("bypass-removes-accesses", "bypassing writebacks never adds TLB accesses", _bypass_removes_accesses),
            Claim("bypass-stall-bounded", "the bypass never costs more than 25% extra translation stall", _bypass_stall_bounded),
            Claim("bypass-saves", "the bypass saves translation stall on at least 3 workloads", _bypass_saves),
        ),
    ),
    Experiment(
        "ablation-shootdown", "Ablation — TLB-consistency cost vs node count",
        collect=_shootdown, render=_render_shootdown,
        claims=(
            Claim("shootdown-grows", "per-node TLB shootdowns grow with P; V-COMA's update is constant", _shootdown_grows),
            Claim("shootdown-gap", "at 32 nodes a shootdown costs over 10x V-COMA's update", _shootdown_gap),
        ),
    ),
    Experiment(
        "ablation-consistency", "Ablation — translation vs memory-consistency overhead",
        cells=_consistency_cells, collect=_consistency, render=_render_consistency,
        claims=(
            Claim("relaxed-never-slower", "relaxing writes never slows the machine down", _relaxed_never_slower),
            Claim("translation-comparable", "L0-TLB translation stall exceeds 4% of the consistency slack", _translation_comparable),
        ),
    ),
    Experiment(
        "ablation-organization", "Ablation — DLB organization (FA vs 4-way SA vs DM)",
        cells=_organization_cells, collect=_organization, render=_render_organization,
        claims=(
            Claim("associativity-order", "FA <= SA4 <= DM within 25% from 32 entries up", _associativity_order),
            Claim("organizations-converge", "at 128 entries the DM DLB misses at most 1.5x FA (+100)", _organizations_converge),
        ),
    ),
    Experiment(
        "scaling", "Scaling — DLB vs L0-TLB miss rate as the machine grows",
        cells=_scaling_cells, collect=_scaling, render=_render_scaling,
        claims=(
            Claim("advantage-grows", "the L0/DLB miss-rate ratio grows from 2 to 16 nodes", _dlb_advantage_grows),
            Claim("dlb-grows-slower", "the DLB's miss rate grows slower with P than the L0 TLB's", _dlb_rate_grows_slower),
        ),
    ),
    Experiment(
        "numa", "Motivation — CC-NUMA vs COMA",
        cells=_numa_cells, collect=_numa, render=_render_numa,
        claims=(
            Claim("coma-localizes", "the AM localizes capacity misses: less remote stall, less time (FFT/OCEAN)", _coma_localizes),
            Claim("am-filters-home", "the COMA home sees fewer translation accesses than the NUMA home", _am_filters_home_stream),
        ),
    ),
)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def generate_report(params: Optional[MachineParams] = None, runner=None) -> str:
    """Run the report experiments and return the report as markdown.

    ``runner`` (a configured :class:`BatchRunner`) controls workers,
    caching, ``keep_going`` and resume; the default is a serial runner
    without a cache.  Under
    ``keep_going`` a workload with any failed job is dropped from every
    artifact and listed in a closing *Failed jobs* section instead of
    aborting the report.
    """
    from repro.obs import MetricsRegistry, PhaseTimer
    from repro.runner import BatchRunner

    setup = Setup(params or default_params())
    started = time.time()
    timer = PhaseTimer(MetricsRegistry())
    if runner is None:
        runner = BatchRunner()
    experiments = [e for e in EXPERIMENTS if e.report]

    sections: List[str] = []
    sections.append("# Reproduction report — Dynamic Address Translation in COMAs")
    sections.append("Machine configuration:\n\n" + _fence(setup.params.describe()))

    with timer.phase("grid") as grid_phase:
        setup, results, outcomes = run_cells(experiments, setup, runner)
        grid_phase.add_items(len(outcomes))
    with timer.phase("render") as render_phase:
        for entry in experiments:
            sections.append(entry.section(setup, entry.collect(setup, results)))
        render_phase.add_items(len(setup.workloads))

    failures = [job for job in outcomes if not job.ok]
    if failures:
        sections.append("## Failed jobs")
        lines = [job.describe() for job in failures]
        lines.append("")
        lines.append(runner.stats.render())
        sections.append(_fence("\n".join(lines)))

    sections.append("## Telemetry")
    telemetry_lines = [runner.stats.render(), runner.stats.render_telemetry()]
    if timer.phases:
        telemetry_lines.append(timer.render())
    sections.append(_fence("\n".join(telemetry_lines)))

    elapsed = time.time() - started
    sections.append(
        f"*Generated in {elapsed:.1f} s of simulation on "
        f"{setup.params.nodes} simulated nodes.*"
    )
    return "\n\n".join(sections) + "\n"
