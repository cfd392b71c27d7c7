"""Experiment runners for the paper's evaluation section.

Two kinds of runs:

* **sweep runs** (:func:`run_miss_sweep`) — one hierarchy simulation
  per workload, yielding translation miss counts for every (tap, size,
  organization) point at once.  Feeds Figures 8 and 9 and Tables 2
  and 3.  On the compiled engine it is the record-once/replay-many
  pipeline (:mod:`repro.system.taptrace`): a headless capture of the
  hierarchy's tap streams, then every bank configuration replayed
  from the recording.  The scalar run with a
  :class:`~repro.system.taps.StudyAgent` is the oracle it must match
  bit for bit.
* **timing runs** (:func:`run_timing`) — coupled simulations where one
  real TLB/DLB charges its 40-cycle penalty.  Feeds Table 4 and
  Figure 10.  Never replayed: the penalty perturbs the interleaving,
  so each design point is its own simulation.

Figure 11's pressure profile needs no reference simulation at all: the
profile is fixed by the preloaded page placement
(:func:`pressure_profile`).

Grids of runs go through :class:`~repro.runner.batch.BatchRunner` as
:class:`~repro.runner.jobs.JobSpec` cells, whose ``execute`` runs the
same simulations and, on the compiled engine, reads their summaries
straight from C without building a machine
(:func:`~repro.system.simulator.run_summary`).  The paper's grids are
registered in :mod:`repro.analysis.report`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.common.params import MachineParams
from repro.core.schemes import SCHEME_ORDER, Scheme, TAP_OF_SCHEME, TapPoint
from repro.core.timing_kernels import get_backend
from repro.core.tlb import Organization
from repro.runner.summary import RunSummary
from repro.system.machine import Machine
from repro.system.simulator import Simulator, run_summary
from repro.system.taps import DEFAULT_SWEEP_ORGS, DEFAULT_SWEEP_SIZES, StudyAgent, StudyResults
from repro.workloads.base import Workload


def run_miss_sweep(
    params: MachineParams,
    workload: Workload,
    sizes: Iterable[int] = DEFAULT_SWEEP_SIZES,
    orgs: Iterable[Organization] = DEFAULT_SWEEP_ORGS,
    max_refs_per_node: Optional[int] = None,
    tracer=None,
    fast: bool = True,
    stream_key: Optional[str] = None,
) -> RunSummary:
    """Simulate once, observing every translation point.

    The machine is configured as V-COMA (virtual caches and attraction
    memory) because the tap streams of every scheme can be read off that
    one hierarchy: L0/L1/L2 sit above the AM and are identical in all
    schemes, L3's stream is the AM miss stream, and HOME is the
    home-node directory-lookup stream.  ``summary.study_results()``
    exposes the sweep surface.

    On the compiled engine the run builds no machine: a headless
    capture records every tap stream
    (:func:`~repro.system.taptrace.capture_tap_traces`, which writes a
    :class:`~repro.obs.trace.Tracer`'s records when one is given) and
    the banks replay from it
    (:func:`~repro.system.taptrace.replay_summary`; ``backend`` reads
    ``"compiled+replay"``).  ``fast=False`` or a missing compiled
    backend runs the scalar oracle instead: one coupled run with a
    :class:`~repro.system.taps.StudyAgent`, with ``fallback_reason``
    saying why.  The numbers and the trace are bit-identical either
    way.  ``stream_key`` (a workload identity such as
    ``JobSpec.trace_hash()``) lets compiled grid runs share generated
    columns through the stream LRU.
    """
    if fast and get_backend() is not None:
        # Resolved at call time, as JobSpec.execute does, so wrappers
        # of the taptrace entry points see these calls too.
        from repro.system.taptrace import capture_tap_traces, replay_summary

        traces = capture_tap_traces(
            params, workload, max_refs_per_node=max_refs_per_node, stream_key=stream_key,
            tracer=tracer,
        )
        (summary,) = replay_summary(traces, [(sizes, orgs)])
        return summary
    from repro.system.fast_simulator import unavailable_reason

    agent = StudyAgent(params, sizes=sizes, orgs=orgs)
    machine = Machine(params, Scheme.V_COMA, workload, agent=agent, tracer=tracer)
    simulator = Simulator(machine, max_refs_per_node=max_refs_per_node)
    simulator.fallback_reason = "fast=False" if not fast else unavailable_reason()
    return simulator.run()


def run_timing(
    params: MachineParams,
    scheme: Scheme,
    workload: Workload,
    entries: int,
    organization: Organization = Organization.FULLY_ASSOCIATIVE,
    include_l2_writebacks: bool = True,
    max_refs_per_node: Optional[int] = None,
    contention: bool = False,
    tracer=None,
    fast: bool = True,
) -> RunSummary:
    """Coupled run: one real translation structure, penalties charged.

    ``contention`` enables the crossbar's input-port serialization —
    needed by experiments whose effect is bandwidth-borne (RAYTRACE's
    padding pathology floods the network with master injections, which
    a latency-only model would hand out for free).  An optional
    :class:`~repro.obs.trace.Tracer` records one span per reference and
    protocol transaction plus TLB/DLB hit/fill events.

    The run goes through :func:`~repro.system.simulator.run_summary`:
    headless on the compiled engine by default, a scalar machine run
    with ``fast=False`` (bit-identical either way — ``backend`` records
    which engine ran; see ``docs/performance.md``).
    """
    from repro.system.taps import TimingAgent

    summary, _ = run_summary(
        params,
        scheme,
        workload,
        lambda: TimingAgent(
            params,
            scheme,
            entries,
            organization=organization,
            include_l2_writebacks=include_l2_writebacks,
        ),
        contention=contention,
        max_refs_per_node=max_refs_per_node,
        tracer=tracer,
        fast=fast,
    )
    return summary


def pressure_profile(
    params: MachineParams,
    workload: Workload,
    scheme: Scheme = Scheme.V_COMA,
) -> List[float]:
    """Figure 11: global-page-set pressure after preload (no references
    are simulated — placement alone determines the profile)."""
    machine = Machine(params, scheme, workload)
    return machine.pressure.profile()


# ----------------------------------------------------------------------
# Table 3: equivalent TLB size
# ----------------------------------------------------------------------
def equivalent_tlb_size(
    study: StudyResults,
    tap: TapPoint,
    target_misses: float,
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> float:
    """The TLB size whose miss count matches ``target_misses``.

    Interpolates log-linearly (misses vs log size) along the sweep
    curve, as the paper's Table 3 does implicitly.  Returns
    ``math.inf`` when even the largest simulated TLB misses more than
    the target, and the smallest size when it already beats the target.
    """
    curve = study.curve(tap, org)
    if not curve:
        raise ValueError("empty sweep curve")
    smallest_size, smallest_misses = curve[0]
    if smallest_misses <= target_misses:
        return float(smallest_size)
    previous = curve[0]
    for size, misses in curve[1:]:
        if misses <= target_misses:
            prev_size, prev_misses = previous
            if prev_misses == misses:
                return float(size)
            # Linear in (log2 size, misses).
            span = prev_misses - misses
            frac = (prev_misses - target_misses) / span
            log_size = math.log2(prev_size) + frac * (math.log2(size) - math.log2(prev_size))
            return 2.0 ** log_size
        previous = (size, misses)
    return math.inf


def scheme_miss_rates(
    study: StudyResults,
    size: int,
    org: Organization = Organization.FULLY_ASSOCIATIVE,
) -> Dict[Scheme, float]:
    """Table 2's row: miss rate per processor reference, per scheme."""
    return {
        scheme: study.miss_rate(TAP_OF_SCHEME[scheme], size, org)
        for scheme in SCHEME_ORDER
    }
