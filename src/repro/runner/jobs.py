"""Picklable descriptions of one simulation each.

A :class:`JobSpec` is a frozen, hashable value object naming everything
a worker process needs to reproduce one simulation bit-for-bit: machine
parameters (including the seed — every random substream derives from
it, so per-job determinism needs no extra plumbing), the workload by
registry name plus constructor overrides, and the experiment kind
(miss sweep, coupled timing, or the shared-vs-partitioned DLB replay)
with its knobs.  The spec doubles as the persistent cache key via
:meth:`content_hash`, which folds in the package version so results
never survive a code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.params import MachineParams
from repro.core.schemes import Scheme
from repro.core.tlb import Organization
from repro.system.taps import DEFAULT_SWEEP_ORGS, DEFAULT_SWEEP_SIZES

#: Experiment kinds a worker knows how to execute.
KIND_SWEEP = "sweep"
KIND_TIMING = "timing"
KIND_SHARING = "sharing"

#: Machines a job runs on: the COMA machine, or (sweeps only) the
#: CC-NUMA machine the ``numa`` experiment compares it with.
MACHINE_COMA = "coma"
MACHINE_NUMA = "numa"

_DEFAULT_ORG_VALUES = tuple(org.value for org in DEFAULT_SWEEP_ORGS)


def _org_value(org: Union[Organization, str]) -> str:
    return org.value if isinstance(org, Organization) else Organization(org).value


def _scheme_value(scheme: Union[Scheme, str]) -> str:
    return scheme.value if isinstance(scheme, Scheme) else Scheme(scheme).value


def _freeze_overrides(overrides: Optional[Dict]) -> Tuple[Tuple[str, object], ...]:
    if not overrides:
        return ()
    return tuple(sorted(overrides.items()))


@dataclass(frozen=True)
class JobSpec:
    """One simulation, fully described by plain picklable values.

    Enums are stored by value (strings) so the spec hashes and JSON-
    serializes canonically; accessors rehydrate them.  ``label`` is a
    caller-side display name and is deliberately excluded from the
    content hash.
    """

    kind: str
    params: MachineParams
    workload: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    variant: Optional[str] = None
    # -- sweep knobs ----------------------------------------------------
    sizes: Tuple[int, ...] = DEFAULT_SWEEP_SIZES
    orgs: Tuple[str, ...] = _DEFAULT_ORG_VALUES
    # -- timing knobs (``entries`` also sizes a sharing job's DLBs) -----
    scheme: Optional[str] = None
    entries: Optional[int] = None
    organization: str = Organization.FULLY_ASSOCIATIVE.value
    include_l2_writebacks: bool = True
    contention: bool = False
    relaxed_writes: bool = False
    # -- shared ---------------------------------------------------------
    machine: str = MACHINE_COMA
    max_refs_per_node: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SWEEP, KIND_TIMING, KIND_SHARING):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == KIND_TIMING and (self.scheme is None or self.entries is None):
            raise ValueError("timing jobs need a scheme and an entry count")
        if self.kind == KIND_SHARING and self.entries is None:
            raise ValueError("sharing jobs need an entry count")
        if self.machine not in (MACHINE_COMA, MACHINE_NUMA):
            raise ValueError(f"unknown machine {self.machine!r}")
        if self.machine == MACHINE_NUMA and self.kind != KIND_SWEEP:
            raise ValueError("only sweep jobs run on the CC-NUMA machine")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def sweep(
        cls,
        params: MachineParams,
        workload: str,
        sizes: Iterable[int] = DEFAULT_SWEEP_SIZES,
        orgs: Iterable[Union[Organization, str]] = DEFAULT_SWEEP_ORGS,
        max_refs_per_node: Optional[int] = None,
        overrides: Optional[Dict] = None,
        variant: Optional[str] = None,
        label: Optional[str] = None,
        machine: str = MACHINE_COMA,
    ) -> "JobSpec":
        """A one-run-many-taps miss sweep (Figures 8/9, Tables 2/3),
        on the COMA machine or, with ``machine="numa"``, the CC-NUMA one."""
        return cls(
            kind=KIND_SWEEP,
            params=params,
            workload=workload.lower(),
            overrides=_freeze_overrides(overrides),
            variant=variant,
            sizes=tuple(sizes),
            orgs=tuple(_org_value(org) for org in orgs),
            max_refs_per_node=max_refs_per_node,
            label=label,
            machine=machine,
        )

    @classmethod
    def timing(
        cls,
        params: MachineParams,
        scheme: Union[Scheme, str],
        workload: str,
        entries: int,
        organization: Union[Organization, str] = Organization.FULLY_ASSOCIATIVE,
        include_l2_writebacks: bool = True,
        contention: bool = False,
        max_refs_per_node: Optional[int] = None,
        overrides: Optional[Dict] = None,
        variant: Optional[str] = None,
        label: Optional[str] = None,
        relaxed_writes: bool = False,
    ) -> "JobSpec":
        """A coupled timing run (Table 4, Figure 10); ``relaxed_writes``
        hides store latency behind a write buffer."""
        return cls(
            kind=KIND_TIMING,
            params=params,
            workload=workload.lower(),
            overrides=_freeze_overrides(overrides),
            variant=variant,
            scheme=_scheme_value(scheme),
            entries=entries,
            organization=_org_value(organization),
            include_l2_writebacks=include_l2_writebacks,
            contention=contention,
            relaxed_writes=relaxed_writes,
            max_refs_per_node=max_refs_per_node,
            label=label,
        )

    @classmethod
    def sharing(
        cls,
        params: MachineParams,
        workload: str,
        entries: int,
        max_refs_per_node: Optional[int] = None,
        overrides: Optional[Dict] = None,
        label: Optional[str] = None,
    ) -> "JobSpec":
        """A shared vs per-requester partitioned DLB replay of the HOME
        tap (``ablation-sharing``).  It replays the recording of the
        workload's sweep: the two share :meth:`trace_key`."""
        return cls(
            kind=KIND_SHARING,
            params=params,
            workload=workload.lower(),
            overrides=_freeze_overrides(overrides),
            entries=entries,
            max_refs_per_node=max_refs_per_node,
            label=label,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def build_workload(self):
        """Fresh workload instance (each simulation configures its own)."""
        from repro.workloads import WORKLOADS

        try:
            factory = WORKLOADS[self.workload]
        except KeyError:
            raise KeyError(
                f"unknown workload {self.workload!r}; choose from {sorted(WORKLOADS)}"
            ) from None
        config = dict(self.overrides)
        if self.variant:
            maker = getattr(factory, self.variant, None)
            if maker is None:
                raise ValueError(
                    f"workload {self.workload!r} has no variant {self.variant!r}"
                )
            return maker(**config)
        return factory(**config)

    def replays(self) -> bool:
        """Whether this cell replays a recording of the COMA hierarchy
        (a COMA sweep or a sharing job)."""
        return self.kind in (KIND_SWEEP, KIND_SHARING) and self.machine == MACHINE_COMA

    def unit_key(self) -> Optional[Tuple[str, str]]:
        """What the cells of one unit of work (:func:`execute_unit`)
        share: a cell that :meth:`replays` joins the cells of its
        recording, a timing cell the timing cells of its workload
        stream, each named by :meth:`trace_hash`.  ``None`` for a
        CC-NUMA sweep, which runs alone."""
        if self.replays():
            return "recording", self.trace_hash()
        if self.kind == KIND_TIMING:
            return "timing", self.trace_hash()
        return None

    def execute(self, trace_store=None):
        """Run the simulation in-process and return a
        :class:`~repro.runner.summary.RunSummary`.

        Sweep and sharing jobs are decoupled (translation state never
        feeds back into the hierarchy), so they run through the
        record-once/replay-many pipeline as a unit of one
        (:func:`execute_unit`): the hierarchy simulation is captured as
        per-tap page streams — loaded from ``trace_store`` when a
        matching trace exists, recorded (and stored) otherwise — and
        the TLB/DLB banks for this spec's ``sizes``/``orgs`` — or, for
        a sharing job, the shared and per-requester DLBs — are replayed
        from the recording.  Results are bit-identical to the coupled
        scalar sweep, the oracle the pipeline is checked against
        (``run_miss_sweep(..., fast=False)``: one machine with a
        ``StudyAgent`` on the scalar engine).  Timing jobs are always
        coupled: the translation penalty perturbs the interleaving, so
        there is nothing to replay.  A CC-NUMA sweep has no compiled
        twin: it runs a scalar ``NumaMachine`` with a ``StudyAgent`` and
        never touches the trace store.

        Compiled timing runs and captures are headless: their summary
        comes straight from the C engine, with no Python machine built
        (:func:`~repro.system.simulator.run_summary`).
        """
        # Resolved at call time, so wrappers installed on these module
        # attributes (the e2e benchmark's ledger) see every call.
        from repro.system.simulator import run_summary

        if self.replays():
            (outcome,) = _execute_recorded([self], trace_store)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        if self.machine == MACHINE_NUMA:
            return self._execute_numa()
        summary, _ = run_summary(
            self.params,
            Scheme(self.scheme),
            self.build_workload(),
            self._timing_agent,
            contention=self.contention,
            max_refs_per_node=self.max_refs_per_node,
            # The trace hash doubles as the stream-LRU key: it
            # identifies the workload recipe minus bank sizes/orgs and
            # timing knobs, so every grid cell sharing a workload shares
            # its materialized reference columns.
            stream_key=self.trace_hash(),
            relaxed_writes=self.relaxed_writes,
        )
        return summary

    def _timing_agent(self):
        """A fresh TLB/DLB agent of a timing cell."""
        from repro.system.taps import TimingAgent

        return TimingAgent(
            self.params,
            Scheme(self.scheme),
            self.entries,
            organization=Organization(self.organization),
            include_l2_writebacks=self.include_l2_writebacks,
        )

    def _bank_grid(self):
        """A sweep's ``(sizes, orgs)`` cell, or ``None`` for a sharing
        job, once every bank member's geometry is known to be valid."""
        from repro.core.replay import buffer_geometry

        if self.kind == KIND_SHARING:
            buffer_geometry(self.entries, Organization.FULLY_ASSOCIATIVE)
            return None
        orgs = tuple(Organization(value) for value in self.orgs)
        for size in self.sizes:
            for org in orgs:
                buffer_geometry(size, org)
        return self.sizes, orgs

    def _execute_numa(self):
        """A sweep on the CC-NUMA machine (SHARED-TLB at the home), on
        the scalar engine: ``fallback_reason`` names the machine type."""
        from repro.numa import NumaMachine
        from repro.system.simulator import Simulator
        from repro.system.taps import StudyAgent

        agent = StudyAgent(
            self.params, sizes=self.sizes, orgs=[Organization(value) for value in self.orgs]
        )
        machine = NumaMachine(self.params, Scheme.V_COMA, self.build_workload(), agent=agent)
        simulator = Simulator(machine, max_refs_per_node=self.max_refs_per_node)
        simulator.fallback_reason = "custom machine type NumaMachine"
        return simulator.run()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def key(self) -> Dict:
        """Canonical content (label excluded) — the cache identity."""
        return {
            "kind": self.kind,
            "params": dataclasses.asdict(self.params),
            "workload": self.workload,
            "overrides": [[name, value] for name, value in self.overrides],
            "variant": self.variant,
            "sizes": list(self.sizes),
            "orgs": list(self.orgs),
            "scheme": self.scheme,
            "entries": self.entries,
            "organization": self.organization,
            "include_l2_writebacks": self.include_l2_writebacks,
            "contention": self.contention,
            "relaxed_writes": self.relaxed_writes,
            "machine": self.machine,
            "max_refs_per_node": self.max_refs_per_node,
        }

    def content_hash(self, version: Optional[str] = None) -> str:
        """SHA-256 over the canonical key + package version.

        The version suffix means a new release (which may change
        simulation behaviour) silently invalidates every cached result.
        """
        if version is None:
            from repro import __version__ as version
        payload = json.dumps(self.key(), sort_keys=True) + "\n" + version
        return hashlib.sha256(payload.encode()).hexdigest()

    def trace_key(self) -> Dict:
        """Identity of this spec's *hierarchy* run (the tap-trace key).

        Deliberately excludes the bank configuration (``sizes``/
        ``orgs``) and the timing knobs: the recorded tap streams depend
        only on the machine, workload, and reference bound, which is
        what makes one recording serve every bank design point.
        """
        return {
            "kind": "tap-trace",
            "params": dataclasses.asdict(self.params),
            "workload": self.workload,
            "overrides": [[name, value] for name, value in self.overrides],
            "variant": self.variant,
            "max_refs_per_node": self.max_refs_per_node,
        }

    def trace_hash(self, version: Optional[str] = None) -> str:
        """SHA-256 identity for the persistent trace store."""
        if version is None:
            from repro import __version__ as version
        from repro.system.taptrace import TRACE_FORMAT

        payload = (
            json.dumps(self.trace_key(), sort_keys=True)
            + f"\n{version}\nformat={TRACE_FORMAT}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable identity for progress lines."""
        if self.label:
            return self.label
        if self.kind == KIND_SWEEP:
            return f"sweep:{self.workload}"
        if self.kind == KIND_SHARING:
            return f"sharing:{self.workload}/{self.entries}"
        return f"timing:{self.workload}/{self.scheme}/{self.entries}"


def execute_unit(specs: Sequence[JobSpec], trace_store=None) -> List:
    """Run the cells of one unit of work; one outcome per cell, in
    order: its :class:`~repro.runner.summary.RunSummary`, or the
    exception that failed it.

    A unit is one cell of any kind, run by :meth:`JobSpec.execute`, or
    the cells of one :meth:`~JobSpec.unit_key`:

    * The COMA sweep and sharing cells of one recording.  Such a unit
      gets the recording from ``trace_store`` or captures it (and
      stores it) once, replays the union of its sweep cells' design
      points in one call and runs each sharing cell on the same trace
      in memory.  A cell fails alone when its bank geometry is invalid
      (checked before anything runs) or its own replay raises; a
      capture that raises fails every cell.
    * The timing cells of one workload stream.  Such a unit builds the
      workload's segments once and one page placement per AM
      virtuality, loads one compiled engine per cell and runs them all
      in one threaded ``fs_run_set`` call
      (:func:`~repro.system.fast_simulator.run_fast_set`).  A cell fails
      alone with the error its engine raises; a cell whose engine
      degrades re-runs alone on the scalar engine.  Without the
      compiled backend each cell runs through :meth:`JobSpec.execute`.
    """
    if len(specs) == 1:
        return [_outcome(lambda: specs[0].execute(trace_store=trace_store))]
    if specs[0].kind == KIND_TIMING:
        return _execute_timing(specs)
    return _execute_recorded(specs, trace_store)


def _outcome(run):
    """``run()``, or the exception it raised."""
    try:
        return run()
    except Exception as exc:
        return exc


def _execute_timing(specs: Sequence[JobSpec]) -> List:
    """:func:`execute_unit` for the timing cells of one stream."""
    # Resolved at call time, as in JobSpec.execute.
    from repro.core.ladder import EngineDegraded
    from repro.core.timing_kernels import get_backend
    from repro.system import fast_simulator
    from repro.system.simulator import scalar_summary

    if get_backend() is None:
        return [_outcome(spec.execute) for spec in specs]
    lead = specs[0]
    try:
        workload = lead.build_workload()
        plan = fast_simulator.AddressPlan(lead.params, workload)
    except Exception as exc:
        return [exc] * len(specs)
    outcomes: List = [None] * len(specs)
    runs = {}  # position -> HeadlessRun
    for position, spec in enumerate(specs):
        try:
            runs[position] = fast_simulator.HeadlessRun(
                spec.params,
                Scheme(spec.scheme),
                workload,
                spec._timing_agent(),
                spec.contention,
                spec.max_refs_per_node,
                # The stream-LRU key, as in JobSpec.execute: every cell
                # of the unit shares the materialized columns.
                spec.trace_hash(),
                spec.relaxed_writes,
                plan=plan,
            )
        except Exception as exc:
            outcomes[position] = exc
    results = fast_simulator.run_fast_set(list(runs.values()))
    for (position, run), outcome in zip(runs.items(), results):
        if isinstance(outcome, (EngineDegraded, MemoryError)):
            spec = specs[position]
            reason = fast_simulator.degraded_reason(outcome)
            outcome = _outcome(lambda: scalar_summary(
                spec.params, run.scheme, spec.build_workload(), spec._timing_agent(),
                reason, spec.contention, spec.max_refs_per_node, spec.relaxed_writes,
            ))
        outcomes[position] = outcome
    return outcomes


def _execute_recorded(specs: Sequence[JobSpec], trace_store) -> List:
    """:func:`execute_unit` for cells that replay one recording."""
    # Resolved at call time, as in JobSpec.execute.
    from repro.system.taptrace import capture_tap_traces, replay_summary, sharing_summary

    outcomes: List = [None] * len(specs)
    grids = {}  # position -> (sizes, orgs), or None for a sharing cell
    for position, spec in enumerate(specs):
        try:
            grids[position] = spec._bank_grid()
        except Exception as exc:
            outcomes[position] = exc
    if not grids:
        return outcomes
    lead = specs[next(iter(grids))]
    try:
        traces = trace_store.get(lead) if trace_store is not None else None
        if traces is None:
            traces = capture_tap_traces(
                lead.params,
                lead.build_workload(),
                max_refs_per_node=lead.max_refs_per_node,
                stream_key=lead.trace_hash(),
            )
            if trace_store is not None:
                trace_store.put(lead, traces)
    except Exception as exc:
        for position in grids:
            outcomes[position] = exc
        return outcomes

    sweeps = [position for position, grid in grids.items() if grid is not None]
    if sweeps:
        try:
            summaries = replay_summary(traces, [grids[position] for position in sweeps])
        except Exception as exc:
            summaries = [exc] * len(sweeps)
        for position, summary in zip(sweeps, summaries):
            outcomes[position] = summary
    for position, grid in grids.items():
        if grid is None:
            try:
                outcomes[position] = sharing_summary(traces, specs[position].entries)
            except Exception as exc:
                outcomes[position] = exc
    return outcomes
