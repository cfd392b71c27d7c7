"""Picklable descriptions of one simulation each.

A :class:`JobSpec` is a frozen, hashable value object naming everything
a worker process needs to reproduce one simulation bit-for-bit: machine
parameters (including the seed — every random substream derives from
it, so per-job determinism needs no extra plumbing), the workload by
registry name plus constructor overrides, and the experiment kind
(miss-sweep or coupled timing) with its knobs.  The spec doubles as the
persistent cache key via :meth:`content_hash`, which folds in the
package version so results never survive a code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.common.params import MachineParams
from repro.core.schemes import Scheme
from repro.core.tlb import Organization
from repro.system.taps import DEFAULT_SWEEP_ORGS, DEFAULT_SWEEP_SIZES

#: Experiment kinds a worker knows how to execute.
KIND_SWEEP = "sweep"
KIND_TIMING = "timing"

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
    # -- timing knobs ---------------------------------------------------
    scheme: Optional[str] = None
    entries: Optional[int] = None
    organization: str = Organization.FULLY_ASSOCIATIVE.value
    include_l2_writebacks: bool = True
    contention: bool = False
    # -- shared ---------------------------------------------------------
    max_refs_per_node: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SWEEP, KIND_TIMING):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == KIND_TIMING and (self.scheme is None or self.entries is None):
            raise ValueError("timing jobs need a scheme and an entry count")

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
    ) -> "JobSpec":
        """A one-run-many-taps miss sweep (Figures 8/9, Tables 2/3)."""
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
    ) -> "JobSpec":
        """A coupled timing run (Table 4, Figure 10)."""
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

    def execute(self, trace_store=None):
        """Run the simulation in-process and return a
        :class:`~repro.runner.summary.RunSummary`.

        Sweep jobs are decoupled (translation state never feeds back
        into the hierarchy), so they run through the
        record-once/replay-many pipeline: the hierarchy simulation is
        captured as per-tap page streams — loaded from ``trace_store``
        when a matching trace exists, recorded (and stored) otherwise —
        and the TLB/DLB banks for this spec's ``sizes``/``orgs`` are
        replayed from the recording.  Results are bit-identical to the
        coupled scalar sweep (``run_miss_sweep(..., fast=False)``), the
        oracle the pipeline is checked against.  Timing jobs are always
        coupled: the translation penalty perturbs the interleaving, so
        there is nothing to replay.

        Compiled timing runs and captures are headless: their summary
        comes straight from the C engine, with no Python machine built
        (:func:`~repro.system.simulator.run_summary`).
        """
        # Resolved at call time, so wrappers installed on these module
        # attributes (the e2e benchmark's ledger) see every call.
        from repro.system.simulator import run_summary
        from repro.system.taps import TimingAgent
        from repro.system.taptrace import capture_tap_traces, replay_summary

        # The trace hash doubles as the stream-LRU key: it identifies
        # the workload recipe minus bank sizes/orgs and timing knobs,
        # so every grid cell sharing a workload shares its materialized
        # reference columns.
        stream_key = self.trace_hash()
        if self.kind == KIND_SWEEP:
            traces = trace_store.get(self) if trace_store is not None else None
            if traces is None:
                traces = capture_tap_traces(
                    self.params,
                    self.build_workload(),
                    max_refs_per_node=self.max_refs_per_node,
                    stream_key=stream_key,
                )
                if trace_store is not None:
                    trace_store.put(self, traces)
            orgs = tuple(Organization(value) for value in self.orgs)
            return replay_summary(traces, self.sizes, orgs)
        scheme = Scheme(self.scheme)
        summary, _ = run_summary(
            self.params,
            scheme,
            self.build_workload(),
            lambda: TimingAgent(
                self.params,
                scheme,
                self.entries,
                organization=Organization(self.organization),
                include_l2_writebacks=self.include_l2_writebacks,
            ),
            contention=self.contention,
            max_refs_per_node=self.max_refs_per_node,
            stream_key=stream_key,
        )
        return summary

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
        return f"timing:{self.workload}/{self.scheme}/{self.entries}"
