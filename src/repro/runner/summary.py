"""Run results: what a finished simulation leaves behind.

A :class:`RunSummary` is the one form of a finished run, on either
engine: per-node time breakdowns, merged counters, latency histograms,
the TLB/DLB timing summary, (for sweep runs) the full
:class:`~repro.system.taps.StudyResults` surface and (for sharing runs)
the shared-vs-partitioned DLB counts.  It holds no machine, so it
pickles across worker processes and serializes into the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.stats import AverageBreakdown, Counters, LatencyHistogram, TimeBreakdown
from repro.core.schemes import Scheme
from repro.system.taps import StudyResults


@dataclass
class GridStats:
    """Counters for one :meth:`BatchRunner.run` call.

    How many jobs landed (and from where), how many failed, which
    engines ran them, and what the stores had to repair.  Rendered by
    the CLI after any grid where something beyond plain completion
    happened.
    """

    total: int = 0
    completed: int = 0
    failed: int = 0
    from_cache: int = 0
    from_manifest: int = 0
    simulations: int = 0
    #: Labels of jobs that ended as :class:`JobFailure`s.
    failure_labels: List[str] = field(default_factory=list)
    #: Engine mix: summary ``backend`` value -> number of jobs that
    #: executed on it this run (cache/manifest restores not counted —
    #: they ran nothing).  Keys are e.g. "compiled", "scalar",
    #: "compiled+replay".
    backends: Dict[str, int] = field(default_factory=dict)
    #: Degradation provenance: summary ``fallback_reason`` -> number of
    #: executed jobs stamped with it.  Only runs that could have run
    #: compiled count (``fast_simulator.is_degradation``): not
    #: ``"fast=False"``, nor a machine the C engine does not model.
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    #: Store hygiene (this run's delta, cache + trace store combined):
    #: corrupt/partial files moved to quarantine.
    store_quarantined: int = 0
    #: Entries removed by the stores' LRU size caps.
    store_evictions: int = 0
    #: Corrupt tap traces dropped (and re-recorded) by the trace store.
    trace_corrupt_dropped: int = 0
    #: Wall-clock duration of the whole :meth:`BatchRunner.run` call.
    wall_seconds: float = 0.0
    #: Summed per-job execution time (cache/manifest restores count 0).
    job_seconds: float = 0.0
    #: Worker processes used (1 = in-process).
    workers: int = 1
    #: Worker processes the caller asked for (``--jobs``), before the
    #: runner clamped to the CPUs it may use.  0 = not recorded.
    requested_jobs: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool's wall-clock capacity spent
        executing jobs: ``job_seconds / (wall_seconds * workers)``.
        Near 1.0 means the pool stayed busy; low values mean the grid
        was cache-dominated or dispatch-bound."""
        capacity = self.wall_seconds * max(1, self.workers)
        return self.job_seconds / capacity if capacity > 0 else 0.0

    @property
    def jobs_clamped(self) -> bool:
        """Whether the runner granted fewer workers than requested
        (``--jobs`` exceeded the CPUs this process may use)."""
        return self.requested_jobs > self.workers > 0

    @property
    def eventful(self) -> bool:
        """Whether anything beyond plain completion happened."""
        return bool(
            self.failed
            or self.jobs_clamped
            or self.fallback_reasons
            or self.store_quarantined
            or self.trace_corrupt_dropped
        )

    def render(self) -> str:
        restored = []
        if self.from_cache:
            restored.append(f"{self.from_cache} cached")
        if self.from_manifest:
            restored.append(f"{self.from_manifest} resumed")
        parts = [
            f"{self.completed}/{self.total} jobs ok"
            + (f" ({', '.join(restored)})" if restored else "")
        ]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.backends:
            mix = ", ".join(
                f"{count} {name}" for name, count in sorted(self.backends.items())
            )
            parts.append(f"engines: {mix}")
        if self.fallback_reasons:
            degraded = sum(self.fallback_reasons.values())
            parts.append(f"{degraded} degraded to scalar")
        if self.store_quarantined:
            parts.append(f"{self.store_quarantined} store files quarantined")
        if self.trace_corrupt_dropped:
            parts.append(f"{self.trace_corrupt_dropped} corrupt traces re-recorded")
        text = ", ".join(parts)
        if self.fallback_reasons:
            text += "\ndegradations: " + "; ".join(
                f"{count}x {reason}"
                for reason, count in sorted(self.fallback_reasons.items())
            )
        if self.jobs_clamped:
            text += (
                f"\nwarning: --jobs {self.requested_jobs} requested, "
                f"{self.workers} worker{'s' if self.workers != 1 else ''} "
                f"granted (CPU budget clamp)"
            )
        if self.failure_labels:
            text += "\nfailed jobs: " + ", ".join(self.failure_labels)
        return text

    def render_telemetry(self) -> str:
        """One line of pool telemetry: wall time, summed job time,
        workers, utilization."""
        return (
            f"wall {self.wall_seconds:.2f}s, job time {self.job_seconds:.2f}s, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}, "
            f"utilization {self.utilization:.0%}"
        )

    def to_dict(self) -> Dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "failed": self.failed,
            "from_cache": self.from_cache,
            "from_manifest": self.from_manifest,
            "simulations": self.simulations,
            "wall_seconds": self.wall_seconds,
            "job_seconds": self.job_seconds,
            "workers": self.workers,
            "requested_jobs": self.requested_jobs,
            "jobs_clamped": self.jobs_clamped,
            "utilization": self.utilization,
            "backends": dict(self.backends),
            "fallback_reasons": dict(self.fallback_reasons),
            "store_quarantined": self.store_quarantined,
            "store_evictions": self.store_evictions,
            "trace_corrupt_dropped": self.trace_corrupt_dropped,
        }


class RunSummary:
    """A self-contained snapshot of one finished simulation: what the
    tables and figures read (``average_breakdown``,
    ``translation_overhead_ratio``, ``timing_summary``,
    ``study_results``, ...)."""

    __slots__ = (
        "scheme",
        "workload_name",
        "total_time",
        "refs_per_node",
        "barriers",
        "breakdowns",
        "counters",
        "timing",
        "study",
        "read_latency",
        "write_latency",
        "backend",
        "fallback_reason",
        "sharing",
    )

    def __init__(
        self,
        scheme: Scheme,
        workload_name: str,
        total_time: int,
        refs_per_node: List[int],
        barriers: int,
        breakdowns: List[TimeBreakdown],
        counters: Dict[str, int],
        timing: Optional[Dict[str, float]] = None,
        study: Optional[StudyResults] = None,
        read_latency: Optional[LatencyHistogram] = None,
        write_latency: Optional[LatencyHistogram] = None,
        backend: Optional[str] = None,
        fallback_reason: Optional[str] = None,
        sharing: Optional[Dict[str, int]] = None,
    ) -> None:
        self.scheme = scheme
        self.workload_name = workload_name
        self.total_time = total_time
        self.refs_per_node = list(refs_per_node)
        self.barriers = barriers
        self.breakdowns = list(breakdowns)
        self.counters = dict(counters)
        self.timing = timing
        self.study = study
        #: Machine-wide stall-latency distributions (None on summaries
        #: deserialized from pre-1.4 cache files).
        self.read_latency = read_latency
        self.write_latency = write_latency
        #: Which simulator engine ran: "compiled" (columnar fast path)
        #: or "scalar" (the differential-testing oracle); replayed sweep
        #: summaries report "<capture backend>+replay".  None on
        #: summaries deserialized from pre-1.6 cache files.
        self.backend = backend
        #: Why the scalar engine ran (None on the compiled engine):
        #: "fast=False", "compiled backend unavailable: ...", "compiled
        #: engine degraded: ..." or, for a CC-NUMA cell, "custom
        #: machine type NumaMachine".  None on summaries deserialized
        #: from pre-1.7 cache files.
        self.fallback_reason = fallback_reason
        #: A sharing run's counts (:func:`repro.system.taptrace.replay_sharing`);
        #: None on every other run.
        self.sharing = sharing

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        scheme: Scheme,
        workload_name: str,
        total_time: int,
        refs_per_node: List[int],
        barriers: int,
        breakdowns: List[TimeBreakdown],
        counters: Counters,
        latencies: List[Tuple[LatencyHistogram, LatencyHistogram]],
        agent,
        backend: str,
        fallback_reason: Optional[str] = None,
    ) -> "RunSummary":
        """Summarize a finished run on either engine: its totals,
        per-node breakdowns, merged counters, per-node ``(read,
        write)`` latency histograms (merged machine-wide here) and the
        :class:`~repro.coma.protocol.TranslationAgent` that observed
        it, whose ``timing()`` and ``study()`` the summary keeps."""
        read_latency, write_latency = LatencyHistogram(), LatencyHistogram()
        for read, write in latencies:
            read_latency = read_latency.merge(read)
            write_latency = write_latency.merge(write)
        return cls(
            scheme=scheme,
            workload_name=workload_name,
            total_time=total_time,
            refs_per_node=refs_per_node,
            barriers=barriers,
            breakdowns=breakdowns,
            counters=counters.to_dict(),
            timing=agent.timing(),
            study=agent.study(),
            read_latency=read_latency,
            write_latency=write_latency,
            backend=backend,
            fallback_reason=fallback_reason,
        )

    def with_study(self, study: Optional[StudyResults]) -> "RunSummary":
        """A copy with the sweep surface replaced (record/replay path:
        the hierarchy summary is recorded once, the study is replayed
        per bank configuration)."""
        return RunSummary(
            scheme=self.scheme,
            workload_name=self.workload_name,
            total_time=self.total_time,
            refs_per_node=self.refs_per_node,
            barriers=self.barriers,
            breakdowns=self.breakdowns,
            counters=self.counters,
            timing=self.timing,
            study=study,
            read_latency=self.read_latency,
            write_latency=self.write_latency,
            backend=self.backend,
            fallback_reason=self.fallback_reason,
            sharing=self.sharing,
        )

    # -- read side -------------------------------------------------------
    @property
    def total_references(self) -> int:
        return sum(self.refs_per_node)

    def aggregate_breakdown(self) -> TimeBreakdown:
        total = TimeBreakdown()
        for breakdown in self.breakdowns:
            total = total + breakdown
        return total

    def average_breakdown(self) -> AverageBreakdown:
        return self.aggregate_breakdown().scaled(len(self.breakdowns))

    def translation_overhead_ratio(self) -> float:
        return self.aggregate_breakdown().translation_overhead_ratio()

    def timing_summary(self) -> Optional[Dict[str, float]]:
        return self.timing

    def study_results(self) -> Optional[StudyResults]:
        return self.study

    def to_metrics(self, registry=None):
        """This run as a :class:`~repro.obs.metrics.MetricsRegistry`
        (see :func:`repro.obs.export.registry_from_summary`)."""
        from repro.obs.export import registry_from_summary

        return registry_from_summary(self, registry)

    def summary(self) -> Dict[str, float]:
        breakdown = self.average_breakdown()
        return {
            "scheme": self.scheme.value,
            "workload": self.workload_name,
            "total_time": self.total_time,
            "references": self.total_references,
            "busy": breakdown.busy,
            "sync": breakdown.sync,
            "loc_stall": breakdown.loc_stall,
            "rem_stall": breakdown.rem_stall,
            "tlb_stall": breakdown.tlb_stall,
        }

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable form (used by the persistent result cache).
        ``sharing`` appears only on the runs that have it."""
        data = {
            "scheme": self.scheme.value,
            "workload": self.workload_name,
            "total_time": self.total_time,
            "refs_per_node": list(self.refs_per_node),
            "barriers": self.barriers,
            "breakdowns": [breakdown.to_dict() for breakdown in self.breakdowns],
            "counters": dict(self.counters),
            "timing": self.timing,
            "backend": self.backend,
            "fallback_reason": self.fallback_reason,
            "study": self.study.to_dict() if self.study is not None else None,
            "read_latency": (
                self.read_latency.to_dict() if self.read_latency is not None else None
            ),
            "write_latency": (
                self.write_latency.to_dict() if self.write_latency is not None else None
            ),
        }
        if self.sharing is not None:
            data["sharing"] = dict(self.sharing)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RunSummary":
        study = data.get("study")
        read_latency = data.get("read_latency")
        write_latency = data.get("write_latency")
        return cls(
            scheme=Scheme(data["scheme"]),
            workload_name=data["workload"],
            total_time=data["total_time"],
            refs_per_node=data["refs_per_node"],
            barriers=data["barriers"],
            breakdowns=[TimeBreakdown(**fields) for fields in data["breakdowns"]],
            counters=data["counters"],
            timing=data.get("timing"),
            backend=data.get("backend"),
            fallback_reason=data.get("fallback_reason"),
            study=StudyResults.from_dict(study) if study is not None else None,
            read_latency=(
                LatencyHistogram.from_dict(read_latency)
                if read_latency is not None
                else None
            ),
            write_latency=(
                LatencyHistogram.from_dict(write_latency)
                if write_latency is not None
                else None
            ),
            sharing=data.get("sharing"),
        )

    def __repr__(self) -> str:
        return (
            f"RunSummary({self.scheme.value}/{self.workload_name}, "
            f"time={self.total_time}, refs={self.total_references})"
        )
