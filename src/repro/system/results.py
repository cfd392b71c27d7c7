"""Run results: everything an experiment needs after a simulation."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.stats import AverageBreakdown, Counters, LatencyHistogram, TimeBreakdown


def timing_summary(agent) -> Optional[Dict[str, float]]:
    """A timing agent's translation statistics; None for other agents."""
    if not hasattr(agent, "total_misses"):
        return None
    accesses = agent.total_accesses
    return {
        "entries": agent.entries,
        "accesses": accesses,
        "misses": agent.total_misses,
        "miss_rate": agent.total_misses / accesses if accesses else 0.0,
    }


class RunResult:
    """Outcome of one simulated run.

    Collects per-node time breakdowns, merged counters, and (when the
    run used a :class:`~repro.system.taps.StudyAgent`) the full
    translation-miss sweep.
    """

    def __init__(
        self,
        machine,
        breakdowns: List[TimeBreakdown],
        total_time: int,
        refs_per_node: List[int],
        barriers: int,
    ) -> None:
        self.machine = machine
        self.params = machine.params
        self.scheme = machine.scheme
        self.workload_name = machine.workload.name
        self.breakdowns = breakdowns
        self.total_time = total_time
        self.refs_per_node = refs_per_node
        self.barriers = barriers
        #: Which engine produced this result ("compiled" or "scalar"),
        #: and why the scalar path ran (None on the fast path).  Filled
        #: in by :meth:`~repro.system.simulator.Simulator.run`.
        self.backend: Optional[str] = None
        self.fallback_reason: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def total_references(self) -> int:
        return sum(self.refs_per_node)

    @property
    def counters(self) -> Counters:
        return self.machine.merged_counters()

    def aggregate_breakdown(self) -> TimeBreakdown:
        total = TimeBreakdown()
        for breakdown in self.breakdowns:
            total = total + breakdown
        return total

    def average_breakdown(self) -> AverageBreakdown:
        return self.aggregate_breakdown().scaled(len(self.breakdowns))

    def translation_overhead_ratio(self) -> float:
        """Table 4's metric: translation stall / memory stall, averaged
        machine-wide."""
        return self.aggregate_breakdown().translation_overhead_ratio()

    def read_latency_histogram(self) -> LatencyHistogram:
        """Machine-wide distribution of load stall latencies."""
        merged = LatencyHistogram()
        for node in self.machine.nodes:
            merged = merged.merge(node.read_latency)
        return merged

    def write_latency_histogram(self) -> LatencyHistogram:
        """Machine-wide distribution of store stall latencies."""
        merged = LatencyHistogram()
        for node in self.machine.nodes:
            merged = merged.merge(node.write_latency)
        return merged

    def study_results(self):
        """Sweep results when the run's agent was a StudyAgent."""
        agent = self.machine.agent
        results = getattr(agent, "results", None)
        if results is None:
            return None
        return results()

    def timing_summary(self) -> Optional[Dict[str, float]]:
        """Translation statistics when the run used a TimingAgent."""
        return timing_summary(self.machine.agent)

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

    def __repr__(self) -> str:
        return (
            f"RunResult({self.scheme.value}/{self.workload_name}, "
            f"time={self.total_time}, refs={self.total_references})"
        )
