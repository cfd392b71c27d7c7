"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each ablation removes one
ingredient of V-COMA's advantage (or one modelling choice) and measures
what is lost.

* :func:`sharing_ablation` — disable DLB *sharing* by giving every
  requesting node its own private slice at each home (same entry count
  per structure).  The difference between shared and partitioned miss
  counts is precisely the sharing + prefetching contribution the paper
  describes qualitatively.
* :func:`shootdown_scaling` — cost of one mapping/protection change as
  the node count grows: per-node-TLB schemes pay a machine-wide
  shootdown, V-COMA a constant home-side update (the paper's TLB
  consistency motivation, quantified).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.params import MachineParams
from repro.common.rng import make_rng
from repro.coma.protocol import TranslationAgent
from repro.core.schemes import Scheme
from repro.core.tlb import TranslationBuffer
from repro.system.machine import Machine
from repro.system.simulator import Simulator
from repro.vm.protection import ProtectionManager
from repro.workloads.base import Workload


class SharedVsPartitionedAgent(TranslationAgent):
    """Observes the home-node translation stream twice: once through a
    genuinely shared DLB per home, once through per-(home, requester)
    private slices of the same size."""

    def __init__(self, params: MachineParams, entries: int) -> None:
        self.params = params
        self.entries = entries
        node_bits = params.nodes.bit_length() - 1
        self._node_bits = node_bits
        self.shared = [
            TranslationBuffer(entries, rng=make_rng(params.seed, "abl-shared", h))
            for h in range(params.nodes)
        ]
        self.partitioned = {
            (h, r): TranslationBuffer(
                entries, rng=make_rng(params.seed, "abl-part", h, r)
            )
            for h in range(params.nodes)
            for r in range(params.nodes)
        }

    def at_home(self, home, vpn, for_ownership=False, injection=False, requester=None):
        key = vpn >> self._node_bits
        self.shared[home].access(key)
        if requester is not None:
            self.partitioned[(home, requester)].access(key)
        return 0

    @property
    def shared_misses(self) -> int:
        return sum(b.misses for b in self.shared)

    @property
    def partitioned_misses(self) -> int:
        return sum(b.misses for b in self.partitioned.values())

    @property
    def shared_accesses(self) -> int:
        return sum(b.accesses for b in self.shared)


def sharing_ablation(
    params: MachineParams,
    workload: Workload,
    entries: int = 8,
    max_refs_per_node: Optional[int] = None,
) -> Dict[str, int]:
    """Measure the sharing/prefetching contribution to the DLB's hit
    rate.  Returns shared vs partitioned miss counts over the same
    home-node stream; partitioned structures have P times the aggregate
    capacity, so any shared win is pure sharing."""
    agent = SharedVsPartitionedAgent(params, entries)
    machine = Machine(params, Scheme.V_COMA, workload, agent=agent)
    Simulator(machine, max_refs_per_node=max_refs_per_node).run()
    return {
        "entries": entries,
        "accesses": agent.shared_accesses,
        "shared_misses": agent.shared_misses,
        "partitioned_misses": agent.partitioned_misses,
    }


def shootdown_scaling(
    node_counts: Iterable[int],
    base_params: Optional[MachineParams] = None,
) -> List[Tuple[int, int, int]]:
    """Cost of one mapping change vs node count.

    Returns ``(nodes, tlb_scheme_cost, vcoma_cost)`` tuples.  Uses the
    protection manager's cost model only (no workload needed).
    """
    from repro.workloads.custom import CustomWorkload
    from repro.workloads.base import SegmentSpec

    rows = []
    for nodes in node_counts:
        params = (base_params or MachineParams.scaled_down(factor=32, page_size=256)).replace(
            nodes=nodes
        )
        noop = CustomWorkload(
            [SegmentSpec("data", params.page_size * 4)],
            lambda node, ctx: iter(()),
            name="noop",
        )
        tlb_machine = Machine(params, Scheme.L0_TLB, noop)
        vcoma_machine = Machine(params, Scheme.V_COMA, noop)
        rows.append(
            (
                nodes,
                ProtectionManager(tlb_machine).mapping_change_cost(),
                ProtectionManager(vcoma_machine).mapping_change_cost(),
            )
        )
    return rows
