"""FMM-like workload (paper Table 1: 16384 particles, 29 MB shared).

The fast multipole method walks a shared spatial tree (read-mostly,
strongly skewed toward the upper levels) and updates the node's own
particles.  Characteristic behaviour in the paper: the byte-level
working set is cache-friendly, but the tree walk hops across *many
pages*, so the tiny L0 TLB thrashes while every deeper translation
point is quiet — FMM has the largest L0-TLB overhead in Table 4
(96.5 % of memory stall time) yet nearly zero misses from L3 down.

Structure per iteration: tree traversal (skewed reads over the tree
segment interleaved with cell-list reads) → own-particle update phase
(sequential read/write) → barrier.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.params import MachineParams
from repro.system.refs import READ, WRITE
from repro.workloads.base import (
    Event,
    SegmentSpec,
    StreamRecipe,
    Workload,
    WorkloadContext,
    stream_recipe,
)


class FMMWorkload(Workload):
    """Skewed shared-tree traversal + owned particle updates."""

    name = "fmm"
    think_cycles = 8  # multipole math between accesses

    def __init__(
        self,
        tree_fraction: float = 0.12,
        particles_fraction: float = 0.08,
        iterations: int = 2,
        interactions_per_particle: int = 8,
        tree_descend: float = 0.75,
        intensity: float = 1.0,
    ) -> None:
        self.tree_fraction = tree_fraction
        self.particles_fraction = particles_fraction
        self.iterations = iterations
        self.interactions_per_particle = interactions_per_particle
        self.tree_descend = tree_descend
        self.intensity = intensity

    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        return [
            SegmentSpec("tree", self.scaled(params, self.tree_fraction)),
            SegmentSpec("particles", self.scaled(params, self.particles_fraction)),
        ]

    def particles_per_node(self, ctx: WorkloadContext) -> int:
        particle_bytes = 64
        total = ctx.segment("particles").size // particle_bytes
        return max(8, int(total // ctx.params.nodes * self.intensity))

    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        params = ctx.params
        tree = ctx.segment("tree")
        particles = ctx.segment("particles")
        rng = ctx.rng(node)
        particle_bytes = 64
        count = self.particles_per_node(ctx)
        partition = particles.size // params.nodes
        my_base = node * partition
        barrier_id = 0

        for _ in range(self.iterations):
            # Tree traversal: for each particle, read a skewed chain of
            # tree cells (upper levels hot, leaves cold and page-sparse).
            offset = my_base
            tree_reads = self.tree_walk_accesses(
                tree,
                count * self.interactions_per_particle,
                rng,
                op=READ,
                granularity=64,
                descend=self.tree_descend,
                cluster_bytes=params.page_size,
            )
            for i, event in enumerate(tree_reads):
                yield event
                if i % self.interactions_per_particle == 0:
                    yield READ, particles.address(offset)
                    offset = my_base + (offset - my_base + particle_bytes) % partition
            yield self.barrier(barrier_id)
            barrier_id += 1

            # Update phase: sequential read-modify-write of own
            # particles (good locality, some SLC writebacks later).
            offset = my_base
            for _ in range(count):
                addr = particles.address(offset)
                yield READ, addr
                yield WRITE, addr
                offset = my_base + (offset - my_base + particle_bytes) % partition
            yield self.barrier(barrier_id)
            barrier_id += 1

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` for ``fs_stream``'s ``gen_fmm``."""
        particles = ctx.segment("particles")
        count = self.particles_per_node(ctx)
        partition = particles.size // ctx.params.nodes
        interactions = self.interactions_per_particle
        return stream_recipe(
            "fmm",
            ctx.rng_seed(node),
            (ctx.segment("tree"), particles),
            (
                self.iterations, count, interactions, partition, node * partition,
                ctx.params.page_size,
            ),
            (self.tree_descend,),
            capacity=self.iterations * (count * (interactions + 3) + 2),
            positive=(interactions, partition),
        )
