"""BARNES-like workload (paper Table 1: 16384 particles, 3.9 MB shared).

Barnes-Hut alternates a lock-guarded octree *build* (concurrent inserts
touch and write shared tree cells) with a read-dominated *force*
computation (each body walks the tree, upper levels hot) and an *update*
phase over the node's own bodies.  The shared data set is the smallest
of the six benchmarks and cache filtering works well, so the paper sees
low miss rates everywhere below L0 and an essentially-zero DLB rate.

Structure per time step: build (locked writes into the tree) → barrier
→ force (skewed tree reads per body) → barrier → update own bodies →
barrier.
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


class BarnesWorkload(Workload):
    """Lock-guarded tree build + skewed read-shared force phase."""

    name = "barnes"
    think_cycles = 8

    def __init__(
        self,
        tree_fraction: float = 0.08,
        bodies_fraction: float = 0.08,
        timesteps: int = 2,
        walk_reads_per_body: int = 12,
        tree_descend: float = 0.75,
        build_locks: int = 8,
        intensity: float = 1.0,
    ) -> None:
        self.tree_fraction = tree_fraction
        self.bodies_fraction = bodies_fraction
        self.timesteps = timesteps
        self.walk_reads_per_body = walk_reads_per_body
        self.tree_descend = tree_descend
        self.build_locks = build_locks
        self.intensity = intensity

    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        return [
            SegmentSpec("tree", self.scaled(params, self.tree_fraction)),
            SegmentSpec("bodies", self.scaled(params, self.bodies_fraction)),
            SegmentSpec("locks", max(params.page_size, self.build_locks * 64)),
        ]

    def bodies_per_node(self, ctx: WorkloadContext) -> int:
        body_bytes = 96
        total = ctx.segment("bodies").size // body_bytes
        return max(8, int(total // ctx.params.nodes * self.intensity))

    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        params = ctx.params
        tree = ctx.segment("tree")
        bodies = ctx.segment("bodies")
        locks = ctx.segment("locks")
        rng = ctx.rng(node)
        body_bytes = 96
        count = self.bodies_per_node(ctx)
        partition = bodies.size // params.nodes
        my_base = node * partition
        barrier_id = 0

        for _ in range(self.timesteps):
            # Build: insert a subset of own bodies into the shared tree
            # under per-subtree locks (real write sharing + contention).
            offset = my_base
            inserts = self.tree_walk_accesses(
                tree,
                max(1, count // 4),
                rng,
                op=WRITE,
                granularity=64,
                descend=self.tree_descend,
                cluster_bytes=params.page_size,
            )
            for _, write_addr in inserts:
                yield READ, bodies.address(offset)
                offset = my_base + (offset - my_base + body_bytes) % partition
                cell = (write_addr - tree.base) // 64
                lock_word = locks.address((cell % self.build_locks) * 64)
                yield self.lock(lock_word)
                yield WRITE, write_addr
                yield self.unlock(lock_word)
            yield self.barrier(barrier_id)
            barrier_id += 1

            # Force computation: every body walks the tree read-only.
            offset = my_base
            for _ in range(count):
                yield READ, bodies.address(offset)
                for event in self.tree_walk_accesses(
                    tree, self.walk_reads_per_body, rng, op=READ,
                    granularity=64, descend=self.tree_descend,
                    cluster_bytes=params.page_size,
                ):
                    yield event
                offset = my_base + (offset - my_base + body_bytes) % partition
            yield self.barrier(barrier_id)
            barrier_id += 1

            # Update own bodies (sequential read-modify-write).
            offset = my_base
            for _ in range(count):
                addr = bodies.address(offset)
                yield READ, addr
                yield WRITE, addr
                offset = my_base + (offset - my_base + body_bytes) % partition
            yield self.barrier(barrier_id)
            barrier_id += 1

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` for ``fs_stream``'s ``gen_barnes``."""
        bodies = ctx.segment("bodies")
        count = self.bodies_per_node(ctx)
        partition = bodies.size // ctx.params.nodes
        walk = self.walk_reads_per_body
        inserts = max(1, count // 4)
        return stream_recipe(
            "barnes",
            ctx.rng_seed(node),
            (ctx.segment("tree"), bodies, ctx.segment("locks")),
            (
                self.timesteps, count, partition, node * partition, walk,
                self.build_locks, ctx.params.page_size,
            ),
            (self.tree_descend,),
            capacity=self.timesteps * (4 * inserts + count * (walk + 3) + 3),
            positive=(partition, self.build_locks),
        )
