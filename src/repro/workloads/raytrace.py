"""RAYTRACE-like workload (paper Table 1: ``car``, 34.9 MB shared).

SPLASH-2 Raytrace reads a large shared scene database (BSP tree +
primitives, read-mostly with strong skew), distributes work through a
lock-protected task queue, and keeps a per-process *ray-tree stack*
(``raystruct``) that is padded to avoid false sharing.

The padding is the paper's most interesting case study: in the original
program the stack elements are **padded to multiples of 32 KB** in
virtual space, so in V-COMA every node's stack elements land in the
*same* global sets, causing uneven conflicts, extra injections, and
inflated synchronization time (Figure 10's V-COMA bar).  Re-aligning
the padding to one page — the paper's ``DLB/8/V2`` — spreads the stacks
over consecutive page colors and removes the effect.  ``stack_pad_pages``
reproduces both layouts: ``None`` (default) pads elements to the
attraction-memory way size (the scaled equivalent of the pathological
32 KB padding), an integer pads to that many pages (1 = the fixed V2
layout).  Each element is modelled as its own page-sized segment at the
padding alignment — under demand paging the gap pages are never touched
and never allocated, so only the elements occupy attraction memory.

Structure per node: loop { acquire task (lock), then for each ray:
skewed scene reads + push/pop writes on the own stack }, with a final
barrier.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.params import MachineParams
from repro.system.refs import READ, WRITE
from repro.vm.segments import SegmentKind
from repro.workloads.base import (
    RECIPE_MAX_SKEW,
    Event,
    SegmentSpec,
    StreamRecipe,
    Workload,
    WorkloadContext,
    stream_recipe,
)


class RaytraceWorkload(Workload):
    """Read-mostly scene + lock task queue + aligned private stacks."""

    name = "raytrace"
    think_cycles = 7

    def __init__(
        self,
        scene_fraction: float = 0.15,
        stack_depth: int = None,
        stack_groups: int = None,
        stack_pad_pages: int = None,  # None = pathological V1 padding
        tasks_per_node: int = 24,
        rays_per_task: int = 12,
        reads_per_ray: int = 10,
        scene_skew: float = 2.5,
        intensity: float = 1.0,
    ) -> None:
        if stack_depth is not None and stack_depth < 1:
            raise ValueError("stack_depth must be >= 1")
        if stack_groups is not None and stack_groups < 1:
            raise ValueError("stack_groups must be >= 1")
        if stack_pad_pages is not None and stack_pad_pages < 1:
            raise ValueError("stack_pad_pages must be >= 1")
        self.scene_fraction = scene_fraction
        self.stack_depth = stack_depth
        self.stack_groups = stack_groups
        self.stack_pad_pages = stack_pad_pages
        self.tasks_per_node = tasks_per_node
        self.rays_per_task = rays_per_task
        self.reads_per_ray = reads_per_ray
        self.scene_skew = scene_skew
        self.intensity = intensity

    @classmethod
    def v2(cls, **overrides) -> "RaytraceWorkload":
        """The paper's DLB/8/V2 layout: stack elements padded to one
        page, so consecutive elements take consecutive page colors."""
        overrides.setdefault("stack_pad_pages", 1)
        return cls(**overrides)

    def effective_stack_depth(self, params: MachineParams) -> int:
        """Stack elements per node.

        When ``stack_depth`` is None (default), pick the deepest stack
        that keeps the colliding global set's pressure safely below 1
        under the V1 padding: the V1 experiment needs conflicts, not a
        wedged machine.  All nodes' elements and the scene pages of that
        color compete for ``P*K`` slots; a couple of slots per global
        set are reserved for replication headroom.
        """
        if self.stack_depth is not None:
            return self.stack_depth
        capacity = params.nodes * params.am_assoc
        colors = params.global_page_sets
        scene_pages = -(-self.scaled(params, self.scene_fraction) // params.page_size)
        scene_per_color = -(-scene_pages // colors)
        margin = max(2, params.nodes // 4)
        free = capacity - scene_per_color - 1 - margin
        return max(1, min(params.am_assoc - 1, free // params.nodes))

    def effective_stack_groups(self, params: MachineParams) -> int:
        """Independent padded element groups per stack.

        In the original raystruct the 32 KB padding stride pollutes one
        page color per 32 KB of the 1 MB attraction-memory way — an
        eighth of all colors.  The default keeps that *fraction* of
        polluted global sets on scaled machines: one group per eight
        colors (at least one).
        """
        if self.stack_groups is not None:
            return self.stack_groups
        return max(1, params.global_page_sets // 8)

    def _pad_stride(self, params: MachineParams) -> int:
        if self.stack_pad_pages is None:
            # V1: the paper's pathological padding.  Padding every stack
            # element to the attraction-memory way size puts *all*
            # elements of *all* nodes' stacks into the same global page
            # sets — the scaled equivalent of raystruct's 32 KB-multiple
            # padding colliding with the AM set indexing.
            return params.am_way_size
        return self.stack_pad_pages * params.page_size

    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        specs = [
            SegmentSpec("scene", self.scaled(params, self.scene_fraction)),
            SegmentSpec("task_queue", params.page_size),
        ]
        stride = self._pad_stride(params)
        # One page-sized segment per stack element, each aligned to the
        # padding stride.  Under demand paging the padding gap pages are
        # never touched, hence never allocated — only the elements
        # themselves occupy attraction memory.  With the V1 padding all
        # elements of one group land in the same global page set; groups
        # are separated by one page so each group pollutes its own set
        # (as the 32 KB stride does across the paper's 1 MB way).
        groups = self.effective_stack_groups(params)
        depth = self.effective_stack_depth(params)
        group_offset = params.page_size if self.stack_pad_pages is None else 0
        for node in range(params.nodes):
            for group in range(groups):
                for element in range(depth):
                    specs.append(
                        SegmentSpec(
                            f"stack{node}_g{group}_e{element}",
                            params.page_size,
                            kind=SegmentKind.PRIVATE,
                            owner=node,
                            alignment=stride,
                            offset=group * group_offset,
                        )
                    )
        return specs

    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        scene = ctx.segment("scene")
        queue = ctx.segment("task_queue")
        depth_limit = self.effective_stack_depth(ctx.params)
        groups = self.effective_stack_groups(ctx.params)
        element_groups = [
            [ctx.segment(f"stack{node}_g{g}_e{i}") for i in range(depth_limit)]
            for g in range(groups)
        ]
        rng = ctx.rng(node)
        lock_word = queue.base  # one global task-queue lock
        tasks = max(1, int(self.tasks_per_node * self.intensity))
        barrier_id = 0

        for task in range(tasks):
            elements = element_groups[task % groups]
            # Grab a task under the queue lock; read/update the queue.
            yield self.lock(lock_word)
            yield READ, queue.address(64)
            yield WRITE, queue.address(64)
            yield self.unlock(lock_word)

            depth = 0
            for _ in range(self.rays_per_task):
                # Descend the scene structures (hot upper levels).
                for event in self.zipf_accesses(
                    scene, self.reads_per_ray, rng, op=READ,
                    granularity=64, skew=self.scene_skew,
                    cluster_bytes=ctx.params.page_size,
                ):
                    yield event
                # Push/pop the ray tree on the private padded stack:
                # each element is its own padded page (raystruct's
                # padding), with a few word touches per element.
                depth = (depth + 1) % depth_limit
                element = elements[depth]
                yield WRITE, element.address(0)
                yield READ, element.address(32)
                yield WRITE, element.address(64)
                if depth > 0 and rng.random() < 0.5:
                    depth -= 1
                    yield WRITE, elements[depth].address(0)
        yield self.barrier(barrier_id)

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` for ``fs_stream``'s ``gen_raytrace``."""
        if not 0 <= self.scene_skew <= RECIPE_MAX_SKEW:
            return None
        depth_limit = self.effective_stack_depth(ctx.params)
        groups = self.effective_stack_groups(ctx.params)
        elements = [
            ctx.segment(f"stack{node}_g{g}_e{i}")
            for g in range(groups)
            for i in range(depth_limit)
        ]
        tasks = max(1, int(self.tasks_per_node * self.intensity))
        rays, reads = self.rays_per_task, self.reads_per_ray
        return stream_recipe(
            "raytrace",
            ctx.rng_seed(node),
            [ctx.segment("scene"), ctx.segment("task_queue")] + elements,
            (tasks, groups, depth_limit, rays, reads, ctx.params.page_size),
            (self.scene_skew,),
            capacity=tasks * (4 + rays * (reads + 4)) + 1,
            positive=(groups, depth_limit),
        )
