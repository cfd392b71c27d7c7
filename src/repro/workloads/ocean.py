"""OCEAN-like workload (paper Table 1: 258x258 grid, 15.5 MB shared).

SPLASH-2 Ocean partitions a 2-D grid into contiguous row bands, one per
node, and repeatedly applies near-neighbour stencils: every sweep reads
the node's own band plus one boundary row from each neighbour band and
writes the own band.  Behaviour the paper highlights: large sequential
working set (many writebacks with poor temporal locality — with
writebacks, OCEAN's L2-TLB misses exceed L0's at some sizes), and
nearest-neighbour sharing only (boundary rows), so remote traffic and
deep-level translations are modest.

Structure: ``sweeps`` stencil passes separated by barriers, alternating
between two grids (red/black style).
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


class OceanWorkload(Workload):
    """Banded near-neighbour grid relaxation."""

    name = "ocean"
    think_cycles = 5

    def __init__(
        self,
        element_bytes: int = 8,
        grid_fraction: float = 0.12,
        sweeps: int = 4,
        intensity: float = 1.0,
    ) -> None:
        self.element_bytes = element_bytes
        self.grid_fraction = grid_fraction
        self.sweeps = sweeps
        self.intensity = intensity

    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        grid_bytes = self.scaled(params, self.grid_fraction)
        return [
            SegmentSpec("grid_a", grid_bytes),
            SegmentSpec("grid_b", grid_bytes),
        ]

    def _geometry(self, ctx: WorkloadContext):
        """Rows/columns such that every node owns a whole band."""
        grid = ctx.segment("grid_a")
        elements = grid.size // self.element_bytes
        # Near-square grid with row count divisible by the node count.
        cols = 1
        while cols * cols < elements:
            cols *= 2
        rows = max(ctx.params.nodes, elements // cols)
        rows -= rows % ctx.params.nodes
        return rows, cols

    def _step(self) -> int:
        return max(1, int(1 / self.intensity)) if self.intensity < 1 else 1

    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        params = ctx.params
        grids = (ctx.segment("grid_a"), ctx.segment("grid_b"))
        rows, cols = self._geometry(ctx)
        band = rows // params.nodes
        row_bytes = cols * self.element_bytes
        my_first = node * band
        step = self._step()
        barrier_id = 0

        for sweep in range(self.sweeps):
            src = grids[sweep % 2]
            dst = grids[(sweep + 1) % 2]
            for row in range(my_first, my_first + band):
                row_base = row * row_bytes
                up_base = max(0, (row - 1)) * row_bytes
                down_base = min(rows - 1, row + 1) * row_bytes
                for col in range(0, cols, step):
                    col_off = col * self.element_bytes
                    yield READ, src.address(row_base + col_off)
                    # North/south neighbours: at band edges these rows
                    # belong to the adjacent node — the shared boundary.
                    if col % 4 == 0:
                        yield READ, src.address(up_base + col_off)
                        yield READ, src.address(down_base + col_off)
                    yield WRITE, dst.address(row_base + col_off)
            yield self.barrier(barrier_id)
            barrier_id += 1

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` for ``fs_stream``'s ``gen_ocean``."""
        rows, cols = self._geometry(ctx)
        band = rows // ctx.params.nodes
        step = self._step()
        return stream_recipe(
            "ocean",
            ctx.rng_seed(node),
            (ctx.segment("grid_a"), ctx.segment("grid_b")),
            (
                self.sweeps, rows, cols, band, node * band, step, self.element_bytes,
                cols * self.element_bytes,
            ),
            capacity=self.sweeps * (band * 4 * -(-cols // step) + 1),
            positive=(step,),
        )
