"""FFT-like workload (paper Table 1: ``-m20 -t``, 51 MB shared).

The SPLASH-2 six-step FFT is dominated by blocked matrix transposes.
As in the original, each node *reads* the column slice it needs out of
every other node's row band and *writes* the transposed data into its
own band.  Two consequences drive the paper's FFT results:

* each source row is read by every node (each takes its own column
  slice, and slices share pages), so the home DLB loads a page's
  translation once for all readers — the sharing/prefetching effects;
* from one node's view the reads stride a full row between consecutive
  pages, so the per-node TLB working set is the whole matrix; and the
  local writes produce heavy SLC writeback traffic with poor temporal
  locality — FFT (with OCEAN) is where the paper's L2-TLB curve crosses
  above L0-TLB once writebacks access the TLB.

Structure per stage: local 1-D FFT over the node's rows (sequential
read/write, good locality) → barrier → transpose (read remote column
slices, write the own band) → barrier.
"""

from __future__ import annotations

import math
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


class FFTWorkload(Workload):
    """Blocked all-to-all matrix transpose + local FFT phases."""

    name = "fft"
    think_cycles = 6  # floating-point butterflies between accesses

    def __init__(
        self,
        element_bytes: int = 8,
        matrix_fraction: float = 0.125,
        stages: int = 2,
        intensity: float = 1.0,
    ) -> None:
        self.element_bytes = element_bytes
        self.matrix_fraction = matrix_fraction
        self.stages = stages
        self.intensity = intensity

    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        matrix_bytes = self.scaled(params, self.matrix_fraction)
        # Shape the matrix as close to square as the element count
        # allows; dimension n is a power of two divisible by the node
        # count so every node owns n/P whole rows.
        return [
            SegmentSpec("matrix_a", matrix_bytes),
            SegmentSpec("matrix_b", matrix_bytes),
        ]

    def _dimension(self, ctx: WorkloadContext) -> int:
        elements = ctx.segment("matrix_a").size // self.element_bytes
        n = 1 << (int(math.log2(max(4, elements))) // 2)
        return max(n, ctx.params.nodes)

    def _layout(self, ctx: WorkloadContext):
        """``(n, rows_per_node, row_bytes, step)`` of one run."""
        params = ctx.params
        n = self._dimension(ctx)
        rows_per_node = max(1, n // params.nodes)
        row_bytes = n * self.element_bytes
        # Keep the touched area inside the segment even if n*n elements
        # overshoot the allocation (dimension rounding).
        usable_rows = min(n, ctx.segment("matrix_a").size // row_bytes)
        rows_per_node = min(rows_per_node, max(1, usable_rows // params.nodes))
        step = max(1, int(1 / self.intensity)) if self.intensity < 1 else 1
        return n, rows_per_node, row_bytes, step

    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        params = ctx.params
        a = ctx.segment("matrix_a")
        b = ctx.segment("matrix_b")
        n, rows_per_node, row_bytes, step = self._layout(ctx)
        my_first_row = node * rows_per_node
        barrier_id = 0

        for stage in range(self.stages):
            src, dst = (a, b) if stage % 2 == 0 else (b, a)
            # Local 1-D FFTs over the node's own rows: sequential
            # read-modify-write with excellent locality.
            for row in range(my_first_row, my_first_row + rows_per_node):
                base = row * row_bytes
                for col in range(0, n, step):
                    addr = src.address(base + col * self.element_bytes)
                    yield READ, addr
                    if col % 2 == 0:
                        yield WRITE, addr
            yield self.barrier(barrier_id)
            barrier_id += 1

            # Transpose: this node gathers column slice `node` of every
            # row (remote reads; the slices of different nodes share
            # pages) and writes the transposed elements into its own
            # band (local writes).  Bands are visited starting at the
            # next neighbour to avoid an all-on-one hotspot.
            eb = self.element_bytes
            col_slice = rows_per_node  # columns per node == rows per node
            for band in range(params.nodes):
                src_band = (node + 1 + band) % params.nodes
                for row in range(
                    src_band * rows_per_node, (src_band + 1) * rows_per_node
                ):
                    read_base = row * row_bytes + node * col_slice * eb
                    for j in range(0, col_slice, step):
                        yield READ, src.address(read_base + j * eb)
                        dst_row = node * rows_per_node + j
                        yield WRITE, dst.address(dst_row * row_bytes + row * eb)
            yield self.barrier(barrier_id)
            barrier_id += 1

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` for ``fs_stream``'s ``gen_fft``."""
        nodes = ctx.params.nodes
        n, rows_per_node, row_bytes, step = self._layout(ctx)
        cols = -(-n // step)  # len(range(0, n, step))
        slice_cols = -(-rows_per_node // step)
        per_stage = rows_per_node * (2 * cols + 2 * nodes * slice_cols) + 2
        return stream_recipe(
            "fft",
            ctx.rng_seed(node),
            (ctx.segment("matrix_a"), ctx.segment("matrix_b")),
            (node, nodes, self.stages, n, rows_per_node, row_bytes, step, self.element_bytes),
            capacity=self.stages * per_stage,
            positive=(step,),
        )
