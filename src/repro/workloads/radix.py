"""RADIX-like workload (paper Table 1: ``-n524288 -r2048 -m1048576``).

The SPLASH-2 radix sort alternates local histogramming over the node's
own keys with a *permutation* phase in which every key is written to a
rank-determined position of a large output array shared and distributed
over all nodes.  Two properties drive the paper's RADIX results:

* the permutation writes are essentially random over the whole output
  array — they are not filtered by caches or attraction memory, so the
  TLB-miss curves of every per-node scheme stay high ("no clear
  significant working set… until the size reaches 512");
* each output page is written by *many* nodes during one pass, so the
  home DLB loads its translation once for everyone (sharing +
  prefetching effects): "the number of DLB misses in RADIX is
  consistently less than the number of TLB misses in an L3-TLB system
  with 32 times more TLB".

The generator reproduces exactly that structure: sequential reads of the
node's key partition, random writes into the shared output array,
histogram updates, with barriers between passes.
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


class RadixWorkload(Workload):
    """Permutation-heavy integer sort."""

    name = "radix"
    think_cycles = 3  # integer code, very memory-intensive

    def __init__(
        self,
        key_bytes: int = 16,
        array_fraction: float = 0.15,
        passes: int = 2,
        radix_buckets: int = 2048,
        intensity: float = 1.0,
    ) -> None:
        if passes <= 0:
            raise ValueError("passes must be positive")
        if radix_buckets <= 0:
            raise ValueError("radix_buckets must be positive")
        self.key_bytes = key_bytes
        self.array_fraction = array_fraction
        self.passes = passes
        self.radix_buckets = radix_buckets
        self.intensity = intensity

    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        array_bytes = self.scaled(params, self.array_fraction)
        histogram_bytes = max(params.page_size, array_bytes // 64)
        return [
            SegmentSpec("keys_in", array_bytes),
            SegmentSpec("keys_out", array_bytes),
            SegmentSpec("histogram", histogram_bytes),
        ]

    def keys_per_node(self, ctx: WorkloadContext) -> int:
        total_keys = ctx.segment("keys_in").size // self.key_bytes
        per_node = total_keys // ctx.params.nodes
        return max(16, int(per_node * self.intensity))

    def _buckets(self, ctx: WorkloadContext):
        """``(total_slots, buckets, bucket_slots, sub_slots)`` of the
        output array.

        Rank-based permutation layout (as in SPLASH-2 radix): the
        output array is divided into `radix_buckets` dense bucket
        regions; inside a bucket, each node owns an adjacent
        sub-region (its prefix-summed rank range).  Sub-regions of
        different nodes share pages, which is precisely what feeds the
        DLB's sharing/prefetching effects.
        """
        nodes = ctx.params.nodes
        total_slots = ctx.segment("keys_out").size // self.key_bytes
        buckets = min(self.radix_buckets, max(1, total_slots // nodes))
        bucket_slots = total_slots // buckets
        return total_slots, buckets, bucket_slots, max(1, bucket_slots // nodes)

    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        params = ctx.params
        keys_in = ctx.segment("keys_in")
        keys_out = ctx.segment("keys_out")
        histogram = ctx.segment("histogram")
        rng = ctx.rng(node)
        keys = self.keys_per_node(ctx)
        partition = keys_in.size // params.nodes
        my_base = node * partition
        hist_slots = histogram.size // 8
        barrier_id = 0

        total_slots, buckets, bucket_slots, sub_slots = self._buckets(ctx)

        for _ in range(self.passes):
            # Phase 1: local histogram of own keys (reads own partition,
            # writes shared histogram counters).
            offset = my_base
            for i in range(keys):
                yield READ, keys_in.address(offset)
                offset = my_base + (offset - my_base + self.key_bytes) % partition
                if i % 2 == 0:
                    yield WRITE, histogram.address(rng.randrange(hist_slots) * 8)
            yield self.barrier(barrier_id)
            barrier_id += 1

            # Phase 2: permutation.  After the local sort, every node
            # writes its keys bucket by bucket in the same global
            # order, each into its own (prefix-summed) sub-region.  From
            # one node's view each output page is visited once per pass
            # and never reused — so per-node TLB misses stay flat until
            # the TLB holds the whole array ("no clear significant
            # working set… until the size reaches 512").  From a home
            # node's view, all nodes write around the same sweep front,
            # so the DLB's active set is a handful of pages: the paper's
            # sharing + prefetching effects.
            offset = my_base
            base_quota, remainder = divmod(keys, buckets)
            for bucket in range(buckets):
                quota = base_quota + (1 if bucket < remainder else 0)
                for rank in range(quota):
                    yield READ, keys_in.address(offset)
                    offset = my_base + (offset - my_base + self.key_bytes) % partition
                    slot = (
                        bucket * bucket_slots
                        + node * sub_slots
                        + rank % sub_slots
                    )
                    yield WRITE, keys_out.address((slot % total_slots) * self.key_bytes)
            yield self.barrier(barrier_id)
            barrier_id += 1

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` for ``fs_stream``'s ``gen_radix``."""
        keys_in = ctx.segment("keys_in")
        histogram = ctx.segment("histogram")
        keys = self.keys_per_node(ctx)
        partition = keys_in.size // ctx.params.nodes
        total_slots, buckets, bucket_slots, sub_slots = self._buckets(ctx)
        hist_slots = histogram.size // 8
        return stream_recipe(
            "radix",
            ctx.rng_seed(node),
            (keys_in, ctx.segment("keys_out"), histogram),
            (
                node, self.passes, keys, self.key_bytes, partition, node * partition,
                hist_slots, buckets, bucket_slots, sub_slots, total_slots,
            ),
            capacity=self.passes * (3 * keys + (keys + 1) // 2 + 2),
            positive=(partition, self.key_bytes, hist_slots, buckets, total_slots),
        )
