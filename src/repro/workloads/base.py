"""Workload framework: segment declarations + per-node streams.

A :class:`Workload` declares the virtual segments it needs
(:meth:`Workload.segment_specs`) and generates one reference stream per
node (:meth:`Workload.node_stream`).  The machine allocates the segments
in a :class:`~repro.vm.segments.SegmentedAddressSpace`, preloads every
page, and hands each node's stream to the simulator.

Streams are deterministic functions of ``(machine seed, workload name,
node)``; re-running a configuration reproduces it bit-for-bit.

The six paper workloads also describe their streams as numbers
(:meth:`Workload.stream_recipe`), which ``fastsim.c`` expands into the
same columns in C.  The Python generators are the specification: a C
twin must reproduce its generator byte for byte, and declines (returns
no recipe) wherever it cannot.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.address import AddressLayout
from repro.common.params import MachineParams
from repro.common.rng import substream_seed
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK
from repro.vm.segments import Segment, SegmentKind

#: One reference-stream event: ``(op, value)``.
Event = Tuple[int, int]


@dataclass(frozen=True)
class SegmentSpec:
    """A segment request, resolved into a real Segment by the machine."""

    name: str
    size: int
    kind: SegmentKind = SegmentKind.SHARED
    owner: Optional[int] = None
    alignment: Optional[int] = None
    offset: int = 0


class WorkloadContext:
    """Everything a stream generator needs at run time."""

    def __init__(
        self,
        params: MachineParams,
        layout: AddressLayout,
        segments: Dict[str, Segment],
        seed: int,
        workload_name: str,
    ) -> None:
        self.params = params
        self.layout = layout
        self.segments = segments
        self.seed = seed
        self.workload_name = workload_name

    def segment(self, name: str) -> Segment:
        return self.segments[name]

    def rng_seed(self, node: int, tag: str = "stream") -> int:
        """The seed of :meth:`rng` (C twins seed MT19937 from it)."""
        return substream_seed(self.seed, "workload", self.workload_name, tag, node)

    def rng(self, node: int, tag: str = "stream") -> random.Random:
        """A deterministic per-node, per-purpose random stream."""
        return random.Random(self.rng_seed(node, tag))


#: Bound on every integer a stream recipe hands to C: counts, strides,
#: offsets, segment sizes and the event capacity.  Each offset a C twin
#: computes is a sum of at most four products of two such values, so
#: int64 arithmetic cannot overflow, and every ``randrange`` argument
#: stays below 2**32.
RECIPE_INT_LIMIT = 1 << 30

#: Largest zipf skew a C twin takes: ``u ** skew`` stays a normal double
#: for every nonzero ``u = random()`` (>= 2**-53), so libm's ``pow``
#: sets no ``errno`` that CPython's ``float ** float`` would raise on.
RECIPE_MAX_SKEW = 16.0


@dataclass(frozen=True)
class StreamRecipe:
    """One node's stream as numbers, for its C twin in ``fastsim.c``.

    ``kind`` names the generator; ``ints`` and ``reals`` are its
    parameters in the order the C twin reads them; ``segments`` are
    the segments it addresses (base and size each, every access
    bounds-checked like :meth:`Segment.address`); ``seed`` seeds the
    MT19937 stream :meth:`WorkloadContext.rng` would return; and
    ``capacity`` bounds the event count from above.
    """

    kind: str
    seed: int
    segments: Tuple[Segment, ...]
    ints: Tuple[int, ...]
    reals: Tuple[float, ...]
    capacity: int


def stream_recipe(
    kind: str,
    seed: int,
    segments,
    ints,
    reals=(),
    capacity: int = 0,
    positive=(),
) -> Optional[StreamRecipe]:
    """A :class:`StreamRecipe`, or None where the C twin declines.

    It declines when an integer is not a plain int in
    ``[0, RECIPE_INT_LIMIT)``, a divisor or count in ``positive`` is
    below 1, a segment is that large or a real is not a finite int or
    float.  The Python generator then runs instead, raising whatever
    it raises.
    """
    segments = tuple(segments)
    ints = tuple(ints)
    values = ints + tuple(positive) + (capacity,) + tuple(s.size for s in segments)
    if any(type(v) is not int or not 0 <= v < RECIPE_INT_LIMIT for v in values):
        return None
    if any(v < 1 for v in positive):
        return None
    if any(type(s.base) is not int or s.base >= 1 << 62 for s in segments):
        return None
    if any(type(r) not in (int, float) for r in reals):
        return None
    reals = tuple(float(r) for r in reals)
    if not all(math.isfinite(r) for r in reals):
        return None
    return StreamRecipe(kind, seed, segments, ints, reals, capacity)


class Workload(abc.ABC):
    """Base class for reference-stream generators.

    Concrete workloads set :attr:`name`, declare segments, and yield
    events.  ``think_cycles`` is the busy time charged per memory
    reference (instructions between shared accesses).
    """

    name: str = "workload"
    think_cycles: int = 4

    @abc.abstractmethod
    def segment_specs(self, params: MachineParams) -> List[SegmentSpec]:
        """Segments to allocate before the run."""

    @abc.abstractmethod
    def node_stream(self, node: int, ctx: WorkloadContext) -> Iterator[Event]:
        """The node's reference stream (must be regenerable)."""

    def stream_recipe(self, node: int, ctx: WorkloadContext) -> Optional[StreamRecipe]:
        """:meth:`node_stream` as a recipe for its C twin, or None.

        Only the six registered paper workloads have twins, and only
        their exact classes use them: a subclass inherits the recipe
        but may override the generator.
        """
        return None

    # ------------------------------------------------------------------
    # shared stream-building helpers
    # ------------------------------------------------------------------
    @staticmethod
    def sequential_sweep(
        segment: Segment,
        start: int,
        length: int,
        stride: int,
        op: int = READ,
    ) -> Iterator[Event]:
        """Walk ``length`` elements of ``stride`` bytes from ``start``
        (segment offset), wrapping inside the segment."""
        size = segment.size
        offset = start % size
        for _ in range(length):
            yield op, segment.base + offset
            offset = (offset + stride) % size

    @staticmethod
    def random_accesses(
        segment: Segment,
        count: int,
        rng: random.Random,
        op: int = READ,
        granularity: int = 8,
    ) -> Iterator[Event]:
        """Uniform random touches at ``granularity``-byte alignment."""
        slots = segment.size // granularity
        for _ in range(count):
            yield op, segment.base + rng.randrange(slots) * granularity

    @staticmethod
    def zipf_accesses(
        segment: Segment,
        count: int,
        rng: random.Random,
        op: int = READ,
        granularity: int = 64,
        skew: float = 3.0,
        cluster_bytes: Optional[int] = None,
    ) -> Iterator[Event]:
        """Skewed touches — hot head, long tail (tree/scene traversal
        locality).  ``slot = slots * u^skew`` with uniform ``u``: larger
        ``skew`` concentrates accesses on a hot subset; ``skew=1`` is
        uniform.

        ``cluster_bytes`` scatters the hot subset over the whole segment
        in clusters of that many bytes (typically one page), the way
        heap-allocated structures really land on many different pages —
        page-level skew is preserved, but the hot pages are *not* the
        contiguous low pages (which would be unrealistically kind to
        direct-mapped TLBs).
        """
        slots = max(1, segment.size // granularity)
        per_cluster = 1
        clusters = slots
        if cluster_bytes is not None:
            per_cluster = max(1, cluster_bytes // granularity)
            clusters = max(1, slots // per_cluster)
        for _ in range(count):
            slot = int(slots * (rng.random() ** skew))
            if slot >= slots:
                slot = slots - 1
            if cluster_bytes is not None:
                cluster, within = divmod(slot, per_cluster)
                # Knuth multiplicative scatter of the cluster index.
                cluster = (cluster * 2654435761 + 40503) % clusters
                slot = cluster * per_cluster + within
            yield op, segment.base + slot * granularity

    @staticmethod
    def tree_walk_accesses(
        segment: Segment,
        count: int,
        rng: random.Random,
        op: int = READ,
        granularity: int = 64,
        descend: float = 0.7,
        cluster_bytes: Optional[int] = None,
    ) -> Iterator[Event]:
        """Touches distributed like tree-traversal steps.

        Levels follow a geometric distribution (every walk passes the
        root; deeper cells are exponentially colder): level ``l`` has
        probability ``(1-descend)*descend^l``.  Cells are laid out
        heap-style (level ``l`` occupies slots ``2^l-1 .. 2^(l+1)-2``)
        and optionally scattered in ``cluster_bytes`` units so deep
        cells land on many distinct pages.  This is what makes a tiny
        TLB serviceable for FMM/BARNES byte-wise (the upper levels are a
        couple of hot pages) while large level-crossing strides defeat
        it — the paper's FMM signature.
        """
        slots = max(1, segment.size // granularity)
        depth = max(1, slots.bit_length() - 1)
        per_cluster = 1
        clusters = slots
        if cluster_bytes is not None:
            per_cluster = max(1, cluster_bytes // granularity)
            clusters = max(1, slots // per_cluster)
        for _ in range(count):
            level = 0
            while level < depth - 1 and rng.random() < descend:
                level += 1
            first = (1 << level) - 1
            width = min(1 << level, slots - first)
            slot = first + (rng.randrange(width) if width > 1 else 0)
            if cluster_bytes is not None:
                cluster, within = divmod(slot, per_cluster)
                cluster = (cluster * 2654435761 + 40503) % clusters
                slot = cluster * per_cluster + within
            yield op, segment.base + (slot % slots) * granularity

    @staticmethod
    def barrier(barrier_id: int) -> Event:
        return BARRIER, barrier_id

    @staticmethod
    def lock(addr: int) -> Event:
        return LOCK, addr

    @staticmethod
    def unlock(addr: int) -> Event:
        return UNLOCK, addr

    # ------------------------------------------------------------------
    def scaled(self, params: MachineParams, fraction: float) -> int:
        """Bytes amounting to ``fraction`` of total AM capacity — the
        standard way workloads size their data to the machine (the
        paper's data sets fit in the combined attraction memory)."""
        return max(params.page_size, int(params.am_size * params.nodes * fraction))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def interleave(streams: Iterable[Iterator[Event]]) -> Iterator[Event]:
    """Round-robin merge of several event streams (phases that overlap
    work on several structures)."""
    active = [iter(s) for s in streams]
    while active:
        still = []
        for stream in active:
            item = next(stream, None)
            if item is not None:
                yield item
                still.append(stream)
        active = still
