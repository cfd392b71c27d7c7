"""Deterministic random-number substreams.

Every stochastic component (random TLB replacement, injection-forwarding
target choice, workload generators) draws from its own named substream so
that changing one component's consumption never perturbs another — runs
are reproducible bit-for-bit given ``MachineParams.seed``.
"""

from __future__ import annotations

import functools
import hashlib
import random


@functools.lru_cache(maxsize=4096, typed=True)
def substream_seed(seed: int, *names) -> int:
    """Derive a stable 64-bit seed for a named substream.

    ``names`` may mix strings and ints (e.g. ``("tlb", node_id)``).
    The function is pure, and a grid derives the same seeds cell after
    cell (each bank member's, each workload node's), so results are
    memoized; ``typed=True`` keeps ``1`` and ``True``, whose ``repr``
    differ, apart.
    """
    digest = hashlib.sha256(repr((seed,) + tuple(names)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int, *names) -> random.Random:
    """Create an independent :class:`random.Random` for a substream."""
    return random.Random(substream_seed(seed, *names))
