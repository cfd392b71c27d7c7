"""Hypothesis strategies generating differential fuzz cases.

Cases are deliberately tiny (factor-64 machines, 2-4 nodes, truncated
reference streams) so a 200-example CI budget finishes in seconds while
still sweeping the axes that have historically hidden divergence:
scheme x TLB organization x geometry x port contention, and the
synchronization patterns the compiled engine hands back to Python sync
policy — imbalanced barriers, lock convoys, nodes truncated inside
critical sections.

Generated synchronization is *valid by construction* (the oracle run
must not deadlock, or the comparison proves nothing):

* every node observes barrier ids in ascending order, truncation only
  ever drops a suffix (a finished node satisfies all later barriers);
* lock/unlock pairs never span a barrier, so a lock holder always
  makes progress to its unlock (``max_refs`` truncation mid-section is
  allowed — process exit releases held locks identically on both
  engines).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.schemes import SCHEME_ORDER
from repro.fuzz.harness import FuzzCase
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE

#: Named workloads cheap enough for per-case double (fast+scalar) runs.
NAMED_WORKLOADS = ("radix", "raytrace", "fft")

#: Every generated offset is a multiple of this (word granularity keeps
#: streams hitting shared cache blocks often enough to exercise the
#: coherence protocol instead of sliding past it).
SLOT_BYTES = 64


@st.composite
def _data_refs(draw, slots: int, max_len: int):
    """A burst of plain READ/WRITE references over ``slots`` offsets."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from([READ, WRITE]),
                st.integers(0, slots - 1).map(lambda s: s * SLOT_BYTES),
            ),
            max_size=max_len,
        )
    )


@st.composite
def _segment(draw, slots: int, lock_words):
    """One barrier-free stream segment: data bursts, optionally with
    non-nested critical sections over the shared lock words."""
    stream = list(draw(_data_refs(slots, 12)))
    if lock_words:
        for _ in range(draw(st.integers(0, 2))):
            word = draw(st.sampled_from(lock_words))
            stream.append((LOCK, word))
            stream.extend(draw(_data_refs(slots, 4)))
            stream.append((UNLOCK, word))
        stream.extend(draw(_data_refs(slots, 4)))
    return stream


@st.composite
def _literal_workload(draw, nodes: int):
    pages = draw(st.sampled_from([16, 32]))
    slots = pages * 4  # offsets stay well inside the data segment
    n_barriers = draw(st.integers(0, 3))
    lock_words = [
        slot * SLOT_BYTES
        for slot in draw(
            st.lists(st.integers(0, slots - 1), max_size=2, unique=True)
        )
    ]
    streams = []
    for _ in range(nodes):
        # Barriers passed before this node's stream ends: truncating to
        # a prefix is always deadlock-free.
        passed = draw(st.integers(0, n_barriers))
        stream = []
        for barrier in range(passed + 1):
            stream.extend(draw(_segment(slots, lock_words)))
            if barrier < passed:
                stream.append((BARRIER, barrier))
        streams.append(stream)
    return {
        "kind": "literal",
        "pages": pages,
        "streams": [[list(ref) for ref in stream] for stream in streams],
    }


@st.composite
def _named_workload(draw):
    return {
        "kind": "named",
        "name": draw(st.sampled_from(NAMED_WORKLOADS)),
        "intensity": round(draw(st.floats(0.1, 0.6)), 2),
    }


@st.composite
def fuzz_cases(draw):
    """A complete differential case: machine geometry, scheme, TLB
    shape, workload, optional per-node truncation, and the crossbar's
    port-contention mode."""
    nodes = draw(st.sampled_from([2, 4]))  # node counts: powers of two
    named = draw(st.booleans())
    if named:
        workload = draw(_named_workload())
        # Named streams are long: always truncate to bound runtime.
        max_refs = draw(st.integers(50, 400))
    else:
        workload = draw(_literal_workload(nodes))
        max_refs = draw(st.one_of(st.none(), st.integers(5, 60)))
    return FuzzCase(
        factor=draw(st.sampled_from([32, 64])),
        nodes=nodes,
        page_size=256,
        scheme=draw(st.sampled_from([s.value for s in SCHEME_ORDER])),
        entries=draw(st.sampled_from([4, 8])),
        # "sa" needs an explicit assoc TimingAgent doesn't plumb through.
        organization=draw(st.sampled_from(["fa", "dm"])),
        workload=workload,
        max_refs_per_node=max_refs,
        contention=draw(st.booleans()),
    )


__all__ = ["NAMED_WORKLOADS", "SLOT_BYTES", "fuzz_cases"]
