"""The deep-equality oracle for differential runs.

These helpers define what "bit-identical" means for a compiled-vs-scalar
pair: the full :class:`~repro.runner.summary.RunSummary` serialization
(minus the engine tags, which legitimately differ) and a deep image of
the final machine — cache/AM sets *in LRU order*, directory entries,
TLB tags and per-TLB RNG states, the engine RNG, latency histograms,
the crossbar's port free times.  The scalar side reads the image off
its :class:`~repro.system.machine.Machine` (:func:`machine_state`);
a compiled run builds no machine, so its image comes from C
(``fs_image``) and :func:`decode_image` turns it into the same dict.
Anything the compiled engine gets wrong shows up as a diff here.

The integration suite (``tests/integration/test_timing_equivalence.py``)
imports these definitions; they live in the package so the fuzz CLI and
external tooling can use them without a test dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.params import MachineParams
from repro.coma.states import AMState
from repro.core.timing_kernels import N_HIST_BUCKETS, RNG_STATE_WORDS
from repro.runner.summary import RunSummary
from repro.system.refs import LOCK, READ, UNLOCK, WRITE
from repro.system.taps import TimingAgent
from repro.workloads import CustomWorkload, SegmentSpec


def summary_surface(result) -> dict:
    """Everything RunSummary serializes, minus the engine tags.
    ``result`` is a :class:`~repro.runner.summary.RunSummary` or a
    scalar :class:`~repro.system.results.RunResult`."""
    if not isinstance(result, RunSummary):
        result = RunSummary.from_result(result)
    payload = result.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def sets_image(structure) -> List[list]:
    """Tag/state sets as ordered item lists — dict equality ignores
    insertion order, but here order IS the LRU position."""
    return [list(s.items()) for s in structure._sets]


def _hist_image(hist) -> tuple:
    return dict(hist._buckets), hist.count, hist.total


def machine_state(machine) -> dict:
    """The final image of a scalar machine, LRU order included."""
    engine = machine.engine
    state = {
        "counters": dict(machine.merged_counters().to_dict()),
        "engine_rng": engine._rng.getstate(),
        "translation_accum": engine._translation_accum,
        "port_free_at": list(machine.crossbar._port_free_at),
        "nodes": [],
        "directories": [],
    }
    for node in machine.nodes:
        state["nodes"].append(
            {
                "flc": (sets_image(node.flc), node.flc.hits, node.flc.misses),
                "slc": (sets_image(node.slc), node.slc.hits, node.slc.misses),
                "read_hist": _hist_image(node.read_latency),
                "write_hist": _hist_image(node.write_latency),
            }
        )
    for n, am in enumerate(engine.ams):
        state["nodes"][n]["am"] = (sets_image(am), am.hits, am.misses)
    for directory in engine.directories:
        state["directories"].append(
            {
                "lookups": directory.lookups,
                "entries": {
                    block: (entry.owner, frozenset(entry.sharers))
                    for block, entry in directory._entries.items()
                },
            }
        )
    agent = machine.agent
    if isinstance(agent, TimingAgent):
        state["tlbs"] = [
            {
                "tags": [list(ways) for ways in agent.buffer(n)._tags],
                "accesses": agent.buffer(n).accesses,
                "misses": agent.buffer(n).misses,
                "rng": agent.buffer(n)._rng.getstate(),
            }
            for n in range(machine.params.nodes)
        ]
    return state


class _ImageReader:
    """Walks a compiled run's image (``HeadlessRun.image``) in its
    layout order.  ``value`` words are state and are recorded under the
    current ``path`` (a :func:`diff_paths` prefix); ``count`` words
    only shape the walk."""

    def __init__(self, words) -> None:
        self.words = words
        self.pos = 0
        self.path = "$"
        #: diff_paths prefix -> offsets of the value words it decodes.
        self.fields: Dict[str, List[int]] = {}

    def count(self) -> int:
        self.pos += 1
        return self.words[self.pos - 1]

    def value(self) -> int:
        self.fields.setdefault(self.path, []).append(self.pos)
        return self.count()

    def values(self, n: int) -> List[int]:
        return [self.value() for _ in range(n)]

    def rng(self) -> tuple:
        return (3, tuple(self.values(RNG_STATE_WORDS)), None)

    def sets(self, cast) -> tuple:
        sets = self.count()
        hits, misses = self.value(), self.value()
        image = []
        for _ in range(sets):
            image.append([(self.value(), cast(self.value())) for _ in range(self.count())])
        return image, hits, misses

    def hist(self) -> tuple:
        buckets = self.values(N_HIST_BUCKETS)
        count, total = self.value(), self.value()
        return {i: n for i, n in enumerate(buckets) if n}, count, total


def decode_image(words) -> Tuple[dict, Dict[str, List[int]]]:
    """``(state, fields)``: the :func:`machine_state` dict a compiled
    run's image decodes to (all but ``counters``, which the summary
    holds), and for each key's :func:`diff_paths` prefix the offsets of
    the value words it was decoded from."""
    read = _ImageReader(words)
    nodes, tlbs, page_bits, sharer_words = (read.count() for _ in range(4))
    state = {}
    for key, decode in (
        ("engine_rng", read.rng),
        ("translation_accum", read.value),
        ("port_free_at", lambda: read.values(nodes)),
    ):
        read.path = f"$[{key!r}]"
        state[key] = decode()
    state["nodes"] = [{} for _ in range(nodes)]
    for n, node in enumerate(state["nodes"]):
        for key, cast in (("flc", int), ("slc", int), ("am", AMState)):
            read.path = f"$['nodes'][{n}][{key!r}]"
            node[key] = read.sets(cast)
    read.path = "$['directories']"
    state["directories"] = [{"lookups": lookups, "entries": {}} for lookups in read.values(nodes)]
    for _ in range(read.count()):
        block, owner = read.value(), read.value()
        sharers = frozenset(
            64 * w + bit
            for w, word in enumerate(read.values(sharer_words))
            for bit in range(64)
            if word >> bit & 1
        )
        home = (block >> page_bits) & (nodes - 1)
        state["directories"][home]["entries"][block] = (
            None if owner == -1 else owner, sharers
        )
    if tlbs:
        state["tlbs"] = []
    for n in range(tlbs):
        read.path = f"$['tlbs'][{n}]"
        sets = read.count()
        accesses, misses = read.value(), read.value()
        tags = [read.values(read.count()) for _ in range(sets)]
        state["tlbs"].append(
            {"tags": tags, "accesses": accesses, "misses": misses, "rng": read.rng()}
        )
    for n, node in enumerate(state["nodes"]):
        for key in ("read_hist", "write_hist"):
            read.path = f"$['nodes'][{n}][{key!r}]"
            node[key] = read.hist()
    if read.pos != len(words):
        raise ValueError(f"image holds {len(words)} words, its layout {read.pos}")
    return state, read.fields


def compiled_run(params, scheme, workload, agent, tracer=None, **kwargs):
    """``(summary, state)`` of one compiled run: its
    :class:`~repro.runner.summary.RunSummary` and the
    :func:`machine_state` its decoded image and the summary's counters
    make.  ``kwargs`` are
    :class:`~repro.system.fast_simulator.HeadlessRun`'s ``contention``,
    ``max_refs_per_node`` and ``relaxed_writes``."""
    from repro.system.fast_simulator import HeadlessRun, run_fast

    run = HeadlessRun(params, scheme, workload, agent, tracer=tracer, **kwargs)
    summary = run_fast(run, image=True)
    state, _ = decode_image(run.image)
    state["counters"] = dict(summary.counters)
    return summary, state


def scalar_run(params, scheme, workload, agent, tracer=None, max_refs_per_node=None, **kwargs):
    """``(summary, state)`` of the same run on the scalar engine:
    ``kwargs`` are :class:`~repro.system.machine.Machine`'s
    ``contention`` and ``relaxed_writes``."""
    from repro.system.machine import Machine
    from repro.system.simulator import Simulator

    machine = Machine(params, scheme, workload, agent=agent, tracer=tracer, **kwargs)
    simulator = Simulator(machine, max_refs_per_node=max_refs_per_node)
    simulator.fallback_reason = "fast=False"
    return RunSummary.from_result(simulator.run()), machine_state(machine)


def diff_paths(expected, actual, path: str = "", limit: int = 8) -> List[str]:
    """Human-readable paths where two oracle images diverge (bounded)."""
    out: List[str] = []

    def walk(a, b, where):
        if len(out) >= limit:
            return
        if type(a) is not type(b):
            out.append(f"{where}: type {type(a).__name__} != {type(b).__name__}")
        elif isinstance(a, dict):
            for key in sorted(set(a) | set(b), key=repr):
                if key not in a or key not in b:
                    out.append(f"{where}[{key!r}]: present on one side only")
                else:
                    walk(a[key], b[key], f"{where}[{key!r}]")
        elif isinstance(a, (list, tuple)):
            if len(a) != len(b):
                out.append(f"{where}: length {len(a)} != {len(b)}")
            else:
                for i, (x, y) in enumerate(zip(a, b)):
                    walk(x, y, f"{where}[{i}]")
        elif a != b:
            out.append(f"{where}: {a!r} != {b!r}")

    walk(expected, actual, path or "$")
    return out


def literal_workload(
    params: MachineParams,
    streams: Sequence[Sequence[Tuple[int, int]]],
    pages: int = 32,
) -> CustomWorkload:
    """A workload over hand-built per-node streams (offsets into one
    ``data`` segment of ``pages`` pages; barrier ids pass through
    untranslated)."""

    def factory(node, ctx):
        base = ctx.segment("data").base
        for op, value in streams[node]:
            if op in (READ, WRITE, LOCK, UNLOCK):
                yield op, base + value
            else:
                yield op, value

    return CustomWorkload(
        [SegmentSpec("data", pages * params.page_size)], factory, name="literal"
    )


__all__ = [
    "compiled_run",
    "decode_image",
    "diff_paths",
    "literal_workload",
    "machine_state",
    "scalar_run",
    "sets_image",
    "summary_surface",
]
