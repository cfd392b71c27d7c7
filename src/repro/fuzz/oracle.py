"""The deep-equality oracle for differential runs.

These helpers define what "bit-identical" means for a compiled-vs-scalar
pair: the full :class:`~repro.runner.summary.RunSummary` serialization
(minus the engine tags, which legitimately differ) and a deep image of
the post-run machine — cache/AM sets *in LRU order*, directory entries,
TLB tags and per-TLB RNG states, the engine RNG, latency histograms,
the crossbar's port free times.
Anything the fast engine fails to copy back shows up as a diff here.

The integration suite (``tests/integration/test_timing_equivalence.py``)
imports these definitions; they live in the package so the fuzz CLI and
external tooling can use them without a test dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.params import MachineParams
from repro.core.schemes import Scheme
from repro.runner.summary import RunSummary
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.system.taps import TimingAgent
from repro.workloads import CustomWorkload, SegmentSpec


def summary_surface(result) -> dict:
    """Everything RunSummary serializes, minus the engine tags."""
    payload = RunSummary.from_result(result).to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def sets_image(structure) -> List[list]:
    """Tag/state sets as ordered item lists — dict equality ignores
    insertion order, but here order IS the LRU position."""
    return [list(s.items()) for s in structure._sets]


def machine_state(machine) -> dict:
    """The post-run machine image, deep enough to catch any state the
    fast engine failed to copy back (LRU order included)."""
    engine = machine.engine
    state = {
        "counters": dict(machine.merged_counters().to_dict()),
        "engine_rng": engine._rng.getstate(),
        "translation_accum": engine._translation_accum,
        "active_demand_block": engine.active_demand_block,
        "port_free_at": list(machine.crossbar._port_free_at),
        "nodes": [],
        "directories": [],
    }
    for node in machine.nodes:
        state["nodes"].append(
            {
                "flc": (sets_image(node.flc), node.flc.hits, node.flc.misses),
                "slc": (sets_image(node.slc), node.slc.hits, node.slc.misses),
                "read_hist": (
                    dict(node.read_latency._buckets),
                    node.read_latency.count,
                    node.read_latency.total,
                ),
                "write_hist": (
                    dict(node.write_latency._buckets),
                    node.write_latency.count,
                    node.write_latency.total,
                ),
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


SYNC_OPS: Tuple[int, ...] = (BARRIER, LOCK, UNLOCK)
DATA_OPS: Tuple[int, ...] = (READ, WRITE)


def literal_machine(
    params: MachineParams,
    scheme: Scheme,
    streams: Sequence[Sequence[Tuple[int, int]]],
    pages: int = 32,
    contention: bool = False,
    tracer=None,
) -> Machine:
    """A machine over hand-built per-node streams (offsets into one
    ``data`` segment; barrier ids pass through untranslated).
    ``contention`` turns on the crossbar's port-contention model;
    ``tracer`` attaches a :class:`~repro.obs.trace.Tracer`."""

    def factory(node, ctx):
        base = ctx.segment("data").base
        for op, value in streams[node]:
            if op in (READ, WRITE, LOCK, UNLOCK):
                yield op, base + value
            else:
                yield op, value

    workload = CustomWorkload(
        [SegmentSpec("data", pages * params.page_size)], factory, name="literal"
    )
    return Machine(params, scheme, workload, contention=contention, tracer=tracer)


__all__ = [
    "DATA_OPS",
    "SYNC_OPS",
    "diff_paths",
    "literal_machine",
    "machine_state",
    "sets_image",
    "summary_surface",
]
