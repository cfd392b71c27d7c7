"""CI gate: every paper workload's C stream twin must equal its generator.

Run as a script::

    PYTHONPATH=src python benchmarks/check_stream_equivalence.py

Compiled runs fill each node's ``(ops, values)`` columns from the
workload's C twin in ``fastsim.c``
(:func:`repro.core.timing_kernels.stream_columns`).  The Python
generators stay the specification, so for every case below the twin's
columns must equal ``materialize_stream(workload.node_stream(node,
ctx))`` byte for byte, and a twin may not decline on any of these valid
configurations.  The grid:

* the six registered workloads at the report intensities and at 1.0,
  0.05 and 3.0;
* nodes 1, 2, 3, 8 and 32 (machine scaled down 8x like the report
  machine), comparing nodes 0, 1, the middle one and the last;
* seeds 1998, 7 and 424242, and 512 B and 4 KB pages;
* RAYTRACE with the V1 and V2 stack padding, explicit ``stack_depth``
  / ``stack_groups``, and every workload with non-default constructor
  fields.

``MachineParams`` takes only power-of-two node counts; the 3-node
cases wrap a 4-node machine's parameters with ``nodes = 3``, which is
all the generators read of them besides sizes, so the twins' integer
division and remainder are checked at a node count that does not
divide evenly.

The check honours ``REPRO_NO_COMPILED``.  Without a compiled backend
there is no twin: every case must then decline, and the columns
``materialize_shared`` hands the engine must still be the generator's
(checked on a smaller grid), so the check degrades to the fallback
path and says so.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import MachineParams
from repro.analysis.report import DEFAULT_INTENSITY
from repro.common.address import AddressLayout
from repro.core.timing_kernels import (
    backend_status,
    get_backend,
    materialize_shared,
    materialize_stream,
    stream_columns,
)
from repro.system.machine import build_address_space
from repro.workloads import (
    BarnesWorkload,
    FFTWorkload,
    FMMWorkload,
    OceanWorkload,
    RadixWorkload,
    RaytraceWorkload,
    WORKLOADS,
)

NODE_COUNTS = (1, 2, 3, 8, 32)
SEEDS = (1998, 7, 424242)
PAGE_SIZES = (512, 4096)
INTENSITIES = ("report", 1.0, 0.05, 3.0)

#: Workloads with non-default fields, run at every node count, seed and
#: page size.
VARIANTS = (
    lambda: RaytraceWorkload.v2(intensity=DEFAULT_INTENSITY["raytrace"]),
    lambda: RaytraceWorkload.v2(stack_pad_pages=2, intensity=0.5),
    lambda: RaytraceWorkload(stack_depth=2, stack_groups=3, intensity=0.5),
    lambda: RaytraceWorkload(
        tasks_per_node=5, rays_per_task=3, reads_per_ray=7, scene_skew=1.0
    ),
    lambda: RadixWorkload(key_bytes=8, passes=3, radix_buckets=64, intensity=0.3),
    lambda: FFTWorkload(element_bytes=16, stages=3, intensity=0.3),
    lambda: FMMWorkload(
        iterations=1, interactions_per_particle=3, tree_descend=0.5, intensity=0.5
    ),
    lambda: OceanWorkload(element_bytes=4, sweeps=3, intensity=0.3),
    lambda: BarnesWorkload(
        timesteps=1, walk_reads_per_body=5, build_locks=3, tree_descend=0.9
    ),
)


class NodeCount:
    """A machine's parameters with another node count: what the
    generators see of a machine ``MachineParams`` cannot describe."""

    def __init__(self, params: MachineParams, nodes: int) -> None:
        self._params = params
        self.nodes = nodes

    def __getattr__(self, name):
        return getattr(self._params, name)


def machine(nodes: int, page_size: int, seed: int):
    size = nodes if nodes & (nodes - 1) == 0 else 1 << nodes.bit_length()
    params = MachineParams.scaled_down(factor=8, nodes=size, page_size=page_size, seed=seed)
    layout = AddressLayout.from_params(params)
    return (params if size == nodes else NodeCount(params, nodes)), layout


def compared_nodes(nodes: int):
    return sorted({0, min(1, nodes - 1), nodes // 2, nodes - 1})


def cases(grid):
    """``(label, workload factory)`` per case of the grid."""
    for name in WORKLOADS:
        for intensity in grid:
            value = DEFAULT_INTENSITY[name] if intensity == "report" else intensity
            yield f"{name}@{intensity}", (
                lambda name=name, value=value: WORKLOADS[name](intensity=value)
            )
    for i, factory in enumerate(VARIANTS):
        yield f"{type(factory()).__name__}#{i}", factory


def check(compiled: bool) -> int:
    grid = INTENSITIES if compiled else ("report",)
    seeds = SEEDS if compiled else SEEDS[:1]
    failures = []
    streams = events = 0
    python_s = c_s = 0.0
    for nodes in NODE_COUNTS:
        for page_size in PAGE_SIZES:
            for seed in seeds:
                params, layout = machine(nodes, page_size, seed)
                for label, factory in cases(grid):
                    workload = factory()
                    _, ctx = build_address_space(params, layout, workload)
                    for node in compared_nodes(nodes):
                        where = f"{label} nodes={nodes} page={page_size} seed={seed} node={node}"
                        started = time.perf_counter()
                        want = materialize_stream(workload.node_stream(node, ctx))
                        python_s += time.perf_counter() - started
                        started = time.perf_counter()
                        got = stream_columns(workload, node, ctx)
                        c_s += time.perf_counter() - started
                        streams += 1
                        events += len(want[0])
                        if not compiled:
                            if got is not None:
                                failures.append(f"{where}: columns without a backend")
                            got = materialize_shared(
                                None, node,
                                lambda: workload.node_stream(node, ctx),
                                lambda: stream_columns(workload, node, ctx),
                            )
                        if got is None:
                            failures.append(f"{where}: the C twin declined")
                        elif got[0] != want[0] or got[1] != want[1]:
                            failures.append(f"{where}: {first_difference(want, got)}")
    print(f"{streams} streams, {events} events: Python {python_s:.2f} s, "
          f"{'C' if compiled else 'fallback'} {c_s:.3f} s")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    if failures:
        print(f"{len(failures)} of {streams} streams differ")
        return 1
    print("stream equivalence: OK")
    return 0


def first_difference(want, got) -> str:
    for i, pair in enumerate(zip(zip(*want), zip(*got))):
        if pair[0] != pair[1]:
            return f"event {i}: generator {pair[0]}, C {pair[1]}"
    return f"lengths {len(want[0])} (generator) vs {len(got[0])} (C)"


def main() -> int:
    compiled = get_backend() is not None
    if not compiled:
        print(f"compiled backend unavailable ({backend_status()}): checking that "
              f"every twin declines and the generator's columns are used instead")
    return check(compiled)


if __name__ == "__main__":
    raise SystemExit(main())
