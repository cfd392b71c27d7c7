"""The compiled timing fast path must be bit-identical to the scalar oracle.

The tentpole contract of the columnar engine (``repro.core.timing_kernels``
+ ``repro.system.fast_simulator``): after a fast run, *everything* — the
RunSummary surface (total time, per-node breakdowns, counters, TLB/DLB
statistics, latency histograms) and the machine object itself (cache/AM
images in LRU order, directory entries, TLB contents, Mersenne Twister
states, the translation accumulator) — matches a run driven by the
scalar engine, which is retained purely as the differential-testing
oracle.  Sync-heavy workloads are the hard part (barriers, lock
contention, truncation mid-critical-section hand control back to Python
sync policy), so RAYTRACE's lock-heavy streams and hand-built
barrier-imbalanced streams are first-class cases here.

Traced runs are held to the same contract one level further out: the
compiled engine writes the tracer's packed records itself, and the
JSONL bytes (file-backed tracers) or ring records and drop counts
(memory-only tracers) must equal the scalar run's.

The matrix also covers the degraded environments: the columnar
materialization without numpy (``REPRO_NO_NUMPY``) and the full
scalar fallback with the compiled backend disabled (``REPRO_NO_COMPILED``)
must produce the same numbers again.
"""

import pytest

from repro import MachineParams, Scheme, Simulator, make_workload
from repro.analysis import run_timing
from repro.common.errors import ReproError
from repro.core.schemes import SCHEME_ORDER
from repro.core.timing_kernels import NO_COMPILED_ENV, NO_NUMPY_ENV, get_backend, get_numpy
from repro.core.tlb import Organization
from repro.fuzz.oracle import literal_machine, machine_state, summary_surface
from repro.obs import Tracer
from repro.runner.summary import RunSummary
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.workloads.raytrace import RaytraceWorkload

pytestmark = pytest.mark.skipif(
    get_backend() is None, reason="compiled timing backend unavailable"
)


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


#: Ring capacity small enough that every traced case below drops records.
SMALL_RING = 64

#: Node 0 is cut off by max_refs_per_node=60 inside its critical
#: section; node 3 never reaches the barrier.
TRUNCATED_LOCK_STREAMS = [
    [(WRITE, i * 32) for i in range(40)] + [(BARRIER, 0), (LOCK, 0)]
    + [(WRITE, i * 64) for i in range(40)] + [(UNLOCK, 0)],
    [(READ, 0), (BARRIER, 0), (LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
    [(BARRIER, 0), (LOCK, 0), (READ, 128), (UNLOCK, 0)],
    [(WRITE, 512)],
]


def traced_pair(run, sink, tmp_path):
    """``run(tracer, fast)`` on both engines, each with a fresh tracer
    of kind ``sink``; returns ``(fast, scalar)`` as (result, trace)
    pairs, the trace being the JSONL bytes or the ring's decoded
    records and drop count."""
    outputs = []
    for fast in (True, False):
        path = tmp_path / f"{'fast' if fast else 'scalar'}.jsonl"
        tracer = Tracer(str(path)) if sink == "file" else Tracer(buffer_size=SMALL_RING)
        with tracer:
            result = run(tracer, fast)
        if sink == "file":
            trace = path.read_bytes()
        else:
            trace = (list(tracer.records), tracer.dropped)
        outputs.append((result, trace))
    (fast, fast_trace), (scalar, scalar_trace) = outputs
    assert fast.backend == "compiled" and fast.fallback_reason is None
    assert scalar.backend == "scalar"
    if sink == "ring":
        assert fast_trace[1] > 0  # the ring really overflowed
    return outputs


def paired_run(params, scheme, **kwargs):
    """One fast and one scalar run of the same spec; asserts the
    engines actually differed and returns both results."""
    make = kwargs.pop("workload_factory")
    fast = run_timing(params, scheme, make(), **kwargs)
    scalar = run_timing(params, scheme, make(), fast=False, **kwargs)
    assert fast.backend == "compiled" and fast.fallback_reason is None
    assert scalar.backend == "scalar" and scalar.fallback_reason == "fast=False"
    return fast, scalar


@pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=[s.value for s in SCHEME_ORDER])
class TestAllSchemes:
    def test_raytrace_locks_bit_identical(self, params, scheme):
        """RAYTRACE's task-queue locks: the sync path Python still owns."""
        fast, scalar = paired_run(
            params,
            scheme,
            workload_factory=lambda: make_workload("raytrace", intensity=0.5),
            entries=8,
        )
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_direct_mapped_with_truncation(self, params, scheme):
        """DM structures plus max_refs truncation (epoch edge cases)."""
        fast, scalar = paired_run(
            params,
            scheme,
            workload_factory=lambda: make_workload("radix", intensity=0.3),
            entries=8,
            organization=Organization.DIRECT_MAPPED,
            max_refs_per_node=300,
        )
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    @pytest.mark.parametrize("variant", [None, "v2"], ids=["base", "v2"])
    def test_raytrace_contention_bit_identical(self, params, scheme, variant):
        """Figure 10's padding bars: every remote transfer queues at
        its destination's input port, lock hand-offs included."""
        make = RaytraceWorkload.v2 if variant else RaytraceWorkload
        fast, scalar = paired_run(
            params,
            scheme,
            workload_factory=lambda: make(intensity=0.5),
            entries=8,
            contention=True,
        )
        assert fast.machine.crossbar.counters["contention_cycles"] > 0
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_contention_sync_streams_truncated_in_critical_section(self, params, scheme):
        """Barrier-imbalanced streams under port contention; max_refs
        cuts node 0 off inside its critical section."""
        def run(fast):
            machine = literal_machine(
                params, scheme, TRUNCATED_LOCK_STREAMS, contention=True
            )
            return Simulator(machine, max_refs_per_node=60, fast=fast).run()

        fast, scalar = run(True), run(False)
        assert fast.backend == "compiled"
        assert fast.refs_per_node[0] == 60
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    @pytest.mark.parametrize("contention", [False, True], ids=["latency", "contention"])
    @pytest.mark.parametrize("sink", ["file", "ring"])
    def test_traced_raytrace_bit_identical(self, params, scheme, sink, contention, tmp_path):
        """The compiled engine's packed records: lock hand-offs, TLB/DLB
        events, injections and (optionally) port contention, streamed
        to JSONL or kept in an overflowing ring."""

        def run(tracer, fast):
            return run_timing(
                params, scheme, make_workload("raytrace", intensity=0.5), 8,
                contention=contention, tracer=tracer,
                fast=fast,
            )

        (fast, fast_trace), (scalar, scalar_trace) = traced_pair(run, sink, tmp_path)
        assert fast_trace == scalar_trace
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    @pytest.mark.parametrize("sink", ["file", "ring"])
    def test_traced_sync_streams_truncated_in_critical_section(
        self, params, scheme, sink, tmp_path
    ):
        """sim.barrier / sim.lock records interleave with the drained C
        records exactly where the scalar run writes them."""

        def run(tracer, fast):
            machine = literal_machine(
                params, scheme, TRUNCATED_LOCK_STREAMS, contention=True, tracer=tracer
            )
            return Simulator(machine, max_refs_per_node=60, fast=fast).run()

        (fast, fast_trace), (scalar, scalar_trace) = traced_pair(run, sink, tmp_path)
        assert fast.refs_per_node[0] == 60
        assert fast_trace == scalar_trace
        assert machine_state(fast.machine) == machine_state(scalar.machine)


class TestContentionPortState:
    def test_preseeded_ports_load_and_export(self, params):
        """Ports already busy before the run: C must start from the
        machine's free times and hand the final ones back."""
        busy = [600, 0, 2500, 1200]

        def run(fast, ports):
            machine = Machine(
                params, Scheme.V_COMA, make_workload("raytrace", intensity=0.5),
                contention=True,
            )
            machine.crossbar._port_free_at = list(ports)
            return Simulator(machine, max_refs_per_node=200, fast=fast).run()

        fast, scalar = run(True, busy), run(False, busy)
        assert fast.backend == "compiled"
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)
        # The seeded free times changed the run, so they were loaded.
        idle = run(True, [0] * 4)
        assert summary_surface(idle) != summary_surface(fast)


class TestSyncHeavy:
    def test_barrier_imbalanced_streams(self, params):
        """One node races ahead; two idle at barriers; one finishes
        early (a finished node must satisfy every later barrier)."""
        streams = [
            [(WRITE, i * 32) for i in range(200)] + [(BARRIER, 0)]
            + [(READ, i * 64) for i in range(100)] + [(BARRIER, 1)],
            [(READ, 0), (BARRIER, 0), (READ, 256), (BARRIER, 1)],
            [(BARRIER, 0), (BARRIER, 1)],
            [(WRITE, 512)],  # never reaches either barrier
        ]
        fast = Simulator(literal_machine(params, Scheme.V_COMA, streams)).run()
        scalar = Simulator(
            literal_machine(params, Scheme.V_COMA, streams), fast=False
        ).run()
        assert fast.backend == "compiled"
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_lock_convoy(self, params):
        """All nodes contend for one lock word; FIFO handoff order and
        sync charging must coincide across engines."""
        streams = [
            [(LOCK, 0), (WRITE, 64), (WRITE, 128), (UNLOCK, 0)] * 5
            for _ in range(4)
        ]
        fast = Simulator(literal_machine(params, Scheme.V_COMA, streams)).run()
        scalar = Simulator(
            literal_machine(params, Scheme.V_COMA, streams), fast=False
        ).run()
        assert summary_surface(fast) == summary_surface(scalar)

    def test_truncation_inside_critical_section(self, params):
        """max_refs cuts node 0 off while it holds the lock; the finish
        path must hand the lock to the queued waiter identically."""
        streams = [
            [(LOCK, 0)] + [(WRITE, i * 64) for i in range(50)] + [(UNLOCK, 0)],
            [(LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
            [],
            [],
        ]
        fast = Simulator(
            literal_machine(params, Scheme.V_COMA, streams), max_refs_per_node=10
        ).run()
        scalar = Simulator(
            literal_machine(params, Scheme.V_COMA, streams), max_refs_per_node=10, fast=False
        ).run()
        assert fast.refs_per_node[0] == 10
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)


class TestTracedEngineError:
    def test_engine_error_leaves_the_same_truncated_spans(self, params):
        """A store to an unmapped page fails mid-reference on both
        engines; the spans the compiled engine left open are handed to
        the tracer, so close() truncates the same records."""
        streams = [[(WRITE, 0), (READ, 64), (WRITE, 40 * 256)], [], [], []]
        rings = []
        for fast in (True, False):
            tracer = Tracer()
            machine = literal_machine(params, Scheme.L2_TLB, streams, tracer=tracer)
            with pytest.raises((ReproError, KeyError)):
                Simulator(machine, fast=fast).run()
            tracer.close()
            rings.append(list(tracer.records))
        assert rings[0] == rings[1]
        assert [r["name"] for r in rings[0] if r.get("truncated")] == ["ref", "run"]


class TestBackendMatrix:
    @pytest.fixture(scope="class")
    def scalar_reference(self, params):
        return run_timing(
            params, Scheme.V_COMA,
            make_workload("raytrace", intensity=0.5), 8, fast=False,
        )

    @pytest.mark.skipif(get_numpy() is None, reason="numpy unavailable")
    def test_no_numpy_materialization(self, params, scalar_reference, monkeypatch):
        """array.array columns feed the engine identically to numpy's."""
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        fast = run_timing(
            params, Scheme.V_COMA,
            make_workload("raytrace", intensity=0.5), 8,
        )
        assert fast.backend == "compiled"
        assert summary_surface(fast) == summary_surface(scalar_reference)

    def test_no_compiled_falls_back_scalar(self, params, scalar_reference, monkeypatch):
        """REPRO_NO_COMPILED disables the backend; results don't change."""
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        result = run_timing(
            params, Scheme.V_COMA,
            make_workload("raytrace", intensity=0.5), 8,
        )
        assert result.backend == "scalar"
        assert "compiled backend unavailable" in result.fallback_reason
        assert summary_surface(result) == summary_surface(scalar_reference)

    def test_no_fast_timing_env(self, params, monkeypatch):
        """The CLI escape hatch forces the oracle."""
        monkeypatch.setenv("REPRO_NO_FAST_TIMING", "1")
        result = run_timing(
            params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
        )
        assert result.backend == "scalar"
        assert "REPRO_NO_FAST_TIMING" in result.fallback_reason


class TestBackendReporting:
    def test_summary_carries_backend(self, params):
        result = run_timing(
            params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
        )
        summary = RunSummary.from_result(result)
        assert summary.backend == "compiled"
        assert RunSummary.from_dict(summary.to_dict()).backend == "compiled"

    def test_tracer_runs_compiled(self, params, tmp_path):
        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            result = run_timing(
                params, Scheme.V_COMA,
                make_workload("radix", intensity=0.2), 8, tracer=tracer,
            )
        assert result.backend == "compiled"
        assert result.fallback_reason is None
