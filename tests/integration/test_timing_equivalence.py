"""The compiled timing fast path must be bit-identical to the scalar oracle.

The tentpole contract of the columnar engine (``repro.core.timing_kernels``
+ ``repro.system.fast_simulator``): after a fast run, *everything* — the
RunSummary surface (total time, per-node breakdowns, counters, TLB/DLB
statistics, latency histograms) and the machine object itself (cache/AM
images in LRU order, directory entries, TLB contents, Mersenne Twister
states, the translation accumulator) — matches a run driven by the
scalar engine, which is retained purely as the differential-testing
oracle.  Sync-heavy workloads are the hard part (barriers, lock
contention, truncation mid-critical-section), so RAYTRACE's lock-heavy
streams and hand-built barrier-imbalanced streams are first-class cases
here, along with the scalar engine's sync errors.

Traced runs are held to the same contract one level further out: the
compiled engine writes the tracer's packed records itself, and the
JSONL bytes (file-backed tracers) or ring records and drop counts
(memory-only tracers) must equal the scalar run's.

Runner jobs run headless: ``JobSpec.execute`` reads the summary
straight from C and never builds a machine, so every scheme row also
checks that job's summary against the scalar run.  The image
``fs_preload`` builds in C must equal ``Machine._preload``'s, and a
data set that does not fit raises the same ``CapacityError`` on both
paths.

The matrix also covers the degraded environment: the full scalar
fallback with the compiled backend disabled (``REPRO_NO_COMPILED``)
must produce the same numbers again.
"""

import re

import pytest

from repro import CustomWorkload, MachineParams, Scheme, SegmentSpec, Simulator, make_workload
from repro.analysis import run_timing
from repro.analysis.experiments import pressure_profile
from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ReproError
from repro.core.schemes import SCHEME_ORDER
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization
from repro.fuzz.oracle import literal_machine, machine_state, summary_surface
from repro.obs import Tracer
from repro.runner import JobSpec
from repro.runner.summary import RunSummary
from repro.system import fast_simulator
from repro.system.machine import Machine
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE
from repro.system.simulator import run_summary
from repro.system.taps import TimingAgent
from repro.workloads import PAPER_ORDER

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


def paired_run(params, scheme, workload, intensity, variant=None, **kwargs):
    """One fast and one scalar run of the same spec; asserts the
    engines actually differed, that the spec run as a runner job
    (headless: no machine) summarizes exactly like the scalar run, and
    returns the fast and scalar results."""
    spec = JobSpec.timing(
        params, scheme, workload, overrides={"intensity": intensity},
        variant=variant, **kwargs
    )
    fast = run_timing(params, scheme, spec.build_workload(), **kwargs)
    scalar = run_timing(params, scheme, spec.build_workload(), fast=False, **kwargs)
    assert fast.backend == "compiled" and fast.fallback_reason is None
    assert scalar.backend == "scalar" and scalar.fallback_reason == "fast=False"
    job = spec.execute()
    assert job.backend == "compiled" and job.fallback_reason is None
    payload = job.to_dict()
    del payload["backend"], payload["fallback_reason"]
    assert payload == summary_surface(scalar)
    return fast, scalar


@pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=[s.value for s in SCHEME_ORDER])
class TestAllSchemes:
    def test_raytrace_locks_bit_identical(self, params, scheme):
        """RAYTRACE's task-queue locks: the sync path Python still owns."""
        fast, scalar = paired_run(params, scheme, "raytrace", 0.5, entries=8)
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_direct_mapped_with_truncation(self, params, scheme):
        """DM structures plus max_refs truncation (epoch edge cases)."""
        fast, scalar = paired_run(
            params,
            scheme,
            "radix",
            0.3,
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
        fast, scalar = paired_run(
            params, scheme, "raytrace", 0.5, variant=variant, entries=8, contention=True
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


def preload_image(machine):
    """The AM sets (set-major, LRU order within a set) and directory
    ``fs_preload`` builds from the machine's placement, read back
    through the engine's export calls."""
    backend = get_backend()
    ffi, lib = backend.ffi, backend.lib
    params = machine.params
    geom = fast_simulator._geometry(machine, None, contention=False, relaxed=False)
    handle = lib.fs_create(ffi.new("int64_t[]", geom))
    try:
        placement = machine.placement
        assert lib.fs_preload(
            handle,
            ffi.from_buffer("int64_t[]", placement.vpns),
            ffi.from_buffer("int64_t[]", placement.ppns),
            len(placement.vpns),
        ) == 0
        capacity = params.am_sets * params.am_assoc
        blocks = ffi.new("int64_t[]", capacity)
        states = ffi.new("uint8_t[]", capacity)
        ams = []
        for n in range(params.nodes):
            resident = lib.fs_export_cache(handle, n, 2, blocks, states)
            ams.append([(blocks[i], states[i]) for i in range(resident)])
        count = lib.fs_dir_count(handle)
        owners = ffi.new("int32_t[]", count)
        dir_blocks = ffi.new("int64_t[]", count)
        sharers = ffi.new("uint64_t[]", count)  # one word: <= 64 nodes
        lib.fs_export_dir(handle, dir_blocks, owners, sharers)
        directory = {
            dir_blocks[i]: (
                None if owners[i] < 0 else owners[i],
                frozenset(n for n in range(params.nodes) if sharers[i] >> n & 1),
            )
            for i in range(count)
        }
    finally:
        lib.fs_destroy(handle)
    return ams, directory


@pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=[s.value for s in SCHEME_ORDER])
class TestPreloadImage:
    @pytest.mark.parametrize("workload", PAPER_ORDER)
    def test_fs_preload_equals_machine_preload(self, params, scheme, workload):
        machine = Machine(params, scheme, make_workload(workload, intensity=0.5))
        ams, directory = preload_image(machine)
        assert ams == [
            [(block, int(state)) for cache_set in am._sets for block, state in cache_set.items()]
            for am in machine.engine.ams
        ]
        assert directory == {
            block: (entry.owner, frozenset(entry.sharers))
            for home in machine.engine.directories
            for block, entry in home._entries.items()
        }
        placement = machine.placement
        expected_map = {} if scheme.uses_virtual_am else dict(zip(placement.vpns, placement.ppns))
        assert machine.page_map == expected_map
        assert machine.reverse_map == {pfn: vpn for vpn, pfn in expected_map.items()}
        assert len(placement.vpns) == machine.counters["pages_preloaded"]

    def test_overflowing_data_set_raises_on_both_paths(self, params, scheme):
        """One global page set gets one page more than its ``P*K``
        slots (virtual-AM schemes place by VPN colour); a physical-AM
        data set one page larger than memory runs out of frames."""
        layout = AddressLayout.from_params(params)
        if scheme.uses_virtual_am:
            stride = layout.global_page_sets * params.page_size
            specs = [
                SegmentSpec(f"p{i}", params.page_size, alignment=stride)
                for i in range(params.page_slots_per_global_set + 1)
            ]
        else:
            specs = [SegmentSpec("data", (params.total_am_pages + 1) * params.page_size)]
        workload = CustomWorkload(specs, lambda node, ctx: iter(()), name="overflow")
        with pytest.raises(CapacityError) as scalar:
            Machine(params, scheme, workload)
        with pytest.raises(CapacityError) as headless:
            run_summary(params, scheme, workload, lambda: TimingAgent(params, scheme, 8))
        with pytest.raises(CapacityError) as profile:
            pressure_profile(params, workload, scheme)
        assert str(headless.value) == str(scalar.value) == str(profile.value)


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


def raised(streams, params, fast):
    """The ReproError a run of ``streams`` raises on one engine."""
    machine = literal_machine(params, Scheme.V_COMA, streams)
    with pytest.raises(ReproError) as info:
        Simulator(machine, fast=fast).run()
    return type(info.value), str(info.value)


class _CountingLib:
    """Pass-through stand-in for the cffi library that counts ``fs_run``
    calls."""

    def __init__(self, lib):
        self._lib = lib
        self.runs = 0

    def fs_run(self, *args):
        self.runs += 1
        return self._lib.fs_run(*args)

    def __getattr__(self, name):
        return getattr(self._lib, name)


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

    def test_sync_exactly_at_the_cut_is_not_executed(self, params):
        """Node 0's barrier sits right after its 10th reference and
        max_refs is 10: the node finishes before consuming the barrier,
        so only the other three nodes execute it."""
        streams = [
            [(WRITE, i * 64) for i in range(10)] + [(BARRIER, 0), (READ, 0)],
            [(READ, i * 256) for i in range(5)] + [(BARRIER, 0), (WRITE, 128)],
            [(BARRIER, 0)],
            [(BARRIER, 0)],
        ]
        fast = Simulator(
            literal_machine(params, Scheme.V_COMA, streams), max_refs_per_node=10
        ).run()
        scalar = Simulator(
            literal_machine(params, Scheme.V_COMA, streams), max_refs_per_node=10, fast=False
        ).run()
        assert fast.backend == "compiled"
        assert fast.refs_per_node[0] == scalar.refs_per_node[0] == 10
        assert fast.barriers == scalar.barriers == 3
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    @pytest.mark.parametrize(
        "streams, message",
        [
            # Two nodes wait at different barriers while the other two
            # finish: neither barrier ever gathers the active nodes.
            ([[(BARRIER, 5)], [(BARRIER, 3)], [], []],
             r"deadlock: barriers \[3, 5\] never released"),
            ([[(UNLOCK, 64)], [], [], []], r"node 0 unlocks 0x[0-9a-f]+ held by None"),
            # Node 0 wins the tie at t=0 and takes the lock first.
            ([[(LOCK, 64), (UNLOCK, 64)], [(UNLOCK, 64)], [], []],
             r"node 1 unlocks 0x[0-9a-f]+ held by 0"),
            # Node 0 queues behind itself: both words stay held, listed
            # in first-acquisition order.
            ([[(LOCK, 128), (LOCK, 64), (LOCK, 128)], [], [], []],
             r"locks still held at end of run: \[\d+, \d+\]"),
            ([[(READ, 0), (7, 0)], [], [], []], r"unknown opcode 7"),
        ],
        ids=["deadlock", "unlock-unheld", "unlock-foreign", "locks-held", "opcode"],
    )
    def test_sync_errors_match_the_scalar_engine(self, params, streams, message):
        fast = raised(streams, params, True)
        assert fast == raised(streams, params, False)
        assert re.fullmatch(message, fast[1])

    def test_held_locks_in_first_acquisition_order(self, params):
        _, text = raised([[(LOCK, 128), (LOCK, 64), (LOCK, 128)], [], [], []], params, True)
        base = literal_machine(params, Scheme.V_COMA, [[]] * 4).ctx.segment("data").base
        assert text.endswith(f"[{base + 128}, {base + 64}]")

    def test_reused_barrier_id_is_a_new_episode(self, params):
        """A second arrival at a barrier is an error only before its
        release: a waiting node is off the heap, so no stream reaches
        that error, and an id reused after release is a fresh barrier."""
        streams = [[(BARRIER, 0), (READ, 64), (BARRIER, 0)]] * 4
        fast = Simulator(literal_machine(params, Scheme.V_COMA, streams)).run()
        scalar = Simulator(literal_machine(params, Scheme.V_COMA, streams), fast=False).run()
        assert fast.backend == "compiled" and fast.barriers == 8
        assert summary_surface(fast) == summary_surface(scalar)

    @pytest.mark.parametrize("contention", [False, True], ids=["free", "contention"])
    @pytest.mark.parametrize("max_refs", range(17))
    def test_lock_convoy_cut_at_every_position(self, params, max_refs, contention):
        """Node i holds the lock for i + 1 stores, four times over, so
        the cuts land at every position inside every node's critical
        sections (and right before each unlock).  Port contention makes
        each lock-word store's stall depend on when it is issued."""
        streams = [
            ([(LOCK, 0)] + [(WRITE, 64 * (j + 1)) for j in range(i + 1)] + [(UNLOCK, 0)]) * 4
            for i in range(4)
        ]
        fast = Simulator(
            literal_machine(params, Scheme.V_COMA, streams, contention=contention),
            max_refs_per_node=max_refs,
        ).run()
        scalar = Simulator(
            literal_machine(params, Scheme.V_COMA, streams, contention=contention),
            max_refs_per_node=max_refs, fast=False,
        ).run()
        assert fast.backend == "compiled"
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

    def test_untraced_run_is_one_c_call(self, params, monkeypatch):
        """A run with barriers and lock contention calls ``fs_run``
        once, machine-backed or headless."""
        counting = _CountingLib(get_backend().lib)
        monkeypatch.setattr(get_backend(), "lib", counting)
        result = run_timing(params, Scheme.V_COMA, make_workload("raytrace", intensity=0.5), 8)
        assert result.backend == "compiled" and result.barriers > 0
        assert counting.runs == 1
        job = JobSpec.timing(params, Scheme.L0_TLB, "raytrace", 8,
                             overrides={"intensity": 0.5}).execute()
        assert job.backend == "compiled"
        assert counting.runs == 2


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
