"""The compiled timing fast path must be bit-identical to the scalar oracle.

The tentpole contract of the columnar engine (``repro.core.timing_kernels``
+ ``repro.system.fast_simulator``): after a compiled run, *everything* —
the RunSummary surface (total time, per-node breakdowns, counters,
TLB/DLB statistics, latency histograms) and the final machine image
(cache/AM images in LRU order, directory entries, TLB contents, Mersenne
Twister states, the translation accumulator, port free times) — matches
a run driven by the scalar engine, which is retained purely as the
differential-testing oracle.  A compiled run builds no machine, so its
image is read from C (``fs_image``) and decoded into the dict
``machine_state`` reads off the scalar machine; a test below proves the
decoder drops no field.  Sync-heavy workloads are the hard part
(barriers, lock contention, truncation mid-critical-section), so
RAYTRACE's lock-heavy streams and hand-built barrier-imbalanced streams
are first-class cases here, along with the scalar engine's sync errors.

Traced runs are held to the same contract one level further out: the
compiled engine writes the tracer's packed records itself, and the
JSONL bytes (file-backed tracers) or ring records and drop counts
(memory-only tracers) must equal the scalar run's.

Runner jobs go through the same headless path, so every scheme row also
checks that job's summary against the scalar run.  The image
``fs_preload`` builds in C must equal ``Machine._preload``'s, and a
data set that does not fit raises the same ``CapacityError`` on both
paths.

The matrix also covers the degraded environment: the full scalar
fallback with the compiled backend disabled (``REPRO_NO_COMPILED``)
must produce the same numbers again.
"""

import gzip
import re

import pytest

from repro import CustomWorkload, MachineParams, Scheme, SegmentSpec, make_workload
from repro.analysis import run_timing
from repro.analysis.experiments import pressure_profile
from repro.coma.protocol import TranslationAgent
from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ReproError
from repro.core.schemes import SCHEME_ORDER
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization
from repro.fuzz.oracle import (
    compiled_run,
    decode_image,
    diff_paths,
    literal_workload,
    machine_state,
    scalar_run,
    summary_surface,
)
from repro.obs import Tracer, read_trace
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


#: Node 0 is cut off by max_refs_per_node=60 inside its critical
#: section; node 3 never reaches the barrier.
TRUNCATED_LOCK_STREAMS = [
    [(WRITE, i * 32) for i in range(40)] + [(BARRIER, 0), (LOCK, 0)]
    + [(WRITE, i * 64) for i in range(40)] + [(UNLOCK, 0)],
    [(READ, 0), (BARRIER, 0), (LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
    [(BARRIER, 0), (LOCK, 0), (READ, 128), (UNLOCK, 0)],
    [(WRITE, 512)],
]


def assert_identical(fast, scalar):
    """Two ``(summary, state)`` pairs: the compiled one really ran
    compiled, and both summaries and final images agree."""
    (fast_summary, fast_state), (scalar_summary, scalar_state) = fast, scalar
    assert fast_summary.backend == "compiled" and fast_summary.fallback_reason is None
    assert scalar_summary.backend == "scalar"
    assert summary_surface(fast_summary) == summary_surface(scalar_summary)
    assert diff_paths(scalar_state, fast_state) == []


def literal_pair(params, scheme, streams, **kwargs):
    """Compiled and scalar ``(summary, state)`` of hand-built streams
    under the passive translation agent."""
    return [
        run(params, scheme, literal_workload(params, streams), TranslationAgent(), **kwargs)
        for run in (compiled_run, scalar_run)
    ]


def traced_pair(run, sink, tmp_path):
    """``run(tracer, compiled_run | scalar_run)`` on both engines, each
    with a fresh tracer writing a plain (``sink="file"``) or gzipped
    (``"gz"``) JSONL file; returns ``(fast, scalar)`` as
    ((summary, state), trace) pairs, the trace being the JSONL bytes."""
    outputs = []
    for engine in (compiled_run, scalar_run):
        path = tmp_path / f"{engine.__name__}.jsonl{'.gz' if sink == 'gz' else ''}"
        with Tracer(str(path)) as tracer:
            result = run(tracer, engine)
        data = path.read_bytes()
        outputs.append((result, data if sink == "file" else gzip.decompress(data)))
    (fast, _), (scalar, _) = outputs
    assert_identical(fast, scalar)
    return outputs


def paired_run(params, scheme, workload, intensity, variant=None, entries=8,
               organization=Organization.FULLY_ASSOCIATIVE, **kwargs):
    """One compiled and one scalar run of the same spec, each a
    ``(summary, state)`` pair; asserts they agree and that the spec run
    as a runner job summarizes exactly like the scalar run."""
    spec = JobSpec.timing(
        params, scheme, workload, entries, organization=organization,
        overrides={"intensity": intensity}, variant=variant, **kwargs
    )
    fast, scalar = (
        run(params, scheme, spec.build_workload(),
            TimingAgent(params, scheme, entries, organization=organization), **kwargs)
        for run in (compiled_run, scalar_run)
    )
    assert_identical(fast, scalar)
    job = spec.execute()
    assert job.backend == "compiled" and job.fallback_reason is None
    assert summary_surface(job) == summary_surface(scalar[0])
    return fast, scalar


@pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=[s.value for s in SCHEME_ORDER])
class TestAllSchemes:
    def test_raytrace_locks_bit_identical(self, params, scheme):
        """RAYTRACE's task-queue locks, fully-associative buffers."""
        paired_run(params, scheme, "raytrace", 0.5)

    def test_direct_mapped_with_truncation(self, params, scheme):
        """DM structures plus max_refs truncation (epoch edge cases)."""
        paired_run(
            params,
            scheme,
            "radix",
            0.3,
            organization=Organization.DIRECT_MAPPED,
            max_refs_per_node=300,
        )

    @pytest.mark.parametrize("variant", [None, "v2"], ids=["base", "v2"])
    def test_raytrace_contention_bit_identical(self, params, scheme, variant):
        """Figure 10's padding bars: every remote transfer queues at
        its destination's input port, lock hand-offs included."""
        (fast, state), _ = paired_run(
            params, scheme, "raytrace", 0.5, variant=variant, contention=True
        )
        assert fast.counters["contention_cycles"] > 0
        assert any(state["port_free_at"])

    def test_contention_sync_streams_truncated_in_critical_section(self, params, scheme):
        """Barrier-imbalanced streams under port contention; max_refs
        cuts node 0 off inside its critical section."""
        fast, scalar = literal_pair(
            params, scheme, TRUNCATED_LOCK_STREAMS, contention=True, max_refs_per_node=60
        )
        assert fast[0].refs_per_node[0] == 60
        assert_identical(fast, scalar)

    @pytest.mark.parametrize("contention", [False, True], ids=["latency", "contention"])
    @pytest.mark.parametrize("sink", ["file", "gz"])
    def test_traced_raytrace_bit_identical(self, params, scheme, sink, contention, tmp_path):
        """The compiled engine's packed records: lock hand-offs, TLB/DLB
        events, injections and (optionally) port contention, streamed
        to JSONL, plain or gzipped."""

        def run(tracer, engine):
            return engine(
                params, scheme, make_workload("raytrace", intensity=0.5),
                TimingAgent(params, scheme, 8), contention=contention, tracer=tracer,
            )

        (_, fast_trace), (_, scalar_trace) = traced_pair(run, sink, tmp_path)
        assert fast_trace == scalar_trace

    @pytest.mark.parametrize("sink", ["file", "gz"])
    def test_traced_sync_streams_truncated_in_critical_section(
        self, params, scheme, sink, tmp_path
    ):
        """sim.barrier / sim.lock records interleave with the drained C
        records exactly where the scalar run writes them."""

        def run(tracer, engine):
            return engine(
                params, scheme, literal_workload(params, TRUNCATED_LOCK_STREAMS),
                TranslationAgent(), tracer=tracer, contention=True, max_refs_per_node=60,
            )

        ((fast, _), fast_trace), (_, scalar_trace) = traced_pair(run, sink, tmp_path)
        assert fast.refs_per_node[0] == 60
        assert fast_trace == scalar_trace


class TestImageDecoder:
    """``decode_image`` must turn every word of ``fs_image`` that holds
    state into a field the oracle compares: flip one bit of a word in
    a key's region and the diff must name that key."""

    @pytest.fixture(scope="class")
    def image(self, params):
        run = fast_simulator.HeadlessRun(
            params, Scheme.V_COMA, make_workload("raytrace", intensity=0.5),
            TimingAgent(params, Scheme.V_COMA, 8), contention=True,
        )
        fast_simulator.run_fast(run, image=True)
        return run.image

    def test_every_key_has_a_region(self, params, image):
        _, fields = decode_image(image)
        nodes = [
            f"$['nodes'][{n}][{key!r}]"
            for n in range(params.nodes)
            for key in ("flc", "slc", "am", "read_hist", "write_hist")
        ]
        tlbs = [f"$['tlbs'][{n}]" for n in range(params.nodes)]
        top = ["$['engine_rng']", "$['translation_accum']", "$['port_free_at']",
               "$['directories']"]
        assert sorted(fields) == sorted(top + nodes + tlbs)

    def test_perturbed_word_is_named_by_the_diff(self, image):
        state, fields = decode_image(image)
        for path, offsets in fields.items():
            # The first and last words cover each region's counts, its
            # first entry and its tail (an RNG, a histogram's totals).
            for offset in sorted(set(offsets[:4] + offsets[-4:])):
                perturbed = type(image)(image.typecode, image)
                perturbed[offset] ^= 1
                diffs = diff_paths(state, decode_image(perturbed)[0])
                assert diffs and all(d.startswith(path) for d in diffs), (path, offset)

    def test_layout_is_consumed_exactly(self, image):
        with pytest.raises(ValueError):
            decode_image(image + type(image)(image.typecode, [0]))


def preload_image(params, scheme, workload):
    """The AM sets and directories ``fs_preload`` builds from the
    run's placement, decoded from the engine's ``fs_image``."""
    backend = get_backend()
    ffi, lib = backend.ffi, backend.lib
    run = fast_simulator.HeadlessRun(params, scheme, workload, TranslationAgent())
    handle = lib.fs_create(ffi.new("int64_t[]", fast_simulator._geometry(run)))
    try:
        placement = run.placement
        assert lib.fs_preload(
            handle,
            ffi.from_buffer("int64_t[]", placement.vpns),
            ffi.from_buffer("int64_t[]", placement.ppns),
            len(placement.vpns),
        ) == 0
        size = lib.fs_image(handle, ffi.NULL, 0)
        words = ffi.new("int64_t[]", size)
        assert lib.fs_image(handle, words, size) == size
    finally:
        lib.fs_destroy(handle)
    # fs_image's words, then the (empty) per-node latency histograms.
    hists = ([0] * 64 + [0, 0]) * 2 * params.nodes
    state, _ = decode_image(list(words) + hists)
    return [node["am"] for node in state["nodes"]], state["directories"]


@pytest.mark.parametrize("scheme", SCHEME_ORDER, ids=[s.value for s in SCHEME_ORDER])
class TestPreloadImage:
    @pytest.mark.parametrize("workload", PAPER_ORDER)
    def test_fs_preload_equals_machine_preload(self, params, scheme, workload):
        machine = Machine(params, scheme, make_workload(workload, intensity=0.5))
        ams, directories = preload_image(params, scheme, make_workload(workload, intensity=0.5))
        expected = machine_state(machine)
        assert ams == [node["am"] for node in expected["nodes"]]
        assert directories == expected["directories"]
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


def raised(streams, params, fast):
    """The ReproError a run of ``streams`` raises on one engine."""
    with pytest.raises(ReproError) as info:
        run_summary(
            params, Scheme.V_COMA, literal_workload(params, streams), TranslationAgent,
            fast=fast,
        )
    return type(info.value), str(info.value)


class _CountingLib:
    """Pass-through stand-in for the cffi library that counts ``fs_run``
    calls and trace drains (``fs_trace_take``)."""

    def __init__(self, lib):
        self._lib = lib
        self.runs = 0
        self.drains = 0

    def fs_run(self, *args):
        self.runs += 1
        return self._lib.fs_run(*args)

    def fs_trace_take(self, *args):
        self.drains += 1
        return self._lib.fs_trace_take(*args)

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
        assert_identical(*literal_pair(params, Scheme.V_COMA, streams))

    def test_lock_convoy(self, params):
        """All nodes contend for one lock word; FIFO handoff order and
        sync charging must coincide across engines."""
        streams = [
            [(LOCK, 0), (WRITE, 64), (WRITE, 128), (UNLOCK, 0)] * 5
            for _ in range(4)
        ]
        assert_identical(*literal_pair(params, Scheme.V_COMA, streams))

    def test_truncation_inside_critical_section(self, params):
        """max_refs cuts node 0 off while it holds the lock; the finish
        path must hand the lock to the queued waiter identically."""
        streams = [
            [(LOCK, 0)] + [(WRITE, i * 64) for i in range(50)] + [(UNLOCK, 0)],
            [(LOCK, 0), (WRITE, 64), (UNLOCK, 0)],
            [],
            [],
        ]
        fast, scalar = literal_pair(params, Scheme.V_COMA, streams, max_refs_per_node=10)
        assert fast[0].refs_per_node[0] == 10
        assert_identical(fast, scalar)

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
        fast, scalar = literal_pair(params, Scheme.V_COMA, streams, max_refs_per_node=10)
        assert fast[0].refs_per_node[0] == scalar[0].refs_per_node[0] == 10
        assert fast[0].barriers == scalar[0].barriers == 3
        assert_identical(fast, scalar)

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
        machine = Machine(params, Scheme.V_COMA, literal_workload(params, [[]] * 4))
        base = machine.ctx.segment("data").base
        assert text.endswith(f"[{base + 128}, {base + 64}]")

    def test_reused_barrier_id_is_a_new_episode(self, params):
        """A second arrival at a barrier is an error only before its
        release: a waiting node is off the heap, so no stream reaches
        that error, and an id reused after release is a fresh barrier."""
        streams = [[(BARRIER, 0), (READ, 64), (BARRIER, 0)]] * 4
        fast, scalar = literal_pair(params, Scheme.V_COMA, streams)
        assert fast[0].barriers == 8
        assert_identical(fast, scalar)

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
        assert_identical(*literal_pair(
            params, Scheme.V_COMA, streams, contention=contention, max_refs_per_node=max_refs
        ))

    def test_untraced_run_is_one_c_call(self, params, monkeypatch, tmp_path):
        """A run with barriers and lock contention calls ``fs_run``
        once, through ``run_timing`` or a runner job; a traced run
        calls it once per drain of the trace buffer."""
        from repro.obs import trace

        counting = _CountingLib(get_backend().lib)
        monkeypatch.setattr(get_backend(), "lib", counting)
        result = run_timing(params, Scheme.V_COMA, make_workload("raytrace", intensity=0.5), 8)
        assert result.backend == "compiled" and result.barriers > 0
        assert counting.runs == 1
        job = JobSpec.timing(params, Scheme.L0_TLB, "raytrace", 8,
                             overrides={"intensity": 0.5}).execute()
        assert job.backend == "compiled"
        assert counting.runs == 2 and counting.drains == 0
        monkeypatch.setattr(trace, "PACKED_FLUSH_BYTES", 1 << 16)
        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            run_timing(params, Scheme.V_COMA, make_workload("raytrace", intensity=0.5), 8,
                       tracer=tracer)
        assert counting.drains > 1
        assert counting.runs - 2 == counting.drains


class TestTracedEngineError:
    def test_engine_error_leaves_the_same_truncated_spans(self, params, tmp_path):
        """A store to an unmapped page fails mid-reference on both
        engines; the spans the compiled engine left open are handed to
        the tracer, so close() truncates the same records."""
        streams = [[(WRITE, 0), (READ, 64), (WRITE, 40 * 256)], [], [], []]
        traces = []
        for fast in (True, False):
            path = tmp_path / f"{fast}.jsonl"
            tracer = Tracer(str(path))
            with pytest.raises((ReproError, KeyError)):
                run_summary(
                    params, Scheme.L2_TLB, literal_workload(params, streams),
                    TranslationAgent, tracer=tracer, fast=fast,
                )
            tracer.close()
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]
        records = read_trace(str(tmp_path / "True.jsonl"))
        assert [r["name"] for r in records if r.get("truncated")] == ["ref", "run"]


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
        assert result.backend == "compiled"
        assert RunSummary.from_dict(result.to_dict()).backend == "compiled"

    def test_tracer_runs_compiled(self, params, tmp_path):
        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            result = run_timing(
                params, Scheme.V_COMA,
                make_workload("radix", intensity=0.2), 8, tracer=tracer,
            )
        assert result.backend == "compiled"
        assert result.fallback_reason is None
