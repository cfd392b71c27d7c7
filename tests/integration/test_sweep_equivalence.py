"""Compiled sweeps must be bit-identical to the scalar oracle.

On the compiled engine a miss sweep builds no machine:
``run_miss_sweep`` and every runner sweep cell capture the hierarchy's
tap streams headless (``capture_tap_traces``) and replay every bank
from them (``replay_summary``: one ``fs_bank_run_set`` call per trace
set, its ``(tap, node)`` streams spread over the CPUs, which cannot
move a count).  The coupled scalar run with a
:class:`StudyAgent` is the differential-testing oracle behind
``fast=False`` or ``REPRO_NO_COMPILED``; everything the summary
serializes — the full study surface (all five schemes' taps, every
size × organization), time breakdowns, counters, latency histograms —
must match it, and so must the capture's final machine image.

Traced sweeps run compiled too: the capture writes the hierarchy run's
records (a sweep agent emits no translation events), and the JSONL
bytes, plain or gzipped, must equal the scalar ``StudyAgent`` run's.
"""

import gzip

import pytest

from repro import MachineParams, make_workload
from repro.analysis import run_miss_sweep
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME, Scheme
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization
from repro.fuzz.oracle import compiled_run, diff_paths, scalar_run
from repro.obs import Tracer
from repro.runner import JobSpec
from repro.system import machine as machine_module
from repro.system.machine import Machine
from repro.system.simulator import Simulator
from repro.system.taps import StudyAgent
from repro.system.taptrace import CaptureAgent, capture_tap_traces
from repro.workloads import PAPER_ORDER

pytestmark = pytest.mark.skipif(
    get_backend() is None, reason="compiled backend unavailable"
)

SIZES = (8, 32, 128)
ORGS = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.SET_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


def surface(summary) -> dict:
    """Everything RunSummary serializes, minus the engine tags (those
    are provenance, expected to differ between engines)."""
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def machine_sweep(params, workload, **kwargs):
    """A coupled StudyAgent run on a scalar machine."""
    agent = StudyAgent(params, sizes=SIZES, orgs=ORGS)
    machine = Machine(params, Scheme.V_COMA, workload, agent=agent)
    return Simulator(machine, **kwargs).run()


def paired_sweep(params, workload_factory, **kwargs):
    """One compiled and one scalar sweep of the same spec; asserts the
    engines actually differed and returns both summaries."""
    fast = run_miss_sweep(params, workload_factory(), **kwargs)
    scalar = run_miss_sweep(params, workload_factory(), fast=False, **kwargs)
    assert fast.backend == "compiled+replay" and fast.fallback_reason is None
    assert scalar.backend == "scalar" and scalar.fallback_reason == "fast=False"
    return fast, scalar


class TestBitIdentical:
    @pytest.mark.parametrize("workload", ["radix", "raytrace", "ocean"])
    def test_deep_machine_state(self, params, workload):
        """Three stream shapes (radix: dense; raytrace: lock-heavy;
        ocean: barrier-heavy).  The compiled sweep's summary equals the
        oracle's, and the headless capture leaves the oracle's machine
        image (caches and AMs in LRU order, directories, RNG, ports)."""
        def make():
            return make_workload(workload, intensity=0.3)

        fast, scalar = paired_sweep(
            params, make, sizes=SIZES, orgs=ORGS, max_refs_per_node=400
        )
        assert surface(fast) == surface(scalar)

        _, captured = compiled_run(
            params, Scheme.V_COMA, make(), CaptureAgent(params), max_refs_per_node=400
        )
        oracle, state = scalar_run(
            params, Scheme.V_COMA, make(), StudyAgent(params, sizes=SIZES, orgs=ORGS),
            max_refs_per_node=400,
        )
        assert surface(oracle) == surface(scalar)
        # Counters are the summaries' to compare: the capture's carry no
        # study statistics.
        del captured["counters"], state["counters"]
        assert diff_paths(state, captured) == []

    def test_every_scheme_every_design_point(self, params):
        """All five paper schemes, every size × organization."""
        fast, scalar = paired_sweep(
            params,
            lambda: make_workload("fft", intensity=0.3),
            sizes=SIZES,
            orgs=ORGS,
            max_refs_per_node=400,
        )
        fast_study = fast.study_results()
        scalar_study = scalar.study_results()
        for scheme in SCHEME_ORDER:
            tap = TAP_OF_SCHEME[scheme]
            for size in SIZES:
                for org in ORGS:
                    assert fast_study.misses(tap, size, org) == scalar_study.misses(
                        tap, size, org
                    ), (scheme.value, size, org.value)
                    assert fast_study.miss_rate(
                        tap, size, org
                    ) == scalar_study.miss_rate(tap, size, org)

    def test_untruncated_streams(self, params):
        """No max_refs bound: stream-exhaustion finish paths line up."""
        fast, scalar = paired_sweep(
            params,
            lambda: make_workload("fmm", intensity=0.2),
            sizes=(8, 64),
            orgs=(Organization.FULLY_ASSOCIATIVE,),
        )
        assert surface(fast) == surface(scalar)

    @pytest.mark.parametrize("workload", PAPER_ORDER)
    def test_compiled_sweep_builds_no_machine(self, params, workload, monkeypatch):
        """The compiled sweep is headless capture + replay: not one
        Machine is built, and the summary is the oracle's."""
        built = []
        real_init = machine_module.Machine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(machine_module.Machine, "__init__", counting_init)
        fast = run_miss_sweep(
            params, make_workload(workload, intensity=0.3),
            sizes=SIZES, orgs=ORGS, max_refs_per_node=300,
        )
        assert built == []
        monkeypatch.undo()
        scalar = run_miss_sweep(
            params, make_workload(workload, intensity=0.3),
            sizes=SIZES, orgs=ORGS, max_refs_per_node=300, fast=False,
        )
        assert fast.backend == "compiled+replay"
        assert surface(fast) == surface(scalar)


def make_spec(params, workload="radix"):
    return JobSpec.sweep(
        params,
        workload,
        sizes=SIZES,
        orgs=ORGS,
        max_refs_per_node=400,
        overrides={"intensity": 0.3},
    )


class TestReplayMatrix:
    """Runner cell (capture + replay) and coupled scalar machine run,
    each with and without the compiled backend, against one oracle."""

    @pytest.fixture(scope="class")
    def scalar_oracle(self, params):
        return run_miss_sweep(
            params, make_workload("radix", intensity=0.3),
            sizes=SIZES, orgs=ORGS, max_refs_per_node=400, fast=False,
        )

    @pytest.mark.parametrize("replay", [True, False], ids=["replay", "coupled"])
    @pytest.mark.parametrize(
        "env",
        [None, NO_COMPILED_ENV],
        ids=["compiled", "no-compiled"],
    )
    def test_matrix_cell(self, params, scalar_oracle, replay, env, monkeypatch):
        if env is not None:
            monkeypatch.setenv(env, "1")
        if replay:
            summary = make_spec(params).execute()
        else:
            summary = machine_sweep(
                params, make_workload("radix", intensity=0.3), max_refs_per_node=400
            )
            assert summary.backend == "scalar"
        assert surface(summary) == surface(scalar_oracle)

    def test_replay_summary_backend_stamp(self, params):
        summary = make_spec(params).execute()
        assert summary.backend == "compiled+replay"
        direct = run_miss_sweep(
            params, make_workload("radix", intensity=0.3),
            sizes=SIZES, orgs=ORGS, max_refs_per_node=400,
        )
        assert direct.backend == "compiled+replay"
        assert surface(direct) == surface(summary)


class TestFallbacks:
    def test_no_compiled_falls_back_scalar(self, params, monkeypatch):
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        result = run_miss_sweep(
            params, make_workload("radix", intensity=0.2), max_refs_per_node=200
        )
        assert result.backend == "scalar"
        assert "compiled backend unavailable" in result.fallback_reason
        traces = capture_tap_traces(
            params, make_workload("radix", intensity=0.2), max_refs_per_node=200
        )
        assert traces.base.fallback_reason.startswith("compiled backend unavailable: ")

    def test_capture_agent_on_a_machine_runs_scalar(self, params):
        """A CaptureAgent on a scalar machine records the streams the
        headless capture records; ``fast=False`` captures on one."""
        agent = CaptureAgent(params)
        machine = Machine(
            params, Scheme.V_COMA, make_workload("ocean", intensity=0.2), agent=agent
        )
        result = Simulator(machine, max_refs_per_node=300).run()
        assert result.backend == "scalar"
        headless, oracle = (
            capture_tap_traces(
                params, make_workload("ocean", intensity=0.2), max_refs_per_node=300,
                fast=fast,
            )
            for fast in (True, False)
        )
        assert headless.base.backend == "compiled"
        assert oracle.base.fallback_reason == "fast=False"
        assert agent.streams() == oracle.streams == headless.streams

    @pytest.mark.parametrize("workload", ["radix", "raytrace"])
    @pytest.mark.parametrize("sink", ["file", "gz"])
    def test_traced_sweep_bit_identical(self, params, workload, sink, tmp_path):
        """A traced sweep captures compiled and writes the scalar
        StudyAgent run's trace: the same JSONL bytes, plain or through
        a gzipped sink."""
        traces, summaries = [], []
        for fast in (True, False):
            path = tmp_path / f"{fast}.jsonl{'.gz' if sink == 'gz' else ''}"
            with Tracer(str(path)) as tracer:
                summaries.append(run_miss_sweep(
                    params, make_workload(workload, intensity=0.3),
                    sizes=SIZES, orgs=ORGS, max_refs_per_node=300,
                    tracer=tracer, fast=fast,
                ))
            data = path.read_bytes()
            traces.append(data if sink == "file" else gzip.decompress(data))
        fast, scalar = summaries
        assert fast.backend == "compiled+replay" and fast.fallback_reason is None
        assert scalar.backend == "scalar"
        assert surface(fast) == surface(scalar)
        assert traces[0] == traces[1]
