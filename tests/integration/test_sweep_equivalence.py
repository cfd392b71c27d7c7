"""The compiled sweep engine must be bit-identical to the scalar oracle.

The sweep tentpole's contract (capture mode in ``fastsim.c`` + one
``fs_bank_run`` per recorded tap stream, driven by
``repro.system.fast_simulator``): after a fast ``run_miss_sweep``,
*everything* — the full study surface (all five schemes' taps, every
size × organization), the hierarchy-side RunSummary, and the machine
image itself (cache/AM sets in LRU order, directory entries, every
TLB/DLB bank's tag state and Mersenne Twister position, counters,
latency histograms) — matches the scalar :class:`StudyAgent` run, which
is retained purely as the differential-testing oracle behind
``fast=False`` / ``REPRO_NO_FAST_SWEEP``.

The matrix also covers the degraded environment (``REPRO_NO_COMPILED``
full fallback) and both sides of the
record/replay split: replayed grids (``JobSpec.execute(replay=True)``,
whose captures now also ride the compiled engine) must keep matching
the coupled scalar sweep.
"""

import pytest

from repro import MachineParams, make_workload
from repro.analysis import run_miss_sweep
from repro.core.schemes import SCHEME_ORDER, TAP_OF_SCHEME
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import Organization
from repro.runner import JobSpec
from repro.runner.summary import RunSummary
from repro.system.fast_simulator import NO_FAST_SWEEP_ENV

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


def summary_surface(result) -> dict:
    """Everything RunSummary serializes, minus the engine tags (those
    are provenance, expected to differ between engines)."""
    payload = RunSummary.from_result(result).to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


def sets_image(structure):
    """Tag/state sets as ordered item lists — dict equality ignores
    insertion order, but here order IS the LRU position."""
    return [list(s.items()) for s in structure._sets]


def machine_state(machine) -> dict:
    """The post-run machine image, deep enough to catch any state the
    fast engine failed to export (bank LRU order and RNG positions
    included)."""
    engine = machine.engine
    state = {
        "counters": dict(machine.merged_counters().to_dict()),
        "engine_rng": engine._rng.getstate(),
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
    # Every sweep bank, every member buffer: tag lists in residency
    # order, counters, and the exact random.Random state (the victim
    # RNG must land on the same word/position either way).
    agent = machine.agent
    state["banks"] = {
        f"{tap.value}:{node}": {
            "accesses": bank.accesses,
            "buffers": [
                {
                    "tags": [list(ways) for ways in buf._tags],
                    "where": dict(buf._where),
                    "accesses": buf.accesses,
                    "misses": buf.misses,
                    "rng": buf._rng.getstate(),
                }
                for buf in bank._buffer_list
            ],
        }
        for (tap, node), bank in agent._banks.items()
    }
    return state


def paired_sweep(params, workload_factory, **kwargs):
    """One fast and one scalar sweep of the same spec; asserts the
    engines actually differed and returns both results."""
    fast = run_miss_sweep(params, workload_factory(), **kwargs)
    scalar = run_miss_sweep(params, workload_factory(), fast=False, **kwargs)
    assert fast.backend == "compiled" and fast.fallback_reason is None
    assert scalar.backend == "scalar" and scalar.fallback_reason == "fast=False"
    return fast, scalar


class TestBitIdentical:
    @pytest.mark.parametrize("workload", ["radix", "raytrace", "ocean"])
    def test_deep_machine_state(self, params, workload):
        """Summary surface AND full machine image, three stream shapes
        (radix: dense; raytrace: lock-heavy; ocean: barrier-heavy)."""
        fast, scalar = paired_sweep(
            params,
            lambda: make_workload(workload, intensity=0.3),
            sizes=SIZES,
            orgs=ORGS,
            max_refs_per_node=400,
        )
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)

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
        assert summary_surface(fast) == summary_surface(scalar)
        assert machine_state(fast.machine) == machine_state(scalar.machine)


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
    """replay-on/off × compiled/no-compiled against one oracle."""

    @pytest.fixture(scope="class")
    def scalar_oracle(self, params):
        monkeypatch = pytest.MonkeyPatch()
        monkeypatch.setenv(NO_FAST_SWEEP_ENV, "1")
        try:
            return make_spec(params).execute(replay=False)
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("replay", [True, False], ids=["replay", "coupled"])
    @pytest.mark.parametrize(
        "env",
        [None, NO_COMPILED_ENV],
        ids=["compiled", "no-compiled"],
    )
    def test_matrix_cell(self, params, scalar_oracle, replay, env, monkeypatch):
        if env is not None:
            monkeypatch.setenv(env, "1")
        summary = make_spec(params).execute(replay=replay)
        ours = summary.to_dict()
        oracle = scalar_oracle.to_dict()
        for payload in (ours, oracle):
            payload.pop("backend", None)
            payload.pop("fallback_reason", None)
        assert ours == oracle

    def test_replay_summary_backend_stamp(self, params):
        summary = make_spec(params).execute(replay=True)
        assert summary.backend == "compiled+replay"
        coupled = make_spec(params).execute(replay=False)
        assert coupled.backend == "compiled"


class TestFallbacks:
    def test_no_fast_sweep_env(self, params, monkeypatch):
        monkeypatch.setenv(NO_FAST_SWEEP_ENV, "1")
        result = run_miss_sweep(
            params, make_workload("radix", intensity=0.2), max_refs_per_node=200
        )
        assert result.backend == "scalar"
        assert NO_FAST_SWEEP_ENV in result.fallback_reason

    def test_no_fast_timing_env_does_not_gate_sweeps(self, params, monkeypatch):
        """The timing switch must leave sweep runs on the fast path."""
        monkeypatch.setenv("REPRO_NO_FAST_TIMING", "1")
        result = run_miss_sweep(
            params, make_workload("radix", intensity=0.2), max_refs_per_node=200
        )
        assert result.backend == "compiled"

    def test_no_compiled_falls_back_scalar(self, params, monkeypatch):
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        result = run_miss_sweep(
            params, make_workload("radix", intensity=0.2), max_refs_per_node=200
        )
        assert result.backend == "scalar"
        assert "compiled backend unavailable" in result.fallback_reason

    def test_tracer_forces_scalar(self, params, tmp_path):
        from repro.obs import Tracer

        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            result = run_miss_sweep(
                params,
                make_workload("radix", intensity=0.2),
                max_refs_per_node=200,
                tracer=tracer,
            )
        assert result.backend == "scalar"
        assert result.fallback_reason == "tracing attached"
