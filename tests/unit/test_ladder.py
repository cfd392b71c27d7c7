"""The supervised degradation ladder and fallback provenance.

Forcing any compiled-engine failure the oracle can recover from — an
injected C OOM, a build failure, ``REPRO_NO_COMPILED`` — must yield a
bit-identical scalar result with a structured ``fallback_reason``,
never a crash, and the reason must survive the whole provenance chain:
``RunSummary`` → cache round trip → ``GridStats``.
Backend lifecycle hardening rides along: corrupted or stale cached
``.so`` files are quarantined and rebuilt, the load-time self-test
gates dlopen, and every degradation lands on the runtime metrics
registry exactly once (warn-once semantics).
"""

import os
import warnings

import pytest

from repro import MachineParams, Scheme, make_workload
from repro.analysis import run_timing
from repro.core import timing_kernels as tk
from repro.core.ladder import (
    FAULT_ENV,
    EngineDegraded,
    degradation_ladder,
    injected_fault,
    only_last_resort,
    render_ladder,
    resolved_tier,
)
from repro.obs.runtime import (
    counter_value,
    fallback_counts,
    record_fallback,
    reset_runtime_metrics,
)
from repro.runner import BatchRunner, JobSpec
from repro.runner.summary import RunSummary

pytestmark = pytest.mark.skipif(
    tk.get_backend() is None, reason="compiled timing backend unavailable"
)


@pytest.fixture(autouse=True)
def clean_runtime_metrics():
    reset_runtime_metrics()
    yield
    reset_runtime_metrics()


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)


def surface(summary):
    payload = summary.to_dict()
    payload.pop("backend", None)
    payload.pop("fallback_reason", None)
    return payload


# ----------------------------------------------------------------------
# degradation paths
# ----------------------------------------------------------------------
class TestDegradationPaths:
    @pytest.mark.parametrize("fault", ["oom", "create", "internal"])
    def test_injected_fault_degrades_to_identical_scalar(
        self, params, fault, monkeypatch
    ):
        scalar = run_timing(
            params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
            max_refs_per_node=200, fast=False,
        )
        monkeypatch.setenv(FAULT_ENV, fault)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the warn-once fallback warning
            degraded = run_timing(
                params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
                max_refs_per_node=200,
            )
        assert degraded.backend == "scalar"
        assert degraded.fallback_reason.startswith("compiled engine degraded:")
        assert surface(degraded) == surface(scalar)

    @pytest.mark.parametrize("fault", ["oom", "create", "internal"])
    @pytest.mark.parametrize("kind", ["timing", "capture"])
    def test_injected_fault_degrades_headless_job(self, params, fault, kind, monkeypatch):
        """A runner job builds no machine on the compiled engine; when
        that engine degrades, the job re-runs on one fresh scalar
        machine and returns the same summary, stamped with why."""
        from repro.system.machine import Machine

        if kind == "timing":
            spec = JobSpec.timing(
                params, Scheme.V_COMA, "radix", 8,
                max_refs_per_node=200, overrides={"intensity": 0.2},
            )
        else:
            spec = JobSpec.sweep(
                params, "radix", max_refs_per_node=200, overrides={"intensity": 0.2}
            )
        builds = []
        build = Machine.__init__

        def counted(machine, *args, **kwargs):
            builds.append(machine)
            build(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "__init__", counted)
        clean = spec.execute()
        assert clean.backend.startswith("compiled") and builds == []
        monkeypatch.setenv(FAULT_ENV, fault)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the warn-once fallback warning
            degraded = spec.execute()
        assert len(builds) == 1
        assert degraded.backend.startswith("scalar")
        assert degraded.fallback_reason.startswith("compiled engine degraded:")
        assert fallback_counts() == {"compiled": 1}
        payloads = [summary.to_dict() for summary in (clean, degraded)]
        for payload in payloads:
            del payload["backend"], payload["fallback_reason"]
        assert payloads[0] == payloads[1]

    def test_fallback_counted_and_warned_once(self, params, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "oom")

        def run_once():
            return run_timing(
                params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
                max_refs_per_node=100,
            )

        with pytest.warns(RuntimeWarning, match="degraded"):
            run_once()
        # Second identical degradation: counted again, warned never.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_once()
        assert fallback_counts() == {"compiled": 2}

    def test_no_compiled_reason_survives_cache_round_trip(self, params, monkeypatch):
        monkeypatch.setenv(tk.NO_COMPILED_ENV, "1")
        result = run_timing(
            params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
            max_refs_per_node=100,
        )
        assert result.backend == "scalar"
        assert "compiled backend unavailable" in result.fallback_reason
        again = RunSummary.from_dict(result.to_dict())
        assert again.fallback_reason == result.fallback_reason

    def test_provenance_reaches_grid_stats(self, params, monkeypatch):
        """RunSummary -> GridStats.fallback_reasons."""
        monkeypatch.setenv(FAULT_ENV, "oom")
        spec = JobSpec.timing(
            params, Scheme.V_COMA, "radix", 8,
            max_refs_per_node=100, overrides={"intensity": 0.2},
        )
        runner = BatchRunner(jobs=1, cache=None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (job,) = runner.run([spec])
        assert job.ok
        assert job.summary.backend == "scalar"
        stats = runner.stats
        assert stats.backends == {"scalar": 1}
        (reason,) = stats.fallback_reasons
        assert reason.startswith("compiled engine degraded:")
        assert stats.fallback_reasons == {reason: 1}
        assert stats.eventful
        rendered = stats.render()
        assert "1 degraded to scalar" in rendered
        assert f"degradations: 1x {reason}" in rendered

    def test_explicit_fast_false_is_not_a_degradation(self, params):
        spec = JobSpec.timing(
            params, Scheme.V_COMA, "radix", 8,
            max_refs_per_node=100, overrides={"intensity": 0.2},
        )
        runner = BatchRunner(jobs=1, cache=None)
        os.environ.pop(FAULT_ENV, None)
        (job,) = runner.run([spec])
        assert job.summary.backend == "compiled"
        assert runner.stats.fallback_reasons == {}

    def test_mutated_state_never_degrades(self, params, monkeypatch):
        """Once a record has left C the tracer is not pristine; a silent
        scalar re-run would write it twice.  EngineDegraded raised after
        the mutation marker must propagate, not degrade."""
        from repro.system import fast_simulator
        from repro.system.simulator import run_summary
        from repro.system.taps import TimingAgent

        def late_failure(run):
            run.mutated = True
            raise EngineDegraded("late failure")

        monkeypatch.setattr(fast_simulator, "run_fast", late_failure)
        with pytest.raises(EngineDegraded):
            run_summary(
                params, Scheme.V_COMA, make_workload("radix", intensity=0.2),
                lambda: TimingAgent(params, Scheme.V_COMA, 8), max_refs_per_node=50,
            )
        assert fallback_counts() == {}


# ----------------------------------------------------------------------
# degradation with a tracer attached
# ----------------------------------------------------------------------
class TestTracedDegradation:
    """Traced runs are compiled; the ``oom`` fault then strikes the C
    trace buffer, which refuses to grow past its first chunk.  Whether
    the ladder may re-run on the scalar engine depends on whether any
    record already reached the tracer."""

    @staticmethod
    def traced(params, streams, path, fast=True):
        """The run's summary, or None when EngineDegraded propagated."""
        from repro.coma.protocol import TranslationAgent
        from repro.fuzz.oracle import literal_workload
        from repro.obs import Tracer
        from repro.system.simulator import run_summary

        with Tracer(str(path)) as tracer:
            try:
                summary, _ = run_summary(
                    params, Scheme.V_COMA, literal_workload(params, streams),
                    TranslationAgent, tracer=tracer, fast=fast,
                )
            except EngineDegraded:
                return None
            return summary

    def test_failure_before_first_record_degrades_to_identical_trace(
        self, params, tmp_path, monkeypatch
    ):
        # No sync op: nothing leaves C before the buffer needs to grow.
        from repro.system.refs import WRITE

        streams = [[(WRITE, (64 * i + 8 * n) % 4096) for i in range(150)] for n in range(4)]
        scalar = self.traced(params, streams, tmp_path / "scalar.jsonl", fast=False)
        monkeypatch.setenv(FAULT_ENV, "oom")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            degraded = self.traced(params, streams, tmp_path / "degraded.jsonl")
        assert degraded is not None
        assert degraded.backend == "scalar"
        assert degraded.fallback_reason.startswith("compiled engine degraded:")
        assert fallback_counts() == {"compiled": 1}
        assert surface(degraded) == surface(scalar)
        assert (tmp_path / "degraded.jsonl").read_bytes() == (
            tmp_path / "scalar.jsonl"
        ).read_bytes()

    def test_failure_after_records_left_c_is_not_rerun(
        self, params, tmp_path, monkeypatch
    ):
        # A small drain limit makes the first fs_run return TRACE_FULL,
        # which hands its records to the tracer; the next call fails.
        from repro.core.timing_kernels import ERR_INTERNAL, get_backend
        from repro.obs import read_trace, trace
        from repro.system.refs import BARRIER, WRITE

        backend = get_backend()
        lib = backend.lib

        class FailingSecondRun:
            runs = 0

            def fs_run(self, *args):
                self.runs += 1
                return lib.fs_run(*args) if self.runs == 1 else ERR_INTERNAL

            def __getattr__(self, name):
                return getattr(lib, name)

        monkeypatch.setattr(trace, "PACKED_FLUSH_BYTES", 4096)
        monkeypatch.setattr(backend, "lib", FailingSecondRun())
        streams = [
            [(WRITE, 8 * n), (BARRIER, 0)]
            + [(WRITE, (64 * i + 8 * n) % 4096) for i in range(150)]
            for n in range(4)
        ]
        result = self.traced(params, streams, tmp_path / "t.jsonl")
        assert result is None  # EngineDegraded propagated, no scalar re-run
        assert backend.lib.runs == 2
        assert fallback_counts() == {}
        records = read_trace(str(tmp_path / "t.jsonl"))
        refs = [r for r in records if r.get("name") == "ref"]
        assert 4 <= len(refs) < 4 * 151  # the first call's, written once
        ids = [r["id"] for r in records if r.get("kind") == "span"]
        assert len(ids) == len(set(ids))
        assert any(r.get("name") == "sim.barrier" for r in records)


# ----------------------------------------------------------------------
# the ladder itself
# ----------------------------------------------------------------------
class TestLadder:
    def test_two_tiers_in_order(self):
        ladder = degradation_ladder()
        assert [tier.tier for tier in ladder] == ["compiled", "scalar"]
        assert ladder[-1].healthy  # scalar is unconditional

    def test_resolved_tier_prefers_compiled(self):
        assert resolved_tier().tier == "compiled"
        assert not only_last_resort()

    def test_only_last_resort_when_everything_disabled(self, monkeypatch):
        monkeypatch.setenv(tk.NO_COMPILED_ENV, "1")
        ladder = degradation_ladder()
        assert only_last_resort(ladder)
        assert resolved_tier(ladder).tier == "scalar"

    def test_render_marks_active_tier(self):
        text = render_ladder()
        assert "compiled" in text and "<- active" in text
        assert "scalar" in text

    def test_injected_fault_parsing(self, monkeypatch):
        assert injected_fault() is None
        monkeypatch.setenv(FAULT_ENV, "OOM")
        assert injected_fault() == "oom"


# ----------------------------------------------------------------------
# compiled-library lifecycle
# ----------------------------------------------------------------------
class TestLibraryLifecycle:
    def test_corrupted_library_quarantined_and_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv(tk.CACHE_ENV, str(tmp_path))
        tk.reset_backend()
        try:
            # Build (but do not load) the cached .so, then corrupt it on
            # disk — the bit-rot scenario a later process walks into.
            path = tk._build_library(tk._C_SOURCE)
            blob = bytearray(open(path, "rb").read())
            blob[len(blob) // 2] ^= 0xFF
            open(path, "wb").write(bytes(blob))
            rebuilt = tk.get_backend()
            assert rebuilt is not None
            health = tk.backend_health()
            assert health["status"] == "ok"
            assert health["quarantined_libraries"] >= 1
            assert counter_value("repro_fastsim_quarantined_libraries_total") >= 1
            quarantined = [
                name for name in os.listdir(tmp_path) if ".corrupt-" in name
            ]
            assert quarantined
        finally:
            tk.reset_backend()

    def test_failed_seeding_probe_quarantines_library(self, tmp_path, monkeypatch):
        """A library whose C seeding diverges from random.Random(seed)
        is quarantined and rebuilt; when the rebuild fails the probe
        too, the backend is declared unavailable."""

        class SkewedSeeding:
            """The real library with one seeded state word flipped."""

            def __init__(self, lib):
                self._lib = lib

            def fs_seed_selftest(self, seed, state, out, n):
                self._lib.fs_seed_selftest(seed, state, out, n)
                state[5] ^= 1

            def __getattr__(self, name):
                return getattr(self._lib, name)

        real_self_test = tk._self_test
        monkeypatch.setattr(
            tk, "_self_test", lambda ffi, lib: real_self_test(ffi, SkewedSeeding(lib))
        )
        monkeypatch.setenv(tk.CACHE_ENV, str(tmp_path))
        tk.reset_backend()
        try:
            assert tk.get_backend() is None
            assert "seeding diverges" in tk.backend_status()
            quarantined = [
                name for name in os.listdir(tmp_path) if ".corrupt-" in name
            ]
            assert len(quarantined) == 1  # the cached build; its rebuild failed too
        finally:
            tk.reset_backend()

    def test_missing_sidecar_triggers_rebuild(self, tmp_path, monkeypatch):
        monkeypatch.setenv(tk.CACHE_ENV, str(tmp_path))
        tk.reset_backend()
        try:
            path = tk._build_library(tk._C_SOURCE)
            os.unlink(tk._sidecar_path(path))
            assert tk.get_backend() is not None
        finally:
            tk.reset_backend()

    def test_build_failure_still_yields_scalar_result(
        self, params, tmp_path, monkeypatch
    ):
        """gcc unavailable: the ladder bottoms out at the oracle with a
        structured reason — never a crash."""
        monkeypatch.setenv(tk.CACHE_ENV, str(tmp_path / "empty-so-cache"))
        monkeypatch.setenv("PATH", "/nonexistent")  # no gcc to be found
        tk.reset_backend()
        try:
            assert tk.get_backend() is None
            health = tk.backend_health()
            assert health["status"] == "unavailable"
            assert "compile failed" in health["detail"]
            result = run_timing(
                params, Scheme.V_COMA, make_workload("radix", intensity=0.2), 8,
                max_refs_per_node=100,
            )
            assert result.backend == "scalar"
            assert "compiled backend unavailable" in result.fallback_reason
        finally:
            tk.reset_backend()

    def test_backend_health_shape(self):
        health = tk.backend_health()
        assert set(health) >= {"status", "detail", "path", "digest", "cflags"}
        assert health["status"] == "ok"
        assert health["digest"]


# ----------------------------------------------------------------------
# fork hygiene (satellite)
# ----------------------------------------------------------------------
class TestForkAwareStreamCache:
    def test_child_starts_with_empty_stream_cache(self):
        import multiprocessing

        cache = tk.stream_cache()
        cache.clear()
        cache.put("parent-key", ([1, 2, 3], [4, 5, 6]))
        assert cache.get("parent-key") is not None

        ctx = multiprocessing.get_context("fork")

        def probe(queue):
            child_cache = tk.stream_cache()
            queue.put((len(child_cache), child_cache.hits, child_cache.misses))

        queue = ctx.Queue()
        proc = ctx.Process(target=probe, args=(queue,))
        proc.start()
        entries, hits, misses = queue.get(timeout=30)
        proc.join(timeout=30)
        assert entries == 0  # inherited entries cleared in the child
        assert hits == 0 and misses == 0
        # The parent's cache is untouched.
        assert cache.get("parent-key") is not None
        cache.clear()
