"""Unit tests for the batch runner, job specs, and the result cache."""

import dataclasses
import json
import multiprocessing
import os
import warnings

import pytest

from repro import MachineParams, Scheme
from repro.common.errors import (
    ConfigurationError,
    JobError,
    ProtocolError,
    RunInterrupted,
)
from repro.core import replay
from repro.core.ladder import FAULT_ENV
from repro.core.schemes import TapPoint
from repro.core.timing_kernels import get_backend
from repro.core.tlb import Organization
from repro.runner import (
    BatchRunner,
    JobFailure,
    JobSpec,
    ResultCache,
    RunSummary,
    TraceStore,
    batch,
    default_cache_dir,
)
from repro.runner.cache import CACHE_DIR_ENV, CACHE_FORMAT


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


def sweep_spec(params, **overrides):
    kwargs = dict(
        sizes=(8, 32),
        orgs=(Organization.FULLY_ASSOCIATIVE,),
        max_refs_per_node=300,
        overrides={"intensity": 0.2},
    )
    kwargs.update(overrides)
    return JobSpec.sweep(params, "radix", **kwargs)


def timing_spec(params, **overrides):
    kwargs = dict(max_refs_per_node=300, overrides={"intensity": 0.2})
    kwargs.update(overrides)
    return JobSpec.timing(params, Scheme.V_COMA, "fft", 8, **kwargs)


def fail_labelled(monkeypatch, label, exc):
    """Make the job labelled ``label`` raise ``exc`` instead of running.
    Patched on the class, so forked pool workers inherit it."""
    execute = JobSpec.execute

    def failing(spec, *args, **kwargs):
        if spec.label == label:
            raise exc
        return execute(spec, *args, **kwargs)

    monkeypatch.setattr(JobSpec, "execute", failing)


def flip_bytes(path):
    """Corrupt a stored entry in place: invert eight bytes spread over it."""
    blob = bytearray(path.read_bytes())
    for i in range(8):
        blob[i * len(blob) // 8] ^= 0xFF
    path.write_bytes(bytes(blob))


# ----------------------------------------------------------------------
# JobSpec
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_content_hash_is_stable(self, params):
        assert sweep_spec(params).content_hash() == sweep_spec(params).content_hash()

    def test_label_excluded_from_hash(self, params):
        plain = sweep_spec(params)
        labelled = sweep_spec(params, label="figure-8")
        assert plain.content_hash() == labelled.content_hash()
        assert labelled.describe() == "figure-8"

    def test_hash_sensitive_to_params_and_knobs(self, params):
        base = sweep_spec(params)
        other_params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256, seed=99)
        assert base.content_hash() != sweep_spec(other_params).content_hash()
        assert base.content_hash() != sweep_spec(params, sizes=(8,)).content_hash()
        assert base.content_hash() != sweep_spec(params, overrides={"intensity": 0.3}).content_hash()
        assert base.content_hash() != timing_spec(params).content_hash()

    def test_hash_folds_in_version(self, params):
        spec = sweep_spec(params)
        assert spec.content_hash(version="1.0") != spec.content_hash(version="2.0")

    def test_timing_requires_scheme(self, params):
        with pytest.raises(ValueError):
            JobSpec(kind="timing", params=params, workload="radix")

    def test_rejects_unknown_kind(self, params):
        with pytest.raises(ValueError):
            JobSpec(kind="mystery", params=params, workload="radix")

    def test_execute_sweep_matches_direct_run(self, params):
        from repro.analysis import run_miss_sweep
        from repro.workloads import make_workload

        spec = sweep_spec(params)
        direct = run_miss_sweep(
            params,
            make_workload("radix", intensity=0.2),
            sizes=(8, 32),
            orgs=(Organization.FULLY_ASSOCIATIVE,),
            max_refs_per_node=300,
        )
        summary = spec.execute()
        tap = TapPoint.L0
        assert summary.study_results().misses(tap, 8, Organization.FULLY_ASSOCIATIVE) == (
            direct.study_results().misses(tap, 8, Organization.FULLY_ASSOCIATIVE)
        )
        assert summary.total_time == direct.total_time


# ----------------------------------------------------------------------
# RunSummary
# ----------------------------------------------------------------------
class TestRunSummary:
    def test_round_trips_through_json(self, params):
        summary = timing_spec(params).execute()
        clone = RunSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
        assert clone.scheme is summary.scheme
        assert clone.total_time == summary.total_time
        assert clone.total_references == summary.total_references
        assert clone.timing_summary() == summary.timing_summary()
        assert clone.aggregate_breakdown().total == summary.aggregate_breakdown().total
        assert clone.translation_overhead_ratio() == summary.translation_overhead_ratio()

    def test_study_results_survive_round_trip(self, params):
        summary = sweep_spec(params).execute()
        clone = RunSummary.from_dict(summary.to_dict())
        org = Organization.FULLY_ASSOCIATIVE
        for tap in (TapPoint.L0, TapPoint.HOME):
            for size in (8, 32):
                assert clone.study_results().misses(tap, size, org) == (
                    summary.study_results().misses(tap, size, org)
                )


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_default_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_round_trip(self, tmp_path, params):
        cache = ResultCache(tmp_path)
        spec = timing_spec(params)
        assert cache.get(spec) is None
        summary = spec.execute()
        cache.put(spec, summary, elapsed=1.0)
        assert cache.contains(spec)
        assert len(cache) == 1
        restored = cache.get(spec)
        assert restored.total_time == summary.total_time
        assert restored.timing_summary() == summary.timing_summary()

    def test_corrupt_entry_is_a_miss(self, tmp_path, params):
        cache = ResultCache(tmp_path)
        spec = timing_spec(params)
        cache.put(spec, spec.execute(), elapsed=1.0)
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None

    @pytest.mark.parametrize(
        "text", [f'{{"format": {CACHE_FORMAT}, "summary": {{}}}}', "[1]"],
        ids=["malformed-summary", "not-an-object"],
    )
    def test_malformed_entry_is_quarantined(self, tmp_path, params, text):
        cache = ResultCache(tmp_path)
        spec = timing_spec(params)
        path = cache.put(spec, spec.execute(), elapsed=1.0)
        path.write_text(text)
        assert cache.get(spec) is None
        assert (cache.misses, cache.quarantined) == (1, 1)
        assert not path.exists()

    def test_format_mismatch_is_a_plain_miss(self, tmp_path, params):
        cache = ResultCache(tmp_path)
        spec = timing_spec(params)
        path = cache.put(spec, spec.execute(), elapsed=1.0)
        payload = json.loads(path.read_text())
        payload["format"] = CACHE_FORMAT + 1
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert (cache.misses, cache.quarantined) == (1, 0)
        assert path.exists()  # another format's entry is not corrupt


# ----------------------------------------------------------------------
# BatchRunner
# ----------------------------------------------------------------------
class TestBatchRunner:
    def test_serial_run_preserves_order_and_counts(self, params):
        runner = BatchRunner(jobs=1)
        specs = [sweep_spec(params), timing_spec(params)]
        jobs = runner.run(specs)
        assert [job.spec for job in jobs] == specs
        assert runner.simulations_run == 2
        assert all(not job.from_cache for job in jobs)
        assert all(job.elapsed > 0 for job in jobs)

    def test_warm_cache_runs_zero_simulations(self, tmp_path, params):
        specs = [sweep_spec(params), timing_spec(params)]
        first = BatchRunner(jobs=1, cache=ResultCache(tmp_path))
        first.run(specs)
        assert first.simulations_run == 2

        second = BatchRunner(jobs=1, cache=ResultCache(tmp_path))
        jobs = second.run(specs)
        assert second.simulations_run == 0
        assert second.cache_hits == 2
        assert all(job.from_cache for job in jobs)
        assert jobs[0].summary.total_time == first.run(specs)[0].summary.total_time

    def test_progress_called_for_every_job(self, tmp_path, params):
        calls = []
        cache = ResultCache(tmp_path)
        BatchRunner(jobs=1, cache=cache).run([timing_spec(params)])
        runner = BatchRunner(
            jobs=1, cache=cache, progress=lambda done, total, job: calls.append((done, total, job.from_cache))
        )
        runner.run([timing_spec(params), sweep_spec(params)])
        assert (1, 2, True) in calls
        assert (2, 2, False) in calls

    def test_parallel_matches_serial(self, params):
        specs = [
            sweep_spec(params),
            timing_spec(params),
            timing_spec(params, overrides={"intensity": 0.3}),
        ]
        serial = BatchRunner(jobs=1).run(specs)
        parallel = BatchRunner(jobs=4).run(specs)
        for s_job, p_job in zip(serial, parallel):
            assert p_job.summary.to_dict() == s_job.summary.to_dict()

    def test_effective_jobs_clamped_to_cpu_count(self, params, monkeypatch):
        monkeypatch.setattr(batch, "usable_cpus", lambda: 1)
        runner = BatchRunner(jobs=8)
        runner.run([timing_spec(params), timing_spec(params, label="b")])
        assert runner.effective_jobs == 1
        assert runner.stats.jobs_clamped and runner.stats.requested_jobs == 8

    def test_effective_jobs_clamped_to_cpu_quota(self, params, monkeypatch):
        """A container limited to one CPU on a 64-core host: the cgroup
        quota, not the host's core count, bounds the pool, exactly as it
        bounds the replay's threads."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        monkeypatch.setattr(replay, "_cpu_quota", lambda: 1)
        runner = BatchRunner(jobs=64)
        runner.run([timing_spec(params, label=str(i)) for i in range(3)])
        assert runner.effective_jobs == 1
        assert runner.stats.requested_jobs == 64
        assert replay.replay_threads(1000) == 1

    def test_effective_jobs_clamped_to_pending(self, params, tmp_path):
        # A fully warm cache leaves nothing pending: no workers spawn.
        cache = ResultCache(tmp_path)
        spec = timing_spec(params)
        BatchRunner(jobs=1, cache=cache).run([spec])
        runner = BatchRunner(jobs=8, cache=cache)
        runner.run([spec])
        assert runner.effective_jobs == 1
        assert runner.simulations_run == 0

    def test_no_replay_matches_replay(self, params):
        """A replayed grid cell equals the coupled scalar sweep, the
        no-replay oracle the pipeline is checked against."""
        from repro.analysis import run_miss_sweep
        from repro.workloads import make_workload

        spec = sweep_spec(params)
        fast = BatchRunner(jobs=1).run([spec])[0].summary
        slow = run_miss_sweep(
            params, make_workload("radix", intensity=0.2), sizes=spec.sizes,
            orgs=(Organization.FULLY_ASSOCIATIVE,),
            max_refs_per_node=spec.max_refs_per_node, fast=False,
        )
        assert slow.backend == "scalar"

        def surface(summary):
            # The engine-provenance stamps are allowed (expected, even)
            # to differ: the replayed summary reports "<capture>+replay".
            data = summary.to_dict()
            data.pop("backend", None)
            data.pop("fallback_reason", None)
            return data

        assert surface(fast) == surface(slow)

    def test_trace_store_reused_across_runs(self, params, tmp_path):
        store = TraceStore(root=tmp_path)
        specs = [sweep_spec(params), sweep_spec(params, sizes=(16, 64))]
        runner = BatchRunner(jobs=1, trace_store=store)
        jobs = runner.run(specs)
        # Both sweeps share one hierarchy identity: record once, replay twice.
        assert len(store) == 1
        assert store.hits == 1 and store.misses == 1
        assert jobs[0].summary.study_results() is not None


# ----------------------------------------------------------------------
# Failure capture and keep-going (serial path)
# ----------------------------------------------------------------------
class TestSupervisionSerial:
    def test_deterministic_failure_fails_fast_by_default(self, params, monkeypatch):
        fail_labelled(monkeypatch, "bad", ProtocolError("injected bug"))
        runner = BatchRunner(jobs=1)
        with pytest.raises(ProtocolError, match="injected bug"):
            runner.run([timing_spec(params), timing_spec(params, label="bad")])
        assert runner.stats.completed == 1 and runner.stats.failed == 1
        assert runner.stats.failure_labels == ["bad: ProtocolError"]

    def test_keep_going_records_structured_failure(self, params, monkeypatch):
        fail_labelled(monkeypatch, "bad", ConfigurationError("broken spec"))
        runner = BatchRunner(jobs=1, keep_going=True)
        good = timing_spec(params)
        results = runner.run([timing_spec(params, label="bad"), good])
        assert len(results) == 2
        failure, success = results
        assert isinstance(failure, JobFailure)
        assert not failure.ok and failure.summary is None
        assert failure.error_type == "ConfigurationError"
        assert failure.message == "broken spec"
        assert "broken spec" in failure.traceback
        assert success.ok and success.summary.total_time > 0
        assert runner.stats.failed == 1 and runner.stats.completed == 1

    def test_fail_fast_raises_original_exception_serially(self, params, monkeypatch):
        fail_labelled(monkeypatch, "bad", OSError("disk gone"))
        runner = BatchRunner(jobs=1)
        with pytest.raises(OSError, match="disk gone"):
            runner.run([timing_spec(params, label="bad")])

    def test_progress_reports_failures_under_keep_going(self, params, monkeypatch):
        fail_labelled(monkeypatch, "a", ValueError("boom"))
        seen = []
        runner = BatchRunner(
            jobs=1, keep_going=True,
            progress=lambda done, total, job: seen.append((done, total, job.ok)),
        )
        runner.run([timing_spec(params, label="a"), timing_spec(params, label="b")])
        assert seen == [(1, 2, False), (2, 2, True)]

    def test_resume_requires_manifest_dir(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(resume="some-run")


# ----------------------------------------------------------------------
# Corrupt store entries: a miss that re-simulates, never a wrong answer
# ----------------------------------------------------------------------
class TestCorruptionRecovery:
    def test_corrupt_cache_entry_is_resimulated(self, tmp_path, params):
        spec = timing_spec(params)
        cache = ResultCache(tmp_path)
        (clean,) = BatchRunner(jobs=1, cache=cache).run([spec])
        assert cache.contains(spec)

        flip_bytes(cache.path_for(spec))
        runner = BatchRunner(jobs=1, cache=cache)
        (job,) = runner.run([spec])
        # The flipped entry must read as a miss, never a wrong answer.
        assert not job.from_cache
        assert runner.simulations_run == 1
        assert runner.stats.store_quarantined == 1
        assert job.summary.to_dict() == clean.summary.to_dict()

    def test_corrupt_trace_is_quarantined_and_rerecorded(self, tmp_path, params):
        spec = sweep_spec(params)
        store = TraceStore(root=tmp_path)
        (clean,) = BatchRunner(jobs=1, trace_store=store).run([spec])
        assert len(store) == 1

        flip_bytes(store.path_for(spec))
        runner = BatchRunner(jobs=1, trace_store=store)
        with pytest.warns(RuntimeWarning, match="corrupt tap trace"):
            (job,) = runner.run([spec])
        assert store.corrupt_dropped == 1
        assert job.ok
        assert job.summary.to_dict() == clean.summary.to_dict()
        # The store healed itself: a fresh trace is back on disk.
        assert len(store) == 1


# ----------------------------------------------------------------------
# The process pool (jobs=2 with forked workers)
# ----------------------------------------------------------------------
@pytest.fixture
def pool(monkeypatch):
    """Give ``jobs=2`` two forked workers whatever CPUs the host has."""
    monkeypatch.setattr(batch, "usable_cpus", lambda: 2)


@pytest.fixture(scope="module")
def grid():
    """12 timing jobs: 2 workloads x 2 schemes x 3 TLB/DLB sizes."""
    params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
    return [
        JobSpec.timing(
            params, scheme, name, entries,
            max_refs_per_node=300, overrides={"intensity": 0.2},
        )
        for name in ("fft", "radix")
        for scheme in (Scheme.V_COMA, Scheme.L0_TLB)
        for entries in (8, 32, 128)
    ]


@pytest.fixture(scope="module")
def baseline(grid):
    """Clean serial run of the grid; pool runs must match it bit for bit."""
    return [job.summary.to_dict() for job in BatchRunner(jobs=1).run(grid)]


def assert_no_leaked_workers():
    assert multiprocessing.active_children() == []


class TestPool:
    def test_dead_worker_fails_the_run_and_names_its_job(self, params, monkeypatch, pool):
        parent = os.getpid()
        execute = JobSpec.execute

        def dying(spec, *args, **kwargs):
            if spec.label == "doomed":
                assert os.getpid() != parent, "the job ran in-process"
                os._exit(1)
            return execute(spec, *args, **kwargs)

        monkeypatch.setattr(JobSpec, "execute", dying)
        specs = [
            timing_spec(params, label="first"),
            timing_spec(params, label="doomed"),
            timing_spec(params, label="last"),
        ]
        runner = BatchRunner(jobs=2)
        with pytest.raises(JobError, match="doomed"):
            runner.run(specs)
        assert runner.effective_jobs == 2
        assert_no_leaked_workers()

    def test_fail_fast_raises_the_worker_exception(self, grid, monkeypatch, pool):
        fail_labelled(monkeypatch, "bad", ProtocolError("injected bug"))
        specs = list(grid)
        specs[2] = dataclasses.replace(specs[2], label="bad")
        runner = BatchRunner(jobs=2)
        with pytest.raises(ProtocolError, match="injected bug"):
            runner.run(specs)
        assert runner.effective_jobs == 2
        assert runner.stats.failure_labels == ["bad: ProtocolError"]
        assert_no_leaked_workers()

    def test_keep_going_returns_every_outcome_in_spec_order(
        self, grid, baseline, monkeypatch, pool
    ):
        fail_labelled(monkeypatch, "bad", ProtocolError("injected bug"))
        specs = list(grid)
        specs[2] = dataclasses.replace(specs[2], label="bad")
        runner = BatchRunner(jobs=2, keep_going=True)
        jobs = runner.run(specs)
        assert runner.effective_jobs == 2
        assert_no_leaked_workers()
        assert [job.spec for job in jobs] == specs
        failure = jobs[2]
        assert not failure.ok and failure.error_type == "ProtocolError"
        assert "injected bug" in failure.traceback
        assert runner.stats.failed == 1 and runner.stats.completed == 11
        good = [job.summary.to_dict() for job in jobs if job.ok]
        assert good == baseline[:2] + baseline[3:]

    @pytest.mark.skipif(get_backend() is None, reason="compiled timing backend unavailable")
    def test_degraded_compiled_engine_grid_matches_clean_run(
        self, grid, baseline, monkeypatch, pool
    ):
        """Every headless job meets an internal engine error in its
        worker and re-runs on a fresh scalar machine: same numbers,
        each stamped with the degradation."""
        monkeypatch.setenv(FAULT_ENV, "internal")
        runner = BatchRunner(jobs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the warn-once fallback warning
            jobs = runner.run(grid)
        assert runner.effective_jobs == 2
        assert_no_leaked_workers()
        assert len(jobs) == 12 and all(job.ok for job in jobs)
        assert runner.stats.backends == {"scalar": 12}
        (reason,) = runner.stats.fallback_reasons
        assert reason.startswith("compiled engine degraded:")
        assert runner.stats.fallback_reasons[reason] == 12

        def surface(payload):
            return {k: v for k, v in payload.items() if k not in ("backend", "fallback_reason")}

        assert [surface(job.summary.to_dict()) for job in jobs] == [
            surface(payload) for payload in baseline
        ]
        assert all(payload["backend"] == "compiled" for payload in baseline)


class TestInterruptAndResume:
    def test_sigint_resume_runs_only_missing_jobs(
        self, grid, baseline, tmp_path, pool
    ):
        """A SIGINT'd pool run resumes from its manifest bit-identically."""

        def interrupt_late(index, total, job):
            if index >= 5:
                raise KeyboardInterrupt  # what SIGINT raises in the parent

        runner = BatchRunner(jobs=2, progress=interrupt_late, manifest_dir=tmp_path)
        with pytest.raises(RunInterrupted) as excinfo:
            runner.run(grid)
        assert runner.effective_jobs == 2
        assert_no_leaked_workers()
        err = excinfo.value
        assert err.run_id == runner.run_id
        assert 5 <= err.completed < 12 and err.total == 12
        assert f"--resume {err.run_id}" in str(err)

        resumed = BatchRunner(jobs=2, manifest_dir=tmp_path, resume=err.run_id)
        jobs = resumed.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12 and all(job.ok for job in jobs)
        # Only the jobs the interrupt lost are re-simulated...
        assert resumed.stats.from_manifest == err.completed
        assert resumed.simulations_run == 12 - err.completed
        # ...and the merged grid is bit-identical to a clean run.
        assert [job.summary.to_dict() for job in jobs] == baseline

    def test_resume_of_completed_run_simulates_nothing(self, grid, tmp_path):
        first = BatchRunner(jobs=1, manifest_dir=tmp_path)
        first.run(grid)
        resumed = BatchRunner(jobs=1, manifest_dir=tmp_path, resume=first.run_id)
        jobs = resumed.run(grid)
        assert all(job.ok and job.from_manifest for job in jobs)
        assert resumed.simulations_run == 0


# ----------------------------------------------------------------------
# Store size caps from the environment (the LRU policy itself is in
# test_store_contract.py)
# ----------------------------------------------------------------------
class TestCacheSizeCap:
    def test_env_cap_parsing(self, monkeypatch):
        from repro.runner.cache import CACHE_MAX_MB_ENV, default_max_bytes

        monkeypatch.delenv(CACHE_MAX_MB_ENV, raising=False)
        assert default_max_bytes() is None
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "2")
        assert default_max_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "0.5")
        assert default_max_bytes() == 512 * 1024
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "junk")
        assert default_max_bytes() is None
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "-3")
        assert default_max_bytes() is None

    def test_trace_store_env_cap(self, tmp_path, monkeypatch):
        from repro.runner.traces import (
            DEFAULT_TRACE_MAX_BYTES,
            TRACE_MAX_MB_ENV,
            TraceStore,
        )

        monkeypatch.delenv(TRACE_MAX_MB_ENV, raising=False)
        assert TraceStore(tmp_path).max_bytes == DEFAULT_TRACE_MAX_BYTES
        monkeypatch.setenv(TRACE_MAX_MB_ENV, "3")
        assert TraceStore(tmp_path).max_bytes == 3 * 1024 * 1024
