"""Unit tests for the batch runner, job specs, and the result cache."""

import json

import pytest

from repro import MachineParams, Scheme
from repro.core.schemes import TapPoint
from repro.core.tlb import Organization
from repro.runner import BatchRunner, JobSpec, ResultCache, RunSummary, default_cache_dir
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
        import os as _os

        monkeypatch.setattr(_os, "cpu_count", lambda: 1)
        import repro.runner.batch as batch_mod

        runner = BatchRunner(jobs=8)
        runner.run([timing_spec(params)])
        assert runner.effective_jobs == 1

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
        from repro.runner import TraceStore

        store = TraceStore(root=tmp_path)
        specs = [sweep_spec(params), sweep_spec(params, sizes=(16, 64))]
        runner = BatchRunner(jobs=1, trace_store=store)
        jobs = runner.run(specs)
        # Both sweeps share one hierarchy identity: record once, replay twice.
        assert len(store) == 1
        assert store.hits == 1 and store.misses == 1
        assert jobs[0].summary.study_results() is not None


# ----------------------------------------------------------------------
# Supervision: failure capture, retries, keep-going (serial path)
# ----------------------------------------------------------------------
class TestSupervisionSerial:
    def test_deterministic_failure_fails_fast_by_default(self, params):
        from repro.common.errors import ProtocolError
        from repro.runner import FaultPlan

        plan = FaultPlan().raising(1, "ProtocolError", "injected bug")
        runner = BatchRunner(jobs=1, retries=3, retry_delay=0.01, fault_plan=plan)
        with pytest.raises(ProtocolError, match="injected bug"):
            runner.run([timing_spec(params), timing_spec(params, label="bad")])
        # Deterministic failures are never retried, whatever the budget.
        assert runner.stats.retries == 0
        assert runner.stats.deterministic_failures == 1

    def test_keep_going_records_structured_failure(self, params):
        from repro.runner import FaultPlan, JobFailure

        plan = FaultPlan().raising(0, "ConfigurationError", "broken spec")
        runner = BatchRunner(
            jobs=1, retries=2, retry_delay=0.01, fault_plan=plan, keep_going=True
        )
        good = timing_spec(params)
        results = runner.run([timing_spec(params, label="bad"), good])
        assert len(results) == 2
        failure, success = results
        assert isinstance(failure, JobFailure)
        assert not failure.ok and failure.summary is None
        assert failure.error_type == "ConfigurationError"
        assert failure.attempts == 1 and not failure.transient
        assert success.ok and success.summary.total_time > 0
        assert runner.stats.failed == 1 and runner.stats.completed == 1
        assert runner.stats.retries == 0

    def test_transient_failure_retried_until_success(self, params):
        from repro.runner import FaultPlan

        plan = FaultPlan().transient(0, times=2)
        runner = BatchRunner(jobs=1, retries=2, retry_delay=0.001, fault_plan=plan)
        (job,) = runner.run([timing_spec(params)])
        assert job.ok and job.attempts == 3
        assert runner.stats.retries == 2
        assert runner.stats.failed == 0
        # The retried result matches an undisturbed run bit-for-bit.
        (clean,) = BatchRunner(jobs=1).run([timing_spec(params)])
        assert job.summary.to_dict() == clean.summary.to_dict()

    def test_transient_failure_exhausts_budget(self, params):
        from repro.runner import FaultPlan

        plan = FaultPlan().transient(0, times=None)
        runner = BatchRunner(
            jobs=1, retries=2, retry_delay=0.001, fault_plan=plan, keep_going=True
        )
        (failure,) = runner.run([timing_spec(params)])
        assert not failure.ok
        assert failure.transient and failure.error_type == "OSError"
        assert failure.attempts == 3  # 1 try + 2 retries
        assert runner.stats.transient_failures == 1

    def test_fail_fast_raises_original_exception_serially(self, params):
        from repro.runner import FaultPlan

        plan = FaultPlan().transient(0, times=None)
        runner = BatchRunner(jobs=1, retries=0, fault_plan=plan)
        with pytest.raises(OSError, match="injected transient fault"):
            runner.run([timing_spec(params)])

    def test_backoff_is_deterministic_and_exponential(self, params):
        runner = BatchRunner(jobs=1, retries=3, retry_delay=0.25)
        first = runner._backoff(3, 1)
        assert first == runner._backoff(3, 1)
        assert runner._backoff(3, 2) > first
        assert runner._backoff(4, 1) != first  # jitter varies by job
        # Jitter stays within [0.5, 1.0] of the nominal exponential.
        for attempt in (1, 2, 3):
            nominal = 0.25 * 2 ** (attempt - 1)
            delay = runner._backoff(7, attempt)
            assert 0.5 * nominal <= delay <= nominal

    def test_progress_reports_failures_under_keep_going(self, params):
        from repro.runner import FaultPlan

        seen = []
        plan = FaultPlan().raising(0, "ValueError", "boom")
        runner = BatchRunner(
            jobs=1, fault_plan=plan, keep_going=True,
            progress=lambda done, total, job: seen.append((done, total, job.ok)),
        )
        runner.run([timing_spec(params), timing_spec(params, label="b")])
        assert seen == [(1, 2, False), (2, 2, True)]

    def test_resume_requires_manifest_dir(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BatchRunner(resume="some-run")


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
