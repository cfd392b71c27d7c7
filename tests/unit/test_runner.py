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
    """Make the job labelled ``label`` fail with ``exc`` instead of
    running, whichever unit of work it runs in; the other cells of its
    unit run.  Patched on the runner's module, so forked pool workers
    inherit it."""
    execute_unit = batch.execute_unit

    def failing(specs, trace_store=None):
        rest = [spec for spec in specs if spec.label != label]
        outcomes = iter(execute_unit(rest, trace_store) if rest else ())
        return [exc if spec.label == label else next(outcomes) for spec in specs]

    monkeypatch.setattr(batch, "execute_unit", failing)


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
        # Two workload streams: two units of work.
        runner.run([timing_spec(params), timing_spec(params, label="b", max_refs_per_node=301)])
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
        runner.run([timing_spec(params, label=str(i), max_refs_per_node=300 + i) for i in range(3)])
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
        BatchRunner(jobs=1, trace_store=store).run([sweep_spec(params)])
        runner = BatchRunner(jobs=1, trace_store=store)
        (job,) = runner.run([sweep_spec(params, sizes=(16, 64))])
        # Both sweeps share one hierarchy identity: record once, and the
        # second run replays the stored recording.
        assert len(store) == 1
        assert store.hits == 1 and store.misses == 1
        assert job.summary.study_results() is not None


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
        # Three workload streams: three units of work, each a single
        # cell that runs through JobSpec.execute.
        specs = [
            timing_spec(params, label="first", max_refs_per_node=300),
            timing_spec(params, label="doomed", max_refs_per_node=301),
            timing_spec(params, label="last", max_refs_per_node=302),
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
# Recordings as units of work: the cells of one trace run together
# ----------------------------------------------------------------------
FA = Organization.FULLY_ASSOCIATIVE
SA = Organization.SET_ASSOCIATIVE
DM = Organization.DIRECT_MAPPED


@pytest.fixture(scope="module")
def unit_grid():
    """Four COMA cells on radix's recording (overlapping and disjoint
    bank grids, a sharing cell), a timing and a CC-NUMA cell of radix
    that never replay it, and a second recording (fft)."""
    params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
    common = dict(max_refs_per_node=300, overrides={"intensity": 0.2})
    return [
        JobSpec.sweep(params, "radix", sizes=(8, 32), orgs=(FA,), label="base", **common),
        JobSpec.timing(params, Scheme.V_COMA, "radix", 8, label="timing", **common),
        JobSpec.sweep(params, "radix", sizes=(32, 128), orgs=(FA, DM), label="overlap", **common),
        JobSpec.sharing(params, "radix", 8, label="sharing", **common),
        JobSpec.sweep(params, "radix", sizes=(16,), orgs=(SA,), label="disjoint", **common),
        JobSpec.sweep(params, "radix", sizes=(8, 32), orgs=(FA,), machine="numa",
                      label="numa", **common),
        JobSpec.sweep(params, "fft", sizes=(8, 64), orgs=(FA, DM), label="fft", **common),
    ]


@pytest.fixture(scope="module")
def alone(unit_grid):
    """Every cell of the grid run by itself."""
    return {spec.label: spec.execute().to_dict() for spec in unit_grid}


def count_captures(monkeypatch):
    """Count captures per workload, in this process and in forked
    workers alike (the counters live in shared memory)."""
    from repro.system import taptrace

    counts = {name: multiprocessing.Value("i", 0) for name in ("radix", "fft")}
    capture = taptrace.capture_tap_traces

    def counting(params, workload, **kwargs):
        with counts[workload.name].get_lock():
            counts[workload.name].value += 1
        return capture(params, workload, **kwargs)

    monkeypatch.setattr(taptrace, "capture_tap_traces", counting)
    return counts


class TestRecordingUnits:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_equals_the_cell_run_alone(
        self, unit_grid, alone, monkeypatch, pool, jobs
    ):
        captures = count_captures(monkeypatch)
        runner = BatchRunner(jobs=jobs)
        results = runner.run(unit_grid)
        assert runner.effective_jobs == jobs
        assert_no_leaked_workers()
        assert [job.spec for job in results] == unit_grid
        for job in results:
            assert job.ok and job.elapsed > 0
            assert job.summary.to_dict() == alone[job.spec.label], job.spec.label
        assert {name: count.value for name, count in captures.items()} == {"radix": 1, "fft": 1}
        numa = results[5].summary
        assert numa.fallback_reason == "custom machine type NumaMachine"
        assert runner.simulations_run == len(unit_grid) == runner.stats.simulations

    def test_one_store_read_per_recording(self, unit_grid, alone, tmp_path):
        store = TraceStore(root=tmp_path)
        BatchRunner(jobs=1, trace_store=store).run(unit_grid)
        assert (store.hits, store.misses, len(store)) == (0, 2, 2)
        results = BatchRunner(jobs=1, trace_store=store).run(unit_grid)
        assert (store.hits, store.misses) == (2, 2)
        assert all(job.summary.to_dict() == alone[job.spec.label] for job in results)

    def test_partly_cached_unit_replays_only_its_uncached_cells(
        self, unit_grid, alone, tmp_path, monkeypatch
    ):
        from repro.system import taptrace

        cache = ResultCache(tmp_path)
        BatchRunner(jobs=1, cache=cache).run([unit_grid[2]])
        replayed = []
        bank_miss_counts = taptrace.bank_miss_counts

        def recording(streams, configs, seed):
            replayed.append(set(configs))
            return bank_miss_counts(streams, configs, seed)

        monkeypatch.setattr(taptrace, "bank_miss_counts", recording)
        runner = BatchRunner(jobs=1, cache=cache)
        results = runner.run(unit_grid)
        # One replay per recording: radix's uncached sweep cells, then fft.
        assert replayed == [{(8, FA), (32, FA), (16, SA)}, {(8, FA), (64, FA), (8, DM), (64, DM)}]
        assert [job.from_cache for job in results] == [False, False, True] + [False] * 4
        assert runner.cache_hits == 1 and runner.stats.from_cache == 1
        assert runner.simulations_run == len(unit_grid) - 1
        assert all(job.summary.to_dict() == alone[job.spec.label] for job in results)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invalid_geometry_fails_its_cell_alone(self, unit_grid, alone, pool, jobs):
        bad = dataclasses.replace(unit_grid[0], sizes=(12,), label="bad")
        specs = [unit_grid[0], bad] + unit_grid[1:]
        runner = BatchRunner(jobs=jobs, keep_going=True)
        results = runner.run(specs)
        assert_no_leaked_workers()
        failure = results[1]
        assert not failure.ok and failure.error_type == "ConfigurationError"
        assert "entries=12" in failure.message
        assert runner.stats.failure_labels == ["bad: ConfigurationError"]
        for job in results[:1] + results[2:]:
            assert job.ok and job.summary.to_dict() == alone[job.spec.label]
        with pytest.raises(ConfigurationError, match="entries=12"):
            BatchRunner(jobs=jobs).run(specs)
        assert_no_leaked_workers()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_capture_fails_every_cell_of_its_unit(
        self, unit_grid, alone, monkeypatch, pool, jobs
    ):
        from repro.system import taptrace

        capture = taptrace.capture_tap_traces

        def broken(params, workload, **kwargs):
            if workload.name == "radix":
                raise ProtocolError("capture broke")
            return capture(params, workload, **kwargs)

        monkeypatch.setattr(taptrace, "capture_tap_traces", broken)
        runner = BatchRunner(jobs=jobs, keep_going=True)
        results = runner.run(unit_grid)
        assert_no_leaked_workers()
        failed = [job.spec.label for job in results if not job.ok]
        assert failed == ["base", "overlap", "sharing", "disjoint"]
        for job in results:
            if job.ok:
                assert job.summary.to_dict() == alone[job.spec.label]
            else:
                assert job.error_type == "ProtocolError"
                assert "capture broke" in job.traceback
        assert runner.stats.failed == 4 and runner.stats.completed == 3


# ----------------------------------------------------------------------
# Timing sets: the timing cells of one workload stream run together
# ----------------------------------------------------------------------
class TestTimingUnits:
    def test_grouping(self, unit_grid):
        """Timing cells of one stream form one unit; a sweep cell of the
        same trace hash joins its recording instead, and a CC-NUMA cell
        is a unit of one."""
        params = unit_grid[0].params
        common = dict(overrides={"intensity": 0.2})
        specs = [
            unit_grid[1],  # timing, radix
            unit_grid[0],  # sweep, radix
            JobSpec.timing(params, Scheme.L0_TLB, "radix", 16, max_refs_per_node=300,
                           label="timing-l0", **common),
            unit_grid[5],  # CC-NUMA sweep, radix
            JobSpec.timing(params, Scheme.V_COMA, "fft", 8, max_refs_per_node=300,
                           label="timing-fft", **common),
            dataclasses.replace(unit_grid[5], label="numa-again"),
            JobSpec.timing(params, Scheme.V_COMA, "radix", 8, max_refs_per_node=301,
                           label="timing-301", **common),
            unit_grid[2],  # sweep, radix
        ]
        assert specs[0].trace_hash() == specs[1].trace_hash()
        units = batch._units(list(enumerate(specs)))
        assert [[index for index, _ in unit] for unit in units] == [
            [0, 2], [1, 7], [3], [4], [5], [6],
        ]

    def test_without_the_compiled_backend_each_cell_runs_alone(self, grid, baseline, monkeypatch):
        """No compiled engine: a timing unit runs every cell through
        ``JobSpec.execute`` on the scalar engine, with the same numbers."""
        from repro.core import timing_kernels

        monkeypatch.setattr(timing_kernels, "get_backend", lambda: None)
        executed = []
        execute = JobSpec.execute

        def recording(spec, *args, **kwargs):
            executed.append(spec)
            return execute(spec, *args, **kwargs)

        monkeypatch.setattr(JobSpec, "execute", recording)
        jobs = BatchRunner(jobs=1).run(grid)
        assert executed == grid
        assert {job.summary.backend for job in jobs} == {"scalar"}
        assert all(
            job.summary.fallback_reason.startswith("compiled backend unavailable: ")
            for job in jobs
        )

        def surface(payload):
            return {k: v for k, v in payload.items() if k not in ("backend", "fallback_reason")}

        assert [surface(job.summary.to_dict()) for job in jobs] == [
            surface(payload) for payload in baseline
        ]


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
