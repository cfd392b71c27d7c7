"""Chaos suite: the supervised runner under injected faults.

The acceptance scenarios for the fault-tolerant runner: a 12-job grid
driven with ``jobs=2`` keeps returning 12 outcomes while workers crash,
hang, or hit transient I/O errors — failures come back as structured
:class:`JobFailure` values under ``keep_going``, retried-to-success runs
stay bit-identical to a clean run — and an interrupted sweep resumed
via its manifest re-runs only the missing jobs.

Everything here runs on the tiny 2-node machine with 300 references per
node, so the whole file stays inside the CI timeout guard even though
every test forks real worker processes.
"""

import multiprocessing

import pytest

from repro import MachineParams, Scheme
from repro.common.errors import ProtocolError, RunInterrupted
from repro.runner import BatchRunner, FaultPlan, JobSpec

GRID_WORKLOADS = ("fft", "radix")
GRID_SCHEMES = (Scheme.V_COMA, Scheme.L0_TLB)
GRID_SIZES = (8, 32, 128)


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


@pytest.fixture(scope="module")
def grid(params):
    """The 12-job grid: 2 workloads x 2 schemes x 3 TLB/DLB sizes."""
    specs = [
        JobSpec.timing(
            params,
            scheme,
            name,
            entries,
            max_refs_per_node=300,
            overrides={"intensity": 0.2},
        )
        for name in GRID_WORKLOADS
        for scheme in GRID_SCHEMES
        for entries in GRID_SIZES
    ]
    assert len(specs) == 12
    return specs


@pytest.fixture(scope="module")
def baseline(grid):
    """Clean serial run of the grid; chaos runs must match it bit for bit."""
    jobs = BatchRunner(jobs=1).run(grid)
    return [job.summary.to_dict() for job in jobs]


def assert_no_leaked_workers():
    assert multiprocessing.active_children() == []


class TestChaosGrid:
    def test_worker_crashes_are_retried_to_success(self, grid, baseline):
        plan = FaultPlan().crash(3).crash(7)
        runner = BatchRunner(jobs=2, retries=2, retry_delay=0.01, fault_plan=plan)
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12 and all(job.ok for job in jobs)
        assert runner.stats.worker_deaths == 2
        assert runner.stats.retries == 2
        assert jobs[3].attempts == 2 and jobs[7].attempts == 2
        assert [job.summary.to_dict() for job in jobs] == baseline

    def test_worker_crash_without_retries_is_structured(self, grid, baseline):
        plan = FaultPlan().crash(5, times=None)
        runner = BatchRunner(
            jobs=2, retries=0, keep_going=True, fault_plan=plan
        )
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12
        failed = [job for job in jobs if not job.ok]
        assert [job.spec for job in failed] == [grid[5]]
        failure = failed[0]
        assert failure.worker_died and failure.transient
        assert failure.error_type == "WorkerDied"
        assert failure.summary is None
        # The survivors are untouched by their neighbour's death.
        good = [job.summary.to_dict() for job in jobs if job.ok]
        assert good == baseline[:5] + baseline[6:]

    def test_hang_is_killed_and_retried_within_timeout(self, grid, baseline):
        plan = FaultPlan().hang(4, seconds=60.0, times=1)
        runner = BatchRunner(
            jobs=2, retries=1, retry_delay=0.01, timeout=2.0, fault_plan=plan
        )
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12 and all(job.ok for job in jobs)
        assert runner.stats.timeouts == 1
        assert jobs[4].attempts == 2
        assert [job.summary.to_dict() for job in jobs] == baseline

    def test_persistent_hang_becomes_timeout_failure(self, grid):
        plan = FaultPlan().hang(9, seconds=60.0, times=None)
        runner = BatchRunner(
            jobs=2,
            retries=1,
            retry_delay=0.01,
            timeout=1.0,
            keep_going=True,
            fault_plan=plan,
        )
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12
        failure = jobs[9]
        assert not failure.ok
        assert failure.timed_out and failure.transient
        assert failure.error_type == "JobTimeout"
        assert failure.attempts == 2
        assert runner.stats.timeouts == 2
        assert sum(1 for job in jobs if job.ok) == 11

    def test_transient_oserrors_are_retried_to_success(self, grid, baseline):
        plan = (
            FaultPlan()
            .transient(1, times=1)
            .transient(6, times=2)
            .transient(11, times=1)
        )
        runner = BatchRunner(jobs=2, retries=2, retry_delay=0.01, fault_plan=plan)
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12 and all(job.ok for job in jobs)
        assert runner.stats.retries == 4
        assert jobs[6].attempts == 3
        assert [job.summary.to_dict() for job in jobs] == baseline

    def test_deterministic_failure_fails_fast_and_is_never_retried(self, grid):
        plan = FaultPlan().raising(2, "ProtocolError", "injected bug")
        runner = BatchRunner(jobs=2, retries=3, retry_delay=0.01, fault_plan=plan)
        with pytest.raises(ProtocolError, match="injected bug"):
            runner.run(grid)
        assert_no_leaked_workers()
        assert runner.stats.retries == 0
        assert runner.stats.deterministic_failures == 1

    def test_deterministic_failure_under_keep_going(self, grid, baseline):
        plan = FaultPlan().raising(2, "ProtocolError", "injected bug")
        runner = BatchRunner(
            jobs=2, retries=3, retry_delay=0.01, keep_going=True, fault_plan=plan
        )
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12
        failure = jobs[2]
        assert not failure.ok and not failure.transient
        assert failure.attempts == 1, "deterministic bugs must not burn retries"
        assert isinstance(failure.exception(), ProtocolError)
        assert "injected bug" in failure.traceback
        good = [job.summary.to_dict() for job in jobs if job.ok]
        assert good == baseline[:2] + baseline[3:]

    def test_mixed_chaos_still_returns_every_job(self, grid, baseline):
        """Crash + hang + transient + deterministic bug in one sweep."""
        plan = (
            FaultPlan()
            .crash(0, times=1)
            .hang(4, seconds=60.0, times=1)
            .transient(8, times=1)
            .raising(10, "ProtocolError", "injected bug", times=None)
        )
        runner = BatchRunner(
            jobs=2,
            retries=2,
            retry_delay=0.01,
            timeout=2.0,
            keep_going=True,
            fault_plan=plan,
        )
        jobs = runner.run(grid)
        assert_no_leaked_workers()
        assert len(jobs) == 12
        assert [index for index, job in enumerate(jobs) if not job.ok] == [10]
        assert runner.stats.worker_deaths == 1
        assert runner.stats.timeouts == 1
        assert runner.stats.retries == 3
        assert runner.stats.deterministic_failures == 1
        good = [job.summary.to_dict() for job in jobs if job.ok]
        assert good == baseline[:10] + baseline[11:]


class TestInterruptAndResume:
    def test_sigint_resume_runs_only_missing_jobs(
        self, grid, baseline, tmp_path
    ):
        """A SIGINT'd sweep resumes from its manifest bit-identically."""

        def interrupt_late(index, total, job):
            if index >= 5:
                raise KeyboardInterrupt  # what SIGINT raises in the parent

        runner = BatchRunner(
            jobs=2,
            timeout=120.0,  # forces the supervised (worker) path
            progress=interrupt_late,
            manifest_dir=tmp_path,
        )
        with pytest.raises(RunInterrupted) as excinfo:
            runner.run(grid)
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

