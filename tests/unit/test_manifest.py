"""Unit tests for the append-only run manifest and resume matching."""

import json

import pytest

from repro import MachineParams, Scheme
from repro.common.errors import ConfigurationError, RunInterrupted
from repro.runner import (
    BatchRunner,
    JobSpec,
    RunManifest,
    default_manifest_dir,
    list_runs,
    read_status,
)
from repro.runner.batch import JobFailure
from repro.runner.manifest import MANIFEST_FORMAT, new_run_id


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


def specs_for(params, workloads=("fft", "radix", "ocean")):
    return [
        JobSpec.timing(
            params,
            Scheme.V_COMA,
            name,
            8,
            max_refs_per_node=300,
            overrides={"intensity": 0.2},
        )
        for name in workloads
    ]


def failure_for(spec):
    return JobFailure(
        spec=spec,
        error_type="ProtocolError",
        message="boom",
    )


class TestManifestFile:
    def test_create_writes_header_and_records_flush(self, tmp_path, params):
        spec = specs_for(params, ["fft"])[0]
        manifest = RunManifest.create(tmp_path, total=1, run_id="run-a")
        assert manifest.path == tmp_path / "run-a.jsonl"

        lines = manifest.path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["manifest"] == MANIFEST_FORMAT
        assert header["run"] == "run-a" and header["total"] == 1

        (job,) = BatchRunner(jobs=1).run([spec])
        manifest.record_success(spec, job.summary, elapsed=0.5)
        # Flushed per line even before close: that is the crash story.
        entry = json.loads(manifest.path.read_text().splitlines()[1])
        assert entry["status"] == "ok"
        assert entry["hash"] == spec.content_hash()
        assert entry["summary"] == job.summary.to_dict()
        manifest.close()

    def test_round_trip_restores_completed_by_hash(self, tmp_path, params):
        fft, radix, ocean = specs_for(params)
        jobs = BatchRunner(jobs=1).run([fft, radix])
        with RunManifest.create(tmp_path, total=3, run_id="run-b") as manifest:
            for spec, job in zip((fft, radix), jobs):
                manifest.record_success(spec, job.summary)
            manifest.record_failure(ocean, failure_for(ocean))

        loaded = RunManifest.load(tmp_path, "run-b")
        assert set(loaded.completed) == {fft.content_hash(), radix.content_hash()}
        # Failures are informational only — a resumed run runs them again.
        assert ocean.content_hash() in loaded.failed
        assert ocean.content_hash() not in loaded.completed
        assert loaded.completed[fft.content_hash()] == jobs[0].summary.to_dict()
        loaded.close()

    def test_failure_then_success_keeps_success(self, tmp_path, params):
        (spec,) = specs_for(params, ["fft"])
        (job,) = BatchRunner(jobs=1).run([spec])
        with RunManifest.create(tmp_path, total=1, run_id="run-c") as manifest:
            manifest.record_failure(spec, failure_for(spec))
            manifest.record_success(spec, job.summary)
        loaded = RunManifest.load(tmp_path, "run-c")
        assert spec.content_hash() in loaded.completed
        assert spec.content_hash() not in loaded.failed

    def test_torn_final_line_is_skipped(self, tmp_path, params):
        (spec,) = specs_for(params, ["fft"])
        (job,) = BatchRunner(jobs=1).run([spec])
        with RunManifest.create(tmp_path, total=2, run_id="run-d") as manifest:
            manifest.record_success(spec, job.summary)
        with open(tmp_path / "run-d.jsonl", "a") as handle:
            handle.write('{"hash": "deadbeef", "status": "ok", "summ')  # hard kill
        loaded = RunManifest.load(tmp_path, "run-d")
        assert set(loaded.completed) == {spec.content_hash()}

    def test_load_unknown_run_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunManifest.load(tmp_path, "no-such-run")

    def test_resume_appends_to_same_file(self, tmp_path, params):
        (spec,) = specs_for(params, ["fft"])
        (job,) = BatchRunner(jobs=1).run([spec])
        with RunManifest.create(tmp_path, total=2, run_id="run-e") as manifest:
            manifest.record_success(spec, job.summary)
        with RunManifest.load(tmp_path, "run-e", total=2):
            pass
        lines = (tmp_path / "run-e.jsonl").read_text().splitlines()
        assert json.loads(lines[-1]) == {"resumed": "run-e", "total": 2}

    def test_list_runs_sorted(self, tmp_path):
        for run_id in ("20260102-000000-b", "20260101-000000-a"):
            RunManifest.create(tmp_path, total=0, run_id=run_id).close()
        (tmp_path / "notes.txt").write_text("ignored")
        assert list_runs(tmp_path) == ["20260101-000000-a", "20260102-000000-b"]
        assert list_runs(tmp_path / "missing") == []

    def test_new_run_ids_are_unique_and_safe(self):
        ids = {new_run_id() for _ in range(8)}
        assert len(ids) == 8
        for run_id in ids:
            assert "/" not in run_id and run_id == run_id.strip()


class TestRunnerManifestIntegration:
    def test_runner_writes_manifest_and_resume_skips_done_work(
        self, tmp_path, params
    ):
        specs = specs_for(params)
        baseline = BatchRunner(jobs=1).run(specs)

        first = BatchRunner(jobs=1, manifest_dir=tmp_path)
        done = first.run(specs[:2])
        run_id = first.run_id
        assert run_id in list_runs(tmp_path)
        assert all(job.ok for job in done)

        second = BatchRunner(jobs=1, manifest_dir=tmp_path, resume=run_id)
        jobs = second.run(specs)
        assert [job.from_manifest for job in jobs] == [True, True, False]
        assert second.simulations_run == 1
        assert second.stats.from_manifest == 2
        for job, clean in zip(jobs, baseline):
            assert job.summary.to_dict() == clean.summary.to_dict()

    def test_interrupt_carries_resume_hint(self, tmp_path, params):
        specs = specs_for(params)

        def explode(index, total, job):
            if index == 2:
                raise KeyboardInterrupt

        runner = BatchRunner(jobs=1, progress=explode, manifest_dir=tmp_path)
        with pytest.raises(RunInterrupted) as excinfo:
            runner.run(specs)
        err = excinfo.value
        assert err.run_id == runner.run_id
        assert err.completed == 2 and err.total == 3
        assert "--resume" in str(err) and err.run_id in str(err)

        resumed = BatchRunner(jobs=1, manifest_dir=tmp_path, resume=err.run_id)
        jobs = resumed.run(specs)
        assert resumed.simulations_run == 1
        assert [job.from_manifest for job in jobs] == [True, True, False]

    def test_resume_without_manifest_dir_is_rejected(self):
        with pytest.raises(ConfigurationError, match="resume"):
            BatchRunner(jobs=1, resume="some-run")

    def test_default_manifest_dir_tracks_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_manifest_dir() == tmp_path / "cache" / "runs"


class TestHeartbeatsAndStatus:
    def test_heartbeat_round_trip(self, tmp_path, params):
        """A dispatched-but-unfinished job shows as running, with its
        dispatch stamp and the run's worker count, via read_status."""
        spec = specs_for(params, ["fft"])[0]
        manifest = RunManifest.create(tmp_path, total=2, run_id="run-hb")
        manifest.record_heartbeat(spec, workers=4)
        manifest.close()

        view = read_status("run-hb", tmp_path)
        assert view["total"] == 2 and view["workers"] == 4
        assert view["counts"] == {"ok": 0, "failed": 0, "running": 1}
        assert view["pending"] == 1
        (job,) = view["jobs"].values()
        assert job["state"] == "running"
        assert job["since"] > 0
        assert job["label"] == spec.describe()

    def test_success_supersedes_heartbeat(self, tmp_path, params):
        spec = specs_for(params, ["fft"])[0]
        (job,) = BatchRunner(jobs=1).run([spec])
        manifest = RunManifest.create(tmp_path, total=1, run_id="run-done")
        manifest.record_heartbeat(spec)
        manifest.record_success(spec, job.summary, elapsed=1.5)
        manifest.close()

        view = read_status("run-done", tmp_path)
        assert view["counts"] == {"ok": 1, "failed": 0, "running": 0}
        (entry,) = view["jobs"].values()
        assert entry["state"] == "ok" and entry["elapsed"] == 1.5
        assert "since" not in entry
        assert view["avg_job_seconds"] == 1.5
        assert view["eta_seconds"] == 0.0

    def test_heartbeats_never_affect_resume(self, tmp_path, params):
        """load() must skip heartbeat lines: a heartbeat with no landed
        result is neither completed nor failed."""
        spec = specs_for(params, ["fft"])[0]
        manifest = RunManifest.create(tmp_path, total=1, run_id="run-live")
        manifest.record_heartbeat(spec)
        manifest.close()

        loaded = RunManifest.load(tmp_path, "run-live")
        assert loaded.completed == {} and loaded.failed == {}
        loaded.close()

    def test_runner_emits_heartbeats_before_results(self, tmp_path, params):
        specs = specs_for(params, ["fft", "radix"])
        runner = BatchRunner(jobs=1, manifest_dir=tmp_path)
        jobs = runner.run(specs)
        assert all(job.ok for job in jobs)

        lines = [
            json.loads(line)
            for line in (tmp_path / f"{runner.run_id}.jsonl").read_text().splitlines()
        ]
        beats = [l for l in lines if "heartbeat" in l]
        assert len(beats) == 2
        for spec, beat in zip(specs, beats):
            assert beat["hash"] == spec.content_hash()
            assert beat["workers"] == 1
        # Every heartbeat precedes its job's landed result.
        for beat in beats:
            beat_at = lines.index(beat)
            landed = [
                i for i, l in enumerate(lines)
                if "heartbeat" not in l and l.get("hash") == beat["hash"]
            ]
            assert landed and all(i > beat_at for i in landed)

        view = read_status(runner.run_id, tmp_path)
        assert view["counts"] == {"ok": 2, "failed": 0, "running": 0}
        assert view["pending"] == 0

    def test_status_unknown_run_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_status("no-such-run", tmp_path)
