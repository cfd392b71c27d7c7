"""The crash-consistency primitives: flock, atomic writes, quarantine.

Everything the cache tier's durability rests on — atomic visibility
(temp + fsync + rename), the deterministic mid-write crash hook, the
quarantine naming contract (no store glob ever re-matches a quarantined
file), and dead-writer orphan recovery.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.runtime import counter_value, reset_runtime_metrics
from repro.runner.locking import (
    CRASH_EXIT_CODE,
    CRASH_WRITE_ENV,
    FileLock,
    atomic_write_bytes,
    atomic_write_text,
    locked_append,
    quarantine_file,
    recover_orphans,
    store_lock,
)


@pytest.fixture(autouse=True)
def clean_runtime_metrics():
    reset_runtime_metrics()
    yield
    reset_runtime_metrics()


class TestAtomicWrites:
    def test_payload_lands_whole(self, tmp_path):
        path = tmp_path / "aa" / "entry.json"
        atomic_write_bytes(path, b'{"x": 1}')
        assert path.read_bytes() == b'{"x": 1}'
        # No temp debris left behind.
        assert list(tmp_path.rglob(".*.tmp")) == []

    def test_overwrite_is_atomic(self, tmp_path):
        path = tmp_path / "entry.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_crash_hook_leaves_half_payload_in_temp(self, tmp_path):
        """The armed crash hook must reproduce exactly what a SIGKILL
        mid-write leaves: a partial temp file, no final file."""
        target = tmp_path / "bb" / "victim.json"
        script = (
            "import os, sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.runner.locking import atomic_write_bytes\n"
            "atomic_write_bytes(%r, b'0123456789abcdef')\n"
        ) % (str(Path(__file__).resolve().parents[2] / "src"), str(target))
        env = dict(os.environ, **{CRASH_WRITE_ENV: "victim"})
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert not target.exists()
        (partial,) = list(target.parent.glob(".*.tmp"))
        assert partial.read_bytes() == b"01234567"  # half of 16 bytes


class TestFileLock:
    def test_context_manager_acquires_and_releases(self, tmp_path):
        lock = store_lock(tmp_path)
        with lock:
            assert lock._handle is not None
        assert lock._handle is None

    def test_lock_file_location(self, tmp_path):
        assert FileLock(tmp_path / ".lock").path == tmp_path / ".lock"

    def test_reacquire_after_release(self, tmp_path):
        lock = store_lock(tmp_path)
        with lock:
            pass
        with lock:
            assert lock._handle is not None


class TestLockedAppend:
    def test_lines_interleave_whole(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "a") as handle:
            locked_append(handle, json.dumps({"n": 1}) + "\n")
            locked_append(handle, json.dumps({"n": 2}) + "\n")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"n": 1}, {"n": 2}]


class TestQuarantine:
    def test_quarantined_name_never_matches_store_globs(self, tmp_path):
        entry = tmp_path / "ab" / "abcd.json"
        entry.parent.mkdir(parents=True)
        entry.write_text("garbage")
        dest = quarantine_file(entry, tmp_path, "result-cache", reason="test")
        assert dest is not None and dest.exists()
        assert not entry.exists()
        assert dest.parent.name == "quarantine"
        assert ".corrupt-" in dest.name
        # The store's entry glob must not see it anymore.
        assert list(tmp_path.glob("*/*.json")) == []
        assert counter_value(
            "repro_store_quarantined_files_total", store="result-cache"
        ) == 1

    def test_vanished_file_is_benign(self, tmp_path):
        assert quarantine_file(tmp_path / "gone.json", tmp_path, "x") is None

    def test_repeated_quarantines_never_collide(self, tmp_path):
        dests = []
        for _ in range(3):
            entry = tmp_path / "cd" / "same-name.json"
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_text("junk")
            dests.append(quarantine_file(entry, tmp_path, "x").name)
        assert len(set(dests)) == 3


class TestOrphanRecovery:
    def test_dead_writer_temp_is_quarantined(self, tmp_path):
        sub = tmp_path / "ef"
        sub.mkdir()
        committed = sub / "good.json"
        committed.write_text("{}")
        # A pid that cannot be alive (max_pid is far below 2**30).
        orphan = sub / f".good.json.{2**30 + 1}.tmp"
        orphan.write_bytes(b"parti")
        assert recover_orphans(tmp_path, "result-cache") == 1
        assert not orphan.exists()
        assert committed.exists()  # committed entries never touched
        assert len(list((tmp_path / "quarantine").iterdir())) == 1

    def test_live_writer_temp_is_left_alone(self, tmp_path):
        sub = tmp_path / "gh"
        sub.mkdir()
        inflight = sub / f".busy.json.{os.getpid()}.tmp"
        inflight.write_bytes(b"writing")
        assert recover_orphans(tmp_path, "result-cache") == 0
        assert inflight.exists()
