"""Crash-consistent concurrent caches: the tentpole acceptance suite.

A writer killed at ANY instant — simulated deterministically with the
``REPRO_CRASH_WRITE`` hook (half payload, hard exit with
``repro.runner.locking.CRASH_EXIT_CODE``) or with a real ``SIGKILL`` mid-loop —
must never cost a committed entry.  Recovery on the next open
quarantines the partial temp file (kept as evidence under
``quarantine/``, never silently deleted), and two concurrent writer
processes sharing one store root produce no corruption.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import MachineParams
from repro.core.schemes import Scheme
from repro.runner import JobSpec, ResultCache, TraceStore
from repro.runner.locking import CRASH_EXIT_CODE, CRASH_WRITE_ENV
from repro.runner.summary import RunSummary

SRC = str(Path(__file__).resolve().parents[2] / "src")


def tiny_params(seed=1998):
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256, seed=seed)


def timing_spec(seed=1998, intensity=0.2):
    return JobSpec.timing(
        tiny_params(seed), Scheme.V_COMA, "fft", 8,
        max_refs_per_node=100, overrides={"intensity": intensity},
    )


def canned_summary(total_time=123):
    from repro.common.stats import TimeBreakdown

    return RunSummary(
        scheme=Scheme.V_COMA,
        workload_name="fft",
        total_time=total_time,
        refs_per_node=[50, 50],
        barriers=0,
        breakdowns=[TimeBreakdown(), TimeBreakdown()],
        counters={},
    )


def run_child(script: str, **env_overrides) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )


def child_put_script(root, seed):
    return (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_crash_consistency import canned_summary, timing_spec\n"
        "from repro.runner import ResultCache\n"
        f"cache = ResultCache({str(root)!r})\n"
        f"cache.put(timing_spec(seed={seed}), canned_summary())\n"
        "print('landed')\n"
    )


class TestResultCacheCrash:
    def test_crash_mid_put_loses_nothing_committed(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        committed = timing_spec(seed=1)
        cache.put(committed, canned_summary(111))

        # A second writer crashes mid-put of a DIFFERENT entry.
        proc = run_child(
            child_put_script(root, seed=2), **{CRASH_WRITE_ENV: ".json"}
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
        partials = list(root.glob("*/.*.tmp"))
        assert len(partials) == 1  # the torn write is on disk

        # A fresh open recovers: partial quarantined, committed intact.
        fresh = ResultCache(root)
        restored = fresh.get(committed)
        assert restored is not None and restored.total_time == 111
        assert fresh.quarantined == 1
        assert list(root.glob("*/.*.tmp")) == []
        assert len(list((root / "quarantine").iterdir())) == 1

    def test_sigkill_mid_write_loop(self, tmp_path):
        """A writer SIGKILLed at a random instant: every entry that IS
        on disk under its final name parses clean."""
        root = tmp_path / "cache"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_crash_consistency import canned_summary, timing_spec\n"
            "from repro.runner import ResultCache\n"
            f"cache = ResultCache({str(root)!r})\n"
            "print('ready', flush=True)\n"
            "seed = 10\n"
            "while True:\n"
            "    cache.put(timing_spec(seed=seed), canned_summary(seed))\n"
            "    seed += 1\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().strip() == "ready"
        time.sleep(0.5)  # let it land a few entries
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        fresh = ResultCache(root)
        fresh.recover()
        entries = list(root.glob("*/*.json"))
        assert entries, "writer landed nothing in 0.5s"
        for entry in entries:
            payload = json.loads(entry.read_text())  # parses or the test fails
            assert payload["format"] == 1
        assert list(root.glob("*/.*.tmp")) == []

    def test_two_concurrent_writers_no_corruption(self, tmp_path):
        root = tmp_path / "cache"
        procs = []
        for base in (100, 200):
            script = (
                "import sys\n"
                f"sys.path.insert(0, {SRC!r})\n"
                f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                "from test_crash_consistency import canned_summary, timing_spec\n"
                "from repro.runner import ResultCache\n"
                # A tight size cap forces concurrent LRU eviction sweeps
                # through the cross-process store lock.
                f"cache = ResultCache({str(root)!r}, max_bytes=256 * 1024)\n"
                f"for seed in range({base}, {base + 25}):\n"
                "    cache.put(timing_spec(seed=seed), canned_summary(seed))\n"
                "print('done')\n"
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            procs.append(subprocess.Popen(
                [sys.executable, "-c", script],
                env=env, stdout=subprocess.PIPE, text=True,
            ))
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert "done" in out
        entries = list(root.glob("*/*.json"))
        assert entries
        for entry in entries:  # no torn writes anywhere
            json.loads(entry.read_text())
        assert list(root.glob("*/.*.tmp")) == []


class TestTraceStoreCrash:
    @pytest.fixture()
    def sweep_spec(self):
        return JobSpec.sweep(
            tiny_params(), "radix", sizes=(8,),
            max_refs_per_node=200, overrides={"intensity": 0.2},
        )

    def test_crash_mid_trace_put_then_recover(self, tmp_path, sweep_spec):
        from repro.system.taptrace import capture_tap_traces

        root = tmp_path / "traces"
        store = TraceStore(root)
        traces = capture_tap_traces(
            tiny_params(), sweep_spec.build_workload(), max_refs_per_node=200
        )
        store.put(sweep_spec, traces)

        # Crash a child mid-put of the same trace file (overwrite).
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_crash_consistency import tiny_params\n"
            "from repro.runner import JobSpec, TraceStore\n"
            "from repro.system.taptrace import capture_tap_traces\n"
            "params = tiny_params()\n"
            "spec = JobSpec.sweep(params, 'radix', sizes=(8,), "
            "max_refs_per_node=200, overrides={'intensity': 0.2})\n"
            f"store = TraceStore({str(root)!r})\n"
            "traces = capture_tap_traces(params, spec.build_workload(), "
            "max_refs_per_node=200)\n"
            "store.put(spec, traces)\n"
        )
        proc = run_child(script, **{CRASH_WRITE_ENV: ".trace"})
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

        # The committed trace is untouched and loads clean.
        fresh = TraceStore(root)
        loaded = fresh.get(sweep_spec)
        assert loaded is not None
        assert loaded.to_bytes() == traces.to_bytes()
        assert fresh.quarantined == 1  # the orphaned temp
        assert list(root.glob("*/.*.tmp")) == []

    def test_corrupt_trace_quarantined_with_evidence(self, tmp_path, sweep_spec):
        from repro.system.taptrace import capture_tap_traces

        root = tmp_path / "traces"
        store = TraceStore(root)
        traces = capture_tap_traces(
            tiny_params(), sweep_spec.build_workload(), max_refs_per_node=200
        )
        path = store.put(sweep_spec, traces)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncate

        with pytest.warns(RuntimeWarning, match="corrupt tap trace"):
            assert store.get(sweep_spec) is None
        assert store.corrupt_dropped == 1
        assert store.quarantined == 1
        assert not path.exists()
        (evidence,) = list((root / "quarantine").iterdir())
        assert evidence.read_bytes() == blob[: len(blob) // 2]
