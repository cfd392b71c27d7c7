"""Command-line interface."""

import json
import warnings
from pathlib import Path

import pytest

from repro.cli import build_parser, machine_params, main
from repro.core.ladder import FAULT_ENV
from repro.core.timing_kernels import get_backend


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


#: The tiny machine of tests/unit/test_report.py.
MACHINE = ["--nodes", "2", "--factor", "256", "--page-size", "256"]
#: Single-run commands also bound the references per node.
FAST = MACHINE + ["--refs", "300"]
#: A committed trace of a radix V-COMA run.
GOLDEN_TRACE = str(Path(__file__).parents[1] / "golden" / "trace_v_coma_radix.jsonl.gz")


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_machine_params_from_args(self):
        args = build_parser().parse_args(["describe", "--nodes", "4", "--factor", "64", "--page-size", "256"])
        params = machine_params(args)
        assert params.nodes == 4 and params.page_size == 256

    def test_paper_machine_flag(self):
        args = build_parser().parse_args(["describe", "--paper-machine"])
        params = machine_params(args)
        assert params.nodes == 32 and params.am_size == 4 * 1024 * 1024

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "nope"] + FAST)

    @pytest.mark.parametrize("flag", ["--no-replay", "--no-fast-timing", "--no-fast-sweep"])
    def test_engine_switches_are_gone(self, capsys, flag):
        """One compiled sweep path is left; REPRO_NO_COMPILED is the
        only switch to the scalar oracle."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "radix", flag] + FAST)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "profile", "trace", "replay"])
    def test_removed_subcommands_are_unknown(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["timing", "radix", "--cache-max-mb", "0"],
        ["timing", "radix", "--cache-max-mb", "-1"],
        ["sweep", "radix", "--sizes", "8,x"],
        ["sweep", "radix", "--sizes", "0"],
        ["timing", "radix", "--entries", "0"],
        ["describe", "--nodes", "3"],
        ["timing", "radix", "--page-size", "100"],
        ["sweep", "radix", "--intensity", "-1"],
        ["sweep", "radix", "--refs", "-5"],
        ["timing", "radix", "--refs", "-5"],
        ["timing", "radix", "--trace-out", "{tmp}/missing/t.jsonl"],
        ["timing", "radix", "--metrics-out", "{tmp}/missing/m.json"],
        ["trace-validate", "{tmp}/missing.jsonl"],
        ["trace-profile", "{tmp}/missing.jsonl"],
        ["trace-profile", "{golden}", "--metrics", "{tmp}/missing.json"],
        ["trace-validate", "{tmp}/binary.jsonl"],
        ["trace-profile", "{tmp}/plain.jsonl.gz"],
    ], ids=" ".join)
    def test_malformed_values_are_usage_errors(self, capsys, tmp_path, argv):
        """Exit 2 with one line, before any job runs: no traceback, no
        store capped at zero bytes, no clamped toy workload, no
        simulation whose output has nowhere to go."""
        # A trace that is not UTF-8 text, and a ".gz" one that is not gzip.
        (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe\n")
        (tmp_path / "plain.jsonl.gz").write_text('{"kind":"meta"}\n')
        argv = [arg.format(tmp=tmp_path, golden=GOLDEN_TRACE) for arg in argv]
        runs = argv[0] in ("sweep", "timing")
        machine = FAST + ["--cache-dir", str(tmp_path)] if runs else []
        code = main(argv[:2] + machine + argv[2:])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert not list(tmp_path.rglob("*.json"))


class TestCommands:
    def test_describe(self, capsys):
        code, out = run_cli(capsys, "describe", *MACHINE)
        assert code == 0
        assert "2 nodes" in out

    def test_workloads_listing(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        for name in ("radix", "fft", "ocean"):
            assert name in out

    def test_sweep(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "ocean", "--sizes", "8,32", "--intensity", "0.1", *FAST
        )
        assert code == 0
        assert "V-COMA" in out and "L2-TLB/no_wback" in out

    def test_sweep_with_dm(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "ocean", "--sizes", "8", "--dm", "--intensity", "0.1", *FAST
        )
        assert code == 0
        assert "/DM" in out

    def test_timing(self, capsys):
        code, out = run_cli(
            capsys, "timing", "barnes", "--scheme", "L0-TLB", "--entries", "8",
            "--intensity", "0.1", *FAST
        )
        assert code == 0
        assert "translation" in out and "misses" in out

    def test_table2(self, capsys):
        code, out = run_cli(capsys, "paper", "run", "table2", *MACHINE)
        assert code == 0
        assert "Table 2" in out and "OCEAN" in out

    def test_table3(self, capsys):
        code, out = run_cli(capsys, "paper", "run", "table3", *MACHINE)
        assert code == 0
        assert "Table 3" in out

    def test_table4(self, capsys):
        code, out = run_cli(capsys, "paper", "run", "table4", *MACHINE)
        assert code == 0
        assert "Table 4" in out and "DLB/16" in out

    def test_pressure(self, capsys):
        code, out = run_cli(capsys, "paper", "run", "fig11", *MACHINE)
        assert code == 0
        assert "Pressure Profile — FFT" in out

    def test_pressure_raytrace_v2(self, capsys):
        code, out = run_cli(capsys, "paper", "run", "fig11-padding", *MACHINE)
        assert code == 0
        assert "V2 (PAGE-ALIGNED PADDING)" in out and "mean=" in out


class TestDegradationReport:
    """Only a cell that could have run compiled counts as degraded."""

    def test_numa_cells_are_not_degradations(self, capsys):
        code = main(["paper", "run", "numa", "--no-cache", *MACHINE])
        err = capsys.readouterr().err
        assert code == 0
        assert "NumaMachine" not in err
        if get_backend() is not None:
            assert "degraded" not in err and "degradations" not in err

    @pytest.mark.skipif(get_backend() is None, reason="compiled timing backend unavailable")
    def test_forced_degrade_is_still_reported(self, capsys, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "internal")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the warn-once fallback warning
            code = main(["paper", "run", "numa", "--no-cache", *MACHINE])
        err = capsys.readouterr().err
        assert code == 0
        assert "3 degraded to scalar" in err
        assert "degradations: 3x compiled engine degraded" in err
        assert "NumaMachine" not in err


class TestPaperCommand:
    def test_refs_is_a_usage_error(self, capsys):
        # paper always runs complete streams; it must not accept a
        # bound it would ignore.
        with pytest.raises(SystemExit) as exc:
            main(["paper", "run", "--refs", "5"])
        assert exc.value.code == 2
        assert "--refs" in capsys.readouterr().err

    def test_ids_may_follow_options(self, capsys):
        code, out = run_cli(capsys, "paper", "list", "fig8", "--seed", "7", "table2")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["fig8", "table2"]
        code, out = run_cli(capsys, "paper", "check", "--no-cache", "ablation-shootdown")
        assert code == 0
        assert "2/2 claims hold" in out

    def test_repeated_ids_run_once(self, capsys):
        code, out = run_cli(
            capsys, "paper", "run", "tag-overhead", "--no-cache", "tag-overhead"
        )
        assert code == 0
        assert out.count("virtual-tag memory overhead") == 1
        code, out = run_cli(
            capsys, "paper", "check", "ablation-shootdown", "ablation-shootdown", "--no-cache"
        )
        assert code == 0
        assert "2/2 claims hold" in out


class TestObservabilityCommands:
    def test_timing_metrics_out_openmetrics(self, capsys, tmp_path):
        prom_file = tmp_path / "metrics.prom"
        code, out = run_cli(
            capsys, "timing", "radix", "--intensity", "0.2",
            "--metrics-out", str(prom_file), *FAST
        )
        assert code == 0
        text = prom_file.read_text()
        assert "# TYPE repro_events_total counter" in text
        assert text.rstrip().endswith("# EOF")

    def test_timing_metrics_out_json_with_trace(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "metrics.json"
        trace_file = tmp_path / "run.jsonl"
        code, out = run_cli(
            capsys, "timing", "radix", "--intensity", "0.2",
            "--metrics-out", str(out_file),
            "--trace-out", str(trace_file), *FAST
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert "repro_events_total" in data

        from repro.obs import read_trace, validate_trace

        validate_trace(read_trace(str(trace_file)))

    def test_timing_trace_and_metrics_out(self, capsys, tmp_path):
        trace_file = tmp_path / "timing.jsonl"
        prom_file = tmp_path / "timing.prom"
        code, out = run_cli(
            capsys, "timing", "radix", "--intensity", "0.2",
            "--trace-out", str(trace_file),
            "--metrics-out", str(prom_file), *FAST
        )
        assert code == 0
        assert "translation" in out
        assert prom_file.read_text().endswith("# EOF\n")

        from repro.obs import read_trace, validate_trace

        validate_trace(read_trace(str(trace_file)))


class TestTraceAnalyticsCommands:
    @pytest.fixture()
    def recorded_run(self, capsys, tmp_path):
        """One tiny traced run: (trace path, metrics-JSON path)."""
        trace_file = tmp_path / "run.jsonl"
        metrics_file = tmp_path / "run.json"
        code, _ = run_cli(
            capsys, "timing", "radix", "--intensity", "0.2",
            "--metrics-out", str(metrics_file),
            "--trace-out", str(trace_file), *FAST
        )
        assert code == 0
        return trace_file, metrics_file

    def test_trace_validate_ok(self, capsys, recorded_run):
        trace_file, _ = recorded_run
        code, out = run_cli(capsys, "trace-validate", str(trace_file))
        assert code == 0
        assert "ok" in out and "spans=" in out

    def test_trace_validate_rejects_foreign_vocabulary(self, capsys, recorded_run):
        trace_file, _ = recorded_run
        with open(trace_file, "a") as handle:
            handle.write('{"kind": "event", "name": "tlb_hit", "t": 1, '
                         '"span": null, "node": 0}\n')
        code = main(["trace-validate", str(trace_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVALID" in captured.err

    def test_trace_profile_renders_attribution(self, capsys, recorded_run):
        trace_file, _ = recorded_run
        code, out = run_cli(capsys, "trace-profile", str(trace_file))
        assert code == 0
        assert "cost attribution" in out
        assert "translation (dlb miss handling)" in out
        assert "run" in out  # span tree root

    def test_trace_profile_reconciles_exactly(self, capsys, recorded_run):
        trace_file, metrics_file = recorded_run
        code, out = run_cli(
            capsys, "trace-profile", str(trace_file),
            "--metrics", str(metrics_file), "--no-tree",
        )
        assert code == 0
        assert "FAIL" not in out
        assert "reconciliation" in out

    def test_trace_profile_flags_mismatched_metrics(self, capsys, recorded_run, tmp_path):
        trace_file, metrics_file = recorded_run
        data = json.loads(metrics_file.read_text())
        for sample in data["repro_node_refs_total"]["samples"]:
            sample["value"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main([
            "trace-profile", str(trace_file), "--metrics", str(bad), "--no-tree",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out
        assert "reconciliation FAILED" in captured.err

    def test_trace_profile_json_output(self, capsys, recorded_run):
        trace_file, metrics_file = recorded_run
        code, out = run_cli(
            capsys, "trace-profile", str(trace_file),
            "--metrics", str(metrics_file), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["attribution"]["categories"]["stall_total"] > 0
        assert all(row["ok"] for row in payload["reconciliation"])
        assert payload["profile"]["tree"][0]["name"] == "run"


class TestStatusCommand:
    def test_status_of_finished_run(self, capsys, tmp_path):
        from repro.common.params import MachineParams
        from repro.runner import BatchRunner, JobSpec
        from repro.core.schemes import Scheme

        params = MachineParams.scaled_down(
            factor=256, nodes=2, page_size=256
        ).replace(seed=1998)
        spec = JobSpec.timing(
            params, Scheme.V_COMA, "radix", 8, max_refs_per_node=300,
            overrides={"intensity": 0.2},
        )
        runner = BatchRunner(jobs=1, manifest_dir=tmp_path / "runs")
        (job,) = runner.run([spec])
        assert job.ok

        code, out = run_cli(
            capsys, "status", runner.run_id, "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "1/1 jobs (100%)" in out
        assert "1 ok, 0 failed, 0 running" in out

        code, out = run_cli(capsys, "status", "--cache-dir", str(tmp_path))
        assert code == 0
        assert runner.run_id in out

    def test_status_shows_running_job(self, capsys, tmp_path):
        from repro.common.params import MachineParams
        from repro.runner import JobSpec, RunManifest
        from repro.core.schemes import Scheme

        params = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
        spec = JobSpec.timing(params, Scheme.V_COMA, "radix", 8)
        manifest = RunManifest.create(tmp_path / "runs", total=3, run_id="run-x")
        manifest.record_heartbeat(spec, workers=2)
        manifest.close()

        code, out = run_cli(
            capsys, "status", "run-x", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert "0 ok, 0 failed, 1 running, 2 pending" in out
        assert f"running: {spec.describe()}" in out
        assert "workers    : 2" in out

    def test_status_unknown_run(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="unknown run id"):
            main(["status", "nope", "--cache-dir", str(tmp_path)])

    def test_status_no_runs(self, capsys, tmp_path):
        code, out = run_cli(capsys, "status", "--cache-dir", str(tmp_path))
        assert code == 0 and "no runs" in out


class TestDoctor:
    @staticmethod
    def expected_status():
        """Green iff the compiled tier is healthy: scalar is the only
        other rung, and the last resort alone exits non-zero."""
        from repro.core.timing_kernels import get_backend

        return 0 if get_backend() is not None else 1

    def test_reports_resolved_ladder(self, capsys):
        code, out = run_cli(capsys, "doctor")
        assert code == self.expected_status()
        assert "degradation ladder" in out
        assert "compiled" in out and "scalar" in out
        assert "<- active" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "doctor", "--json")
        assert code == self.expected_status()
        tiers = json.loads(out)
        assert [tier["tier"] for tier in tiers] == ["compiled", "scalar"]
        assert all({"healthy", "detail"} <= set(tier) for tier in tiers)

    def test_red_when_only_last_resort(self, capsys, monkeypatch):
        from repro.core.timing_kernels import NO_COMPILED_ENV

        monkeypatch.setenv(NO_COMPILED_ENV, "1")
        code, out = run_cli(capsys, "doctor")
        assert code == 1
        assert "scalar" in out


class TestFuzzCommand:
    @pytest.fixture()
    def one_case_corpus(self, tmp_path):
        from repro.fuzz import FuzzCase
        from repro.fuzz.harness import save_case

        case = FuzzCase(
            factor=64, nodes=2, page_size=256, scheme="V-COMA", entries=8,
            organization="fa",
            workload={"kind": "named", "name": "radix", "intensity": 0.2},
            max_refs_per_node=100,
        )
        save_case(case, tmp_path)
        return tmp_path

    def test_replay_only_green_corpus(self, capsys, one_case_corpus):
        code, out = run_cli(
            capsys, "fuzz", "--replay-only", "--corpus", str(one_case_corpus)
        )
        assert code == 0
        assert "replay ok " in out
        assert "corpus: 1/1 cases replayed clean" in out

    def test_replay_only_flags_corrupt_corpus(self, capsys, tmp_path):
        (tmp_path / "case-junk.json").write_text('{"format": 1}')
        code, out = run_cli(
            capsys, "fuzz", "--replay-only", "--corpus", str(tmp_path)
        )
        assert code == 1
        assert "replay FAIL" in out

    def test_generative_smoke(self, capsys, one_case_corpus):
        code, out = run_cli(
            capsys, "fuzz", "--cases", "5", "--seed", "11",
            "--corpus", str(one_case_corpus), "--skip-replay",
        )
        assert code == 0
        assert "no divergence" in out
