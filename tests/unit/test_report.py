"""Report generator and the experiment registry behind it."""

import json
from dataclasses import replace

import pytest

from repro import MachineParams
from repro.analysis import report
from repro.analysis.report import Claim, generate_report
from repro.cli import main

TINY = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


@pytest.fixture(scope="module")
def report_text():
    return generate_report(params=TINY)


class TestGenerateReport:
    def test_contains_every_artifact_section(self, report_text):
        for section in (
            "Figure 8",
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Table 2",
            "Table 3",
            "Table 4",
            "virtual-tag memory overhead",
        ):
            assert section in report_text, section

    def test_machine_description_included(self, report_text):
        assert "2 nodes" in report_text

    def test_code_fences_balanced(self, report_text):
        assert report_text.count("```") % 2 == 0

    def test_raytrace_adds_v2_bar(self, report_text):
        assert "DLB/8/V2" in report_text


#: TINY as the CLI spells it; ``paper`` runs every workload at the
#: report intensities.
TINY_ARGS = ["--nodes", "2", "--factor", "256", "--page-size", "256", "--no-cache"]


def _section(text, heading):
    """The report's ``## heading…`` section, up to the next heading."""
    (section,) = [s for s in text.split("\n\n## ") if s.startswith(heading)]
    return "## " + section


class TestRegistry:
    @pytest.mark.parametrize("experiment_id", ["table2", "table3", "table4"])
    def test_paper_run_matches_report_section(self, experiment_id, report_text, capsys):
        heading = {"table2": "Table 2", "table3": "Table 3", "table4": "Table 4"}[experiment_id]
        assert main(["paper", "run", experiment_id, *TINY_ARGS]) == 0
        assert capsys.readouterr().out == _section(report_text, heading) + "\n"

    def test_paper_list_names_every_experiment(self, capsys):
        assert main(["paper", "list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [entry.id for entry in report.EXPERIMENTS]

    def test_report_cells_deduplicate_to_the_report_grid(self):
        experiments = [entry for entry in report.EXPERIMENTS if entry.report]
        cells = {
            json.dumps(spec.key(), sort_keys=True)
            for entry in experiments for spec in entry.cells(report.Setup(TINY))
        }
        # 6 sweeps, 24 Table 4 timing runs, 3 RAYTRACE contention bars.
        assert len(cells) == 33

    def test_a_run_without_a_trace_store_captures_each_hierarchy_once(self, monkeypatch):
        from repro.runner import BatchRunner
        from repro.system import taptrace

        captured = []
        capture = taptrace.capture_tap_traces

        def counting_capture(params, workload, **kwargs):
            captured.append(workload.name)
            return capture(params, workload, **kwargs)

        monkeypatch.setattr(taptrace, "capture_tap_traces", counting_capture)
        chosen = [entry for entry in report.EXPERIMENTS
                  if entry.id in ("fig8", "numa", "ablation-organization", "ablation-sharing")]
        setup = report.Setup(TINY, workloads=("radix",))
        _, _, outcomes = report.run_cells(chosen, setup, BatchRunner(jobs=1))
        # Three COMA sweep cells and the sharing cell share one
        # hierarchy run of radix; the CC-NUMA cell captures nothing.
        assert len(outcomes) == 5 and all(job.ok for job in outcomes)
        assert len(captured) == 1

    def test_paper_run_renders_every_experiment(self, capsys):
        assert main(["paper", "run", *TINY_ARGS]) == 0
        out = capsys.readouterr().out
        for entry in report.EXPERIMENTS:
            assert f"## {entry.title}\n\n```\n" in out

    def test_paper_check_evaluates_every_claim(self, capsys):
        code = main(["paper", "check", *TINY_ARGS])
        out = capsys.readouterr().out
        assert code in (0, 1)  # the tiny machine need not reproduce the shapes
        for entry in report.EXPERIMENTS:
            for claim in entry.claims:
                assert f"] {entry.id}/{claim.name}:" in out

    @pytest.mark.parametrize("holds, code", [(True, 0), (False, 1)])
    def test_paper_check_exit_code_follows_the_claims(self, holds, code, monkeypatch, capsys):
        forced = Claim("forced", "forced verdict", lambda studies: (holds, "forced"))
        (table2,) = [entry for entry in report.EXPERIMENTS if entry.id == "table2"]
        monkeypatch.setattr(report, "EXPERIMENTS", (replace(table2, claims=(forced,)),))
        assert main(["paper", "check", *TINY_ARGS]) == code
        out = capsys.readouterr().out
        assert f"[{'PASS' if holds else 'FAIL'}] table2/forced" in out

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["paper", "run", "fig99", *TINY_ARGS])


class TestCollectRunsNoSimulation:
    """Every experiment gets its simulations from runner cells, so a
    warm run simulates nothing and ``collect`` only reads ``Results``."""

    #: Figure 11's placement profiles still build a machine to read the
    #: global-set pressure; moving them waits for the benchmark ledger
    #: to reconcile a machine-free warm report (ROADMAP item 2).
    BUILDS_A_MACHINE = ("fig11", "fig11-padding")

    @pytest.fixture(scope="class")
    def filled(self, tmp_path_factory):
        from repro.runner import BatchRunner, ResultCache

        cache = ResultCache(tmp_path_factory.mktemp("results"))
        setup = report.Setup(TINY, workloads=("radix", "raytrace"))
        cold = BatchRunner(jobs=1, cache=cache)
        setup, results, outcomes = report.run_cells(report.EXPERIMENTS, setup, cold)
        assert all(job.ok for job in outcomes) and cold.stats.simulations == len(outcomes)
        return cache, setup, results

    def test_a_warm_run_simulates_nothing(self, filled):
        from repro.runner import BatchRunner

        cache, setup, _ = filled
        warm = BatchRunner(jobs=1, cache=cache)
        _, _, outcomes = report.run_cells(report.EXPERIMENTS, setup, warm)
        assert len(report.EXPERIMENTS) == 17
        assert warm.stats.simulations == 0
        assert warm.stats.from_cache == len(outcomes)

    def test_collect_builds_no_machine_and_runs_no_simulator(self, filled, monkeypatch):
        from repro.numa import NumaMachine
        from repro.system.machine import Machine
        from repro.system.simulator import Simulator

        _, setup, results = filled

        def forbidden(*args, **kwargs):
            raise AssertionError("collect simulated outside the runner")

        for owner, attr in ((Machine, "__init__"), (NumaMachine, "__init__"), (Simulator, "run")):
            monkeypatch.setattr(owner, attr, forbidden)
        for entry in report.EXPERIMENTS:
            if entry.id in self.BUILDS_A_MACHINE:
                with pytest.raises(AssertionError, match="outside the runner"):
                    entry.collect(setup, results)
            else:
                entry.render(setup, entry.collect(setup, results))
