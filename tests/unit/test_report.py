"""Report generator and the experiment registry behind it."""

import json
from dataclasses import replace

import pytest

from repro import MachineParams
from repro.analysis import report
from repro.analysis.report import Claim, generate_report, write_report
from repro.cli import main

TINY = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
FAST = dict(
    params=TINY,
    workloads=["barnes"],
    sizes=(8, 32),
    intensities={"barnes": 0.1},
)


@pytest.fixture(scope="module")
def report_text():
    return generate_report(include_figures=True, **FAST)


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

    def test_tables_only_mode(self):
        text = generate_report(include_figures=False, **FAST)
        assert "Table 2" in text
        assert "Figure 8" not in text
        assert len(text) < len(generate_report(include_figures=True, **FAST))

    def test_raytrace_adds_v2_bar(self):
        text = generate_report(
            params=TINY,
            workloads=["raytrace"],
            sizes=(8,),
            intensities={"raytrace": 0.3},
            include_figures=True,
        )
        assert "DLB/8/V2" in text

    def test_write_report_roundtrip(self, tmp_path):
        path = tmp_path / "r.md"
        text = write_report(str(path), include_figures=False, **FAST)
        assert path.read_text() == text


#: TINY as the CLI spells it; ``paper`` runs every workload at the
#: report intensities.
TINY_ARGS = ["--nodes", "2", "--factor", "256", "--page-size", "256", "--no-cache"]


def _section(text, heading):
    """The report's ``## heading…`` section, up to the next heading."""
    (section,) = [s for s in text.split("\n\n## ") if s.startswith(heading)]
    return "## " + section


class TestRegistry:
    @pytest.fixture(scope="class")
    def full_report(self):
        return generate_report(params=TINY)

    @pytest.mark.parametrize("experiment_id", ["table2", "table3", "table4"])
    def test_paper_run_matches_report_section(self, experiment_id, full_report, capsys):
        heading = {"table2": "Table 2", "table3": "Table 3", "table4": "Table 4"}[experiment_id]
        assert main(["paper", "run", experiment_id, *TINY_ARGS]) == 0
        assert capsys.readouterr().out == _section(full_report, heading) + "\n"

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
