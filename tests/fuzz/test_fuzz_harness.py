"""The differential fuzz harness itself: persistence, replay, shrinking.

The generative loop's own machinery must be trustworthy before its
verdicts mean anything: cases round-trip through JSON losslessly, the
committed corpus replays green, engine crashes surface as structured
mismatches (not raw tracebacks hypothesis can't shrink), and an
injected divergence produces a saved, reloadable reproducer.
"""

import json
import re

import pytest

from repro.core import timing_kernels as tk
from repro.fuzz import (
    DifferentialMismatch,
    FuzzCase,
    default_corpus_dir,
    fuzz,
    replay_corpus,
    run_case,
)
from repro.fuzz.harness import CASE_FORMAT, FuzzReport, load_case, save_case

SMOKE_CASE = FuzzCase(
    factor=64,
    nodes=2,
    page_size=256,
    scheme="V-COMA",
    entries=8,
    organization="fa",
    workload={"kind": "named", "name": "radix", "intensity": 0.2},
    max_refs_per_node=100,
)


class TestCasePersistence:
    def test_round_trip_through_dict(self):
        payload = SMOKE_CASE.to_dict()
        assert payload["format"] == CASE_FORMAT
        assert FuzzCase.from_dict(payload) == SMOKE_CASE

    def test_save_and_load(self, tmp_path):
        path = save_case(SMOKE_CASE, tmp_path)
        assert path.parent == tmp_path
        assert path.name.startswith("case-") and path.suffix == ".json"
        assert load_case(path) == SMOKE_CASE
        # Content-addressed: saving the same case is idempotent.
        assert save_case(SMOKE_CASE, tmp_path) == path
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_literal_case_round_trip(self):
        case = FuzzCase(
            factor=32,
            nodes=2,
            page_size=256,
            scheme="L2-TLB",
            entries=4,
            organization="dm",
            workload={
                "kind": "literal",
                "pages": 16,
                "streams": [[[0, 0], [1, 64]], [[0, 64]]],
            },
        )
        again = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert again == case
        assert "literal[3 events]" in case.describe()

    def test_cases_without_contention_key_load_with_it_off(self):
        payload = SMOKE_CASE.to_dict()
        del payload["contention"]
        case = FuzzCase.from_dict(payload)
        assert case == SMOKE_CASE and case.contention is False
        assert "contention" not in case.describe()
        case.contention = True
        assert case.describe().endswith(" contention")


class TestRunCase:
    def test_smoke_case_agrees(self):
        info = run_case(SMOKE_CASE)
        assert info["backend"] in ("compiled", "scalar")

    def test_engine_crash_becomes_structured_mismatch(self):
        broken = FuzzCase.from_dict(SMOKE_CASE.to_dict())
        broken.workload = {"kind": "named", "name": "no-such-workload", "intensity": 0.2}
        with pytest.raises(DifferentialMismatch) as excinfo:
            run_case(broken)
        assert "engine crash" in str(excinfo.value)
        assert excinfo.value.case is broken

    def test_first_record_divergence_in_a_long_trace(self, monkeypatch):
        """The whole trace streams are compared: one side's header
        differs, and the trace runs past 65,536 records."""
        from repro.fuzz import harness

        long_case = FuzzCase.from_dict(SMOKE_CASE.to_dict())
        long_case.nodes = 4
        long_case.workload = {"kind": "named", "name": "radix", "intensity": 1.0}
        long_case.max_refs_per_node = None
        scalar_run = harness.scalar_run
        calls = []

        def mislabelled(params, scheme, workload, agent, tracer=None, **kwargs):
            # Only the first call writes its own header: the oracle side
            # with the compiled backend, else the first of two scalar runs.
            if not calls:
                tracer.set_meta("bogus", params.nodes)
            calls.append(scheme)
            return scalar_run(params, scheme, workload, agent, tracer=tracer, **kwargs)

        monkeypatch.setattr(harness, "scalar_run", mislabelled)
        with pytest.raises(DifferentialMismatch) as excinfo:
            run_case(long_case)
        (diff,) = excinfo.value.diffs
        match = re.match(r"trace line 1 \(of (\d+) vs (\d+)\): ", diff)
        assert match is not None, diff
        assert int(match.group(1)) == int(match.group(2)) > 65536
        assert '"scheme":"bogus"' in diff


class TestCorpusReplay:
    def test_committed_corpus_replays_green(self):
        rows = replay_corpus()
        assert len(rows) >= 4  # the seeded regression corpus
        for row in rows:
            assert row["ok"], f"{row['name']}: {row['detail']}"

    @pytest.mark.skipif(
        tk.get_backend() is None, reason="compiled timing backend unavailable"
    )
    def test_corpus_exercises_compiled_engine(self):
        rows = replay_corpus()
        assert any(row["detail"] == "compiled" for row in rows)

    def test_corpus_pins_a_contention_case(self):
        paths = sorted(default_corpus_dir().glob("case-*.json"))
        assert any(load_case(path).contention for path in paths)

    def test_unreadable_corpus_file_is_a_failure(self, tmp_path):
        (tmp_path / "case-bogus.json").write_text('{"format": 1, "nope": true}')
        (row,) = replay_corpus(tmp_path)
        assert not row["ok"]
        assert "unreadable case" in row["detail"]

    def test_missing_corpus_dir_is_empty_not_an_error(self, tmp_path):
        assert replay_corpus(tmp_path / "absent") == []

    def test_default_corpus_is_the_committed_package_dir(self):
        assert default_corpus_dir().is_dir()
        assert list(default_corpus_dir().glob("case-*.json"))


class TestFuzzLoop:
    def test_small_budget_runs_clean(self):
        seen = []
        report = fuzz(max_examples=10, seed=7, on_case=lambda c, i: seen.append(c))
        assert report.ok
        assert report.cases_run >= 10
        assert report.failure is None and report.saved_to is None
        assert len(seen) == report.cases_run
        assert "no divergence" in report.render()

    def test_fixed_seed_is_reproducible(self):
        def collect(seed):
            cases = []
            fuzz(max_examples=5, seed=seed, on_case=lambda c, i: cases.append(c.to_dict()))
            return cases

        assert collect(3) == collect(3)

    def test_divergence_saves_shrunk_reproducer(self, tmp_path, monkeypatch):
        from repro.fuzz import harness

        def sabotaged(case):
            # Every case diverges, so running the engine pair first would
            # only repeat it through each of hypothesis' shrink steps.
            raise DifferentialMismatch(case, ["injected: forced divergence"])

        monkeypatch.setattr(harness, "run_case", sabotaged)
        report = harness.fuzz(max_examples=10, seed=0, corpus_dir=tmp_path)
        assert not report.ok
        assert report.failure is not None
        assert "injected" in report.error
        assert report.saved_to is not None
        # The shrunk case landed in the corpus and reloads cleanly.
        reloaded = load_case(report.saved_to)
        assert reloaded == report.failure
        assert "DIVERGENCE" in report.render()

    def test_report_render_shapes(self):
        ok = FuzzReport(cases_run=3, compiled_cases=3)
        assert ok.ok and "3 cases" in ok.render()
        bad = FuzzReport(cases_run=1, failure=SMOKE_CASE, error="x", saved_to="p")
        assert not bad.ok
        assert "saved reproducer: p" in bad.render()
