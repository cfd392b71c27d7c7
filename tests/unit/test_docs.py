"""Documentation drift: the prose must name things that exist.

Scans ``README.md`` and ``docs/*.md`` for three kinds of reference and
checks each against the tree:

* relative markdown links resolve to a file;
* backticked repository paths (``src/…``, ``docs/…``, ``benchmarks/…``,
  ``tests/…``, ``examples/…``) exist;
* every ``python -m repro <cmd>`` names a subcommand of
  :func:`repro.cli.build_parser`.

It holds the subcommand list in ``docs/api.md``'s "Command line" block
(``python -m repro {describe, workloads, …}``) equal to that parser's.

It also holds the ``REPRO_*`` switch table in ``docs/robustness.md``
equal to the set of switch names quoted in ``src/`` and
``benchmarks/*.py``.

A deleted module, doc page, subcommand or switch that the docs still
mention, or a new switch they do not, fails here instead of rotting
silently.
"""

import argparse
import glob
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(r"^(?:src|docs|benchmarks|tests|examples)/")
CLI_CALL = re.compile(r"python\s+-m\s+repro\s+([a-z][\w-]*)")
CLI_LIST = re.compile(r"python\s+-m\s+repro\s+\{([^}]*)\}")
QUOTED_SWITCH = re.compile(r"[\"'](REPRO_[A-Z_]+)[\"']")
SWITCH_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)


def _ids(paths):
    return [str(path.relative_to(ROOT)) for path in paths]


def _subcommands():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("build_parser() has no subcommands")


def test_scans_something():
    assert (ROOT / "README.md") in DOCS and len(DOCS) > 1


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_relative_links_resolve(doc):
    missing = []
    for target in LINK.findall(doc.read_text()):
        if re.match(r"^[a-z][\w+.-]*:", target) or target.startswith("#"):
            continue  # external URL or in-page anchor
        path = target.split("#", 1)[0]
        if not (doc.parent / path).exists():
            missing.append(target)
    assert not missing, f"{doc.name} links to missing files: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_backticked_paths_exist(doc):
    prose = FENCE.sub("", doc.read_text())
    missing = []
    for span in CODE_SPAN.findall(prose):
        path = span.split()[0].split("::", 1)[0] if span.strip() else ""
        if REPO_PATH.match(path) and not glob.glob(str(ROOT / path)):
            missing.append(span)
    assert not missing, f"{doc.name} names missing paths: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=_ids(DOCS))
def test_cli_invocations_name_real_subcommands(doc):
    known = _subcommands()
    unknown = sorted(set(CLI_CALL.findall(doc.read_text())) - known)
    assert not unknown, f"{doc.name} runs unknown subcommands: {unknown}"


def test_api_subcommand_list_matches_parser():
    lists = CLI_LIST.findall((ROOT / "docs" / "api.md").read_text())
    assert len(lists) == 1, "docs/api.md needs one `python -m repro {...}` list"
    documented = {name for name in re.split(r"[\s,]+", lists[0]) if name}
    assert documented == _subcommands()


def test_env_switch_table_matches_code():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted(
        (ROOT / "benchmarks").glob("*.py")
    )
    read = set()
    for path in sources:
        read.update(QUOTED_SWITCH.findall(path.read_text()))
    documented = set(SWITCH_ROW.findall((ROOT / "docs" / "robustness.md").read_text()))
    assert read, "found no REPRO_* switch in the sources"
    assert read - documented == set(), "switches missing from docs/robustness.md"
    assert documented - read == set(), "docs/robustness.md lists switches nothing reads"
