"""The differential fuzz driver: execute, shrink, persist, replay.

One :class:`FuzzCase` is a pure-data (JSON-serializable) description of
a paired run; :func:`run_case` executes it on the compiled engine and
the scalar oracle, each streaming its trace to a temporary file, and
compares both with the deep-equality oracle — results, machine state,
and the whole JSONL trace streams.  Any
divergence — different numbers *or* an engine crash — raises
:class:`DifferentialMismatch` carrying the case, which is what lets
hypothesis shrink the failure to a minimal reproducer.

:func:`fuzz` drives hypothesis over :mod:`repro.fuzz.strategies` with a
fixed seed (derandomized CI runs replay identically), and on failure
writes the *shrunk* case into the regression corpus.  The committed
corpus under ``repro/fuzz/corpus`` is replayed by
:func:`replay_corpus` — every divergence ever found stays fixed.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.common.params import MachineParams
from repro.core.schemes import Scheme
from repro.core.tlb import Organization
from repro.fuzz.oracle import (
    compiled_run,
    diff_paths,
    literal_workload,
    scalar_run,
    summary_surface,
)

#: Bumped when the on-disk case schema changes shape.
CASE_FORMAT = 1


class DifferentialMismatch(AssertionError):
    """Compiled and scalar runs of one case diverged (or crashed)."""

    def __init__(self, case: "FuzzCase", diffs: List[str]) -> None:
        self.case = case
        self.diffs = list(diffs)
        preview = "; ".join(self.diffs[:4])
        super().__init__(f"differential mismatch for {case.describe()}: {preview}")


@dataclass
class FuzzCase:
    """One paired compiled-vs-scalar run, as pure data."""

    factor: int
    nodes: int
    page_size: int
    scheme: str
    entries: int
    organization: str
    #: ``{"kind": "named", "name", "intensity"}`` or
    #: ``{"kind": "literal", "pages", "streams": [[[op, value], ...]]}``.
    workload: Dict
    max_refs_per_node: Optional[int] = None
    #: Crossbar input-port contention (absent from older corpus files).
    contention: bool = False

    def describe(self) -> str:
        work = self.workload
        if work.get("kind") == "named":
            label = f"{work['name']}@{work['intensity']}"
        else:
            refs = sum(len(stream) for stream in work.get("streams", ()))
            label = f"literal[{refs} events]"
        return (
            f"{self.scheme}/{label} f{self.factor} n{self.nodes} "
            f"{self.organization}{self.entries}"
            + (f" max_refs={self.max_refs_per_node}" if self.max_refs_per_node else "")
            + (" contention" if self.contention else "")
        )

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["format"] = CASE_FORMAT
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzCase":
        data = dict(data)
        data.pop("format", None)
        return cls(**data)


@dataclass
class FuzzReport:
    """What one :func:`fuzz` invocation did."""

    cases_run: int = 0
    compiled_cases: int = 0
    failure: Optional[FuzzCase] = None
    error: Optional[str] = None
    saved_to: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.error is None

    def render(self) -> str:
        if self.ok:
            return (
                f"fuzz: {self.cases_run} cases executed "
                f"({self.compiled_cases} on the compiled engine), no divergence"
            )
        lines = [f"fuzz: DIVERGENCE after {self.cases_run} cases"]
        if self.failure is not None:
            lines.append(f"  shrunk case: {self.failure.describe()}")
        if self.error:
            lines.append(f"  {self.error}")
        if self.saved_to:
            lines.append(f"  saved reproducer: {self.saved_to}")
        return "\n".join(lines)


def default_corpus_dir() -> Path:
    """The committed regression corpus inside the package."""
    return Path(__file__).parent / "corpus"


# ---------------------------------------------------------------------------
# single-case execution
# ---------------------------------------------------------------------------


def _build_params(case: FuzzCase) -> MachineParams:
    return MachineParams.scaled_down(
        factor=case.factor, nodes=case.nodes, page_size=case.page_size
    )


def _paired_results(case: FuzzCase):
    """``((compiled, trace), (scalar, trace))`` for one case, each a
    ``(summary, state)`` pair (:func:`~repro.fuzz.oracle.compiled_run`,
    :func:`~repro.fuzz.oracle.scalar_run`) built fresh, and the JSONL
    bytes its tracer wrote to a temporary file (the compiled engine
    writes its own trace records).  Without the compiled backend both
    sides run the scalar oracle."""
    from repro.coma.protocol import TranslationAgent
    from repro.core.timing_kernels import get_backend
    from repro.obs import Tracer
    from repro.system.taps import TimingAgent

    params = _build_params(case)
    scheme = Scheme(case.scheme)
    if case.workload["kind"] == "named":
        from repro.workloads import make_workload

        def workload():
            return make_workload(case.workload["name"], intensity=case.workload["intensity"])

        def agent():
            return TimingAgent(
                params, scheme, case.entries, organization=Organization(case.organization)
            )

    else:
        streams = [
            [tuple(ref) for ref in stream] for stream in case.workload["streams"]
        ]

        def workload():
            return literal_workload(params, streams, pages=case.workload["pages"])

        agent = TranslationAgent

    compiled = compiled_run if get_backend() is not None else scalar_run
    pairs = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as scratch:
        for side, run in (("compiled", compiled), ("scalar", scalar_run)):
            path = os.path.join(scratch, f"{side}.jsonl")
            with Tracer(path) as tracer:
                result = run(
                    params, scheme, workload(), agent(), tracer=tracer,
                    max_refs_per_node=case.max_refs_per_node, contention=case.contention,
                )
            with open(path, "rb") as handle:
                pairs.append((result, handle.read()))
    return pairs


def _trace_diffs(expected: bytes, actual: bytes) -> List[str]:
    """Where two JSONL trace streams diverge: the first differing line
    (1-based) and both line counts."""
    if expected == actual:
        return []
    want, got = expected.splitlines(), actual.splitlines()
    index = next(
        (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
        min(len(want), len(got)),
    )
    return [
        f"trace line {index + 1} (of {len(want)} vs {len(got)}): "
        f"{want[index].decode() if index < len(want) else None!r} != "
        f"{got[index].decode() if index < len(got) else None!r}"
    ]


def run_case(case: FuzzCase) -> Dict[str, object]:
    """Execute one case on both engines; raise on any divergence.

    Returns ``{"backend": ..., "fallback_reason": ...}`` from the fast
    run (an *eligibility* fallback means both runs used the oracle —
    still executed, but it proved nothing about the compiled engine).
    """
    try:
        ((fast, fast_state), fast_trace), ((scalar, scalar_state), scalar_trace) = (
            _paired_results(case)
        )
    except DifferentialMismatch:
        raise
    except Exception as exc:
        raise DifferentialMismatch(
            case, [f"engine crash: {type(exc).__name__}: {exc}"]
        ) from exc
    diffs = diff_paths(summary_surface(scalar), summary_surface(fast), "summary")
    diffs += diff_paths(scalar_state, fast_state, "machine")
    diffs += _trace_diffs(scalar_trace, fast_trace)
    if diffs:
        raise DifferentialMismatch(case, diffs)
    return {"backend": fast.backend, "fallback_reason": fast.fallback_reason}


# ---------------------------------------------------------------------------
# corpus persistence + replay
# ---------------------------------------------------------------------------


def save_case(case: FuzzCase, corpus_dir: Optional[os.PathLike] = None) -> Path:
    """Persist one (shrunk) case as a corpus JSON file, atomically."""
    import hashlib

    from repro.runner.locking import atomic_write_text

    root = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    blob = json.dumps(case.to_dict(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    path = root / f"case-{digest}.json"
    atomic_write_text(path, json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: os.PathLike) -> FuzzCase:
    return FuzzCase.from_dict(json.loads(Path(path).read_text()))


def replay_corpus(corpus_dir: Optional[os.PathLike] = None) -> List[Dict]:
    """Re-run every corpus case; one result row per file.

    Rows are ``{"name", "ok", "detail"}``; an unparsable file is a
    failure (the corpus is part of the contract, not best-effort).
    """
    root = Path(corpus_dir) if corpus_dir is not None else default_corpus_dir()
    rows: List[Dict] = []
    for path in sorted(root.glob("*.json")) if root.is_dir() else []:
        try:
            case = load_case(path)
            info = run_case(case)
        except DifferentialMismatch as exc:
            rows.append({"name": path.name, "ok": False, "detail": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            rows.append(
                {"name": path.name, "ok": False, "detail": f"unreadable case: {exc}"}
            )
        else:
            rows.append(
                {"name": path.name, "ok": True, "detail": str(info["backend"])}
            )
    return rows


# ---------------------------------------------------------------------------
# the hypothesis-driven fuzz loop
# ---------------------------------------------------------------------------


def fuzz(
    max_examples: int = 200,
    seed: int = 0,
    corpus_dir: Optional[os.PathLike] = None,
    on_case: Optional[Callable[[FuzzCase, Dict], None]] = None,
) -> FuzzReport:
    """Run the generative differential loop; never raises for findings.

    Hypothesis generates ``max_examples`` cases from a fixed ``seed``
    (identical across machines), shrinks the first divergence to a
    minimal case, and the shrunk reproducer is written into
    ``corpus_dir`` (default: the committed corpus) so the failure is
    pinned forever.  Shrink-phase executions count toward
    ``cases_run``.
    """
    from hypothesis import HealthCheck, given
    from hypothesis import seed as hypothesis_seed
    from hypothesis import settings

    from repro.fuzz.strategies import fuzz_cases

    progress = {"count": 0, "compiled": 0}

    @hypothesis_seed(seed)
    @settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=False,
        suppress_health_check=list(HealthCheck),
    )
    @given(case=fuzz_cases())
    def drive(case: FuzzCase) -> None:
        progress["count"] += 1
        info = run_case(case)
        if info["backend"] == "compiled":
            progress["compiled"] += 1
        if on_case is not None:
            on_case(case, info)

    try:
        drive()
    except DifferentialMismatch as exc:
        saved = save_case(exc.case, corpus_dir)
        return FuzzReport(
            cases_run=progress["count"],
            compiled_cases=progress["compiled"],
            failure=exc.case,
            error="; ".join(exc.diffs[:4]),
            saved_to=str(saved),
        )
    return FuzzReport(
        cases_run=progress["count"], compiled_cases=progress["compiled"]
    )


__all__ = [
    "CASE_FORMAT",
    "DifferentialMismatch",
    "FuzzCase",
    "FuzzReport",
    "default_corpus_dir",
    "fuzz",
    "load_case",
    "replay_corpus",
    "run_case",
    "save_case",
]
