"""Golden trace-profile suite: cost attribution from a committed trace.

The repo commits two recorded RADIX traces (V-COMA and the L2-TLB
timing point, gzipped JSONL) for the same seeded 4-node configuration
as the golden metrics snapshots.  The profiler must derive the paper's
Table-4-shaped overhead breakdown from those traces alone and
reconcile it **exactly** — assert-equal, not approximately — against
the committed ``tests/golden/metrics_*.json`` registries for the same
runs.  A live traced run must also reproduce the committed trace
record-for-record, on the compiled engine and on the scalar oracle
alike, so the goldens double as determinism, trace-format and
engine-equivalence regressions.

To refresh after an intentional behavior change::

    PYTHONPATH=src python -m pytest tests/integration/test_trace_profile.py \
        --update-golden
"""

import json
from pathlib import Path

import pytest

from repro import MachineParams, Scheme
from repro.analysis import run_timing
from repro.obs import (
    MetricsRegistry,
    ReconciliationError,
    Tracer,
    attribute_costs,
    profile_trace,
    read_trace,
    registry_from_summary,
    validate_trace,
)
from repro.workloads import make_workload

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
SCHEMES = (Scheme.V_COMA, Scheme.L2_TLB)
WORKLOAD = "radix"
INTENSITY = 0.2
ENTRIES = 8
MAX_REFS = 400


def _slug(scheme: Scheme) -> str:
    return scheme.value.lower().replace("-", "_")


def trace_path(scheme: Scheme) -> Path:
    return GOLDEN_DIR / f"trace_{_slug(scheme)}_{WORKLOAD}.jsonl.gz"


def metrics_path(scheme: Scheme) -> Path:
    return GOLDEN_DIR / f"metrics_{_slug(scheme)}_{WORKLOAD}.json"


PROFILE_PATH = GOLDEN_DIR / f"profile_{_slug(Scheme.V_COMA)}_{WORKLOAD}.json"


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(
        factor=64, nodes=4, page_size=256
    ).replace(seed=1998)


def record_trace(params, scheme: Scheme, path, fast: bool = True) -> str:
    """Record the golden configuration's trace; returns the backend
    that ran."""
    workload = make_workload(WORKLOAD, intensity=INTENSITY)
    with Tracer(str(path)) as tracer:
        result = run_timing(
            params, scheme, workload, ENTRIES,
            max_refs_per_node=MAX_REFS, tracer=tracer, fast=fast,
        )
    return result.backend


@pytest.fixture(scope="module", params=SCHEMES, ids=[s.value for s in SCHEMES])
def golden_trace(request, params):
    scheme = request.param
    path = trace_path(scheme)
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        record_trace(params, scheme, path)
    assert path.exists(), (
        f"missing golden trace {path}; run with --update-golden to create it"
    )
    return scheme, read_trace(str(path))


def test_committed_trace_validates(golden_trace):
    _, records = golden_trace
    stats = validate_trace(records)
    assert stats["roots"] == 1
    assert stats["spans"] > 0 and stats["events"] > 0


@pytest.mark.parametrize("fast", [True, False], ids=["compiled", "scalar"])
def test_committed_trace_matches_live_run(golden_trace, params, tmp_path, fast):
    """A fresh seeded run on either engine reproduces the committed
    trace record-for-record."""
    from repro.core.timing_kernels import get_backend

    if fast and get_backend() is None:
        pytest.skip("compiled timing backend unavailable")
    scheme, records = golden_trace
    live_path = tmp_path / "live.jsonl"
    backend = record_trace(params, scheme, live_path, fast=fast)
    assert backend == ("compiled" if fast else "scalar")
    assert read_trace(str(live_path)) == records


def test_attribution_reconciles_exactly_with_golden_metrics(golden_trace):
    """The acceptance criterion: every trace-derived category equals the
    corresponding registry value, asserted (strict), for both the
    V-COMA DLB point and the L2-TLB timing point."""
    scheme, records = golden_trace
    registry = MetricsRegistry.from_dict(
        json.loads(metrics_path(scheme).read_text())
    )
    attribution = attribute_costs(records)
    checks = attribution.reconcile(registry, strict=True)
    assert len(checks) >= 12
    assert all(row["ok"] for row in checks)
    # The breakdown is non-trivial: every category landed cycles.
    for category in ("translation", "local_memory", "remote_memory"):
        assert attribution.categories[category] > 0


@pytest.mark.parametrize("scheme", SCHEMES, ids=[s.value for s in SCHEMES])
def test_attribution_reconciles_on_a_compiled_trace(params, scheme, tmp_path):
    """Strict reconciliation holds on a trace the compiled engine
    wrote, for a full FFT run under port contention (a configuration
    the goldens do not cover)."""
    from repro.core.timing_kernels import get_backend

    if get_backend() is None:
        pytest.skip("compiled timing backend unavailable")
    path = tmp_path / "compiled.jsonl"
    with Tracer(str(path)) as tracer:
        result = run_timing(
            params, scheme, make_workload("fft", intensity=0.25), ENTRIES,
            contention=True, tracer=tracer,
        )
    assert result.backend == "compiled"
    assert result.counters["contention_cycles"] > 0
    records = read_trace(str(path))
    checks = attribute_costs(records).reconcile(
        registry_from_summary(result), strict=True
    )
    assert len(checks) >= 12
    assert all(row["ok"] for row in checks)


def test_attribution_uses_scheme_vocabulary(golden_trace):
    scheme, records = golden_trace
    attribution = attribute_costs(records)
    expected = "dlb" if scheme is Scheme.V_COMA else "tlb"
    assert attribution.translation_kind == expected
    assert attribution.counts["translation_fills"] > 0


def test_reconcile_flags_a_perturbed_registry(golden_trace):
    """Shift one counter by one cycle: strict reconcile must raise and
    name the failing identity."""
    scheme, records = golden_trace
    registry = MetricsRegistry.from_dict(
        json.loads(metrics_path(scheme).read_text())
    )
    registry.counter("repro_events_total").inc(1, event="network_cycles")
    with pytest.raises(ReconciliationError, match="network_cycles"):
        attribute_costs(records).reconcile(registry, strict=True)
    rows = attribute_costs(records).reconcile(registry, strict=False)
    bad = [row for row in rows if not row["ok"]]
    assert len(bad) == 1 and "network_cycles" in bad[0]["check"]


def test_profile_snapshot_matches_golden(golden_trace, update_golden):
    scheme, records = golden_trace
    if scheme is not Scheme.V_COMA:
        pytest.skip("profile snapshot is committed for the V-COMA trace")
    snapshot = {
        "profile": profile_trace(records).to_dict(),
        "attribution": attribute_costs(records).to_dict(),
    }
    rendered = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if update_golden:
        PROFILE_PATH.write_text(rendered)
        pytest.skip(f"rewrote {PROFILE_PATH.name}")
    assert PROFILE_PATH.exists(), (
        f"missing golden snapshot {PROFILE_PATH}; "
        f"run with --update-golden to create it"
    )
    assert rendered == PROFILE_PATH.read_text()


def test_profile_tree_accounts_for_every_span(golden_trace):
    """The profile's span count equals the trace's, and the root's
    inclusive time covers the whole run."""
    _, records = golden_trace
    profile = profile_trace(records)
    spans = [r for r in records if r.get("kind") == "span"]
    assert profile.span_count == len(spans)
    (root,) = [r for r in spans if r["parent"] is None]
    (root_node,) = [n for n in profile.roots if n.name == "run"]
    assert root_node.inclusive == root["t1"] - root["t0"]
    # Exclusive times telescope: summing them over the whole tree
    # recovers exactly the roots' inclusive totals.
    def total_exclusive(node):
        return node.exclusive + sum(
            total_exclusive(child) for child in node.children.values()
        )

    assert sum(total_exclusive(n) for n in profile.roots) == sum(
        n.inclusive for n in profile.roots
    )
