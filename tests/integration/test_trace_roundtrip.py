"""Trace round-trip: emit JSONL, parse it back, audit the span tree.

A seeded 4-node traced run is written to disk, re-read with
:func:`repro.obs.read_trace`, and checked against the frozen schema
(:func:`repro.obs.validate_trace`): every span's parent exists, every
latency is non-negative, and the event vocabulary matches the scheme
(DLB events only under V-COMA, TLB events elsewhere).  The trace is
then reconciled *exactly* against the merged simulator counters — the
two observability surfaces must never disagree — and a traced run must
be indistinguishable from an untraced one in every simulated quantity.
"""

import pytest

from repro import MachineParams, Scheme
from repro.analysis import run_timing
from repro.obs import Tracer, read_trace, validate_trace
from repro.obs.schema import TraceSchemaError, scheme_vocabulary
from repro.obs.trace import span_tree
from repro.workloads import make_workload

MAX_REFS = 400
ENTRIES = 8


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(
        factor=64, nodes=4, page_size=256
    ).replace(seed=1998)


def traced_run(params, scheme, path):
    workload = make_workload("radix", intensity=0.2)
    with Tracer(str(path)) as tracer:
        result = run_timing(
            params, scheme, workload, ENTRIES,
            max_refs_per_node=MAX_REFS, tracer=tracer,
        )
        counters = dict(result.counters)
        total_time = result.total_time
    return read_trace(str(path)), counters, total_time


@pytest.fixture(scope="module")
def vcoma(params, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "vcoma.jsonl"
    return traced_run(params, Scheme.V_COMA, path)


def test_trace_validates_against_schema(vcoma):
    records, _, _ = vcoma
    stats = validate_trace(records)
    assert stats["roots"] == 1
    assert stats["spans"] > 0 and stats["events"] > 0


def test_meta_header_first(vcoma, params):
    records, _, _ = vcoma
    meta = records[0]
    assert meta["kind"] == "meta"
    assert meta["scheme"] == Scheme.V_COMA.value
    assert meta["nodes"] == params.nodes
    assert meta["workload"] == "radix"


def test_span_tree_integrity(vcoma):
    records, _, total_time = vcoma
    spans = [r for r in records if r.get("kind") == "span"]
    ids = {s["id"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "run"
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["t1"] >= span["t0"] >= 0
    # The root "run" span covers the whole simulation.
    assert roots[0]["t0"] == 0
    assert roots[0]["t1"] == total_time
    # Children nest inside the root's interval and the tree index
    # reaches every non-root span.
    children = span_tree(records)
    reachable = set()
    frontier = [roots[0]["id"]]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            reachable.add(child["id"])
            frontier.append(child["id"])
    assert reachable == ids - {roots[0]["id"]}


def test_event_vocabulary_is_scheme_bound(vcoma):
    records, _, _ = vcoma
    names = {r["name"] for r in records if r.get("kind") == "event"}
    vocabulary = scheme_vocabulary(Scheme.V_COMA)
    assert names <= vocabulary["events"]
    assert "dlb_hit" in names and "dlb_fill" in names
    assert not names & {"tlb_hit", "tlb_fill"}


def test_trace_reconciles_exactly_with_counters(vcoma):
    records, counters, _ = vcoma
    hits = sum(1 for r in records if r.get("name") == "dlb_hit")
    fills = sum(1 for r in records if r.get("name") == "dlb_fill")
    assert hits + fills == counters["dlb_accesses"]
    assert fills == counters["dlb_misses"]
    fetches = sum(1 for r in records if r.get("name") == "protocol.fetch")
    upgrades = sum(1 for r in records if r.get("name") == "protocol.upgrade")
    assert fetches + upgrades > 0
    invalidations = sum(
        1 for r in records if r.get("name") == "protocol.invalidate"
    )
    assert invalidations == counters["invalidations"]


def test_tlb_scheme_uses_tlb_vocabulary(params, tmp_path):
    records, counters, _ = traced_run(
        params, Scheme.L0_TLB, tmp_path / "l0.jsonl"
    )
    validate_trace(records)
    names = {r["name"] for r in records if r.get("kind") == "event"}
    assert "tlb_hit" in names or "tlb_fill" in names
    assert not names & {"dlb_hit", "dlb_fill"}
    hits = sum(1 for r in records if r.get("name") == "tlb_hit")
    fills = sum(1 for r in records if r.get("name") == "tlb_fill")
    assert hits + fills == counters["tlb_accesses"]
    assert fills == counters["tlb_misses"]


def test_tracing_does_not_perturb_the_simulation(params, vcoma, tmp_path):
    _, traced_counters, traced_time = vcoma
    untraced = run_timing(
        params, Scheme.V_COMA, make_workload("radix", intensity=0.2),
        ENTRIES, max_refs_per_node=MAX_REFS,
    )
    assert untraced.total_time == traced_time
    assert untraced.counters == traced_counters


def test_schema_rejects_foreign_vocabulary(vcoma):
    records, _, _ = vcoma
    bad = list(records) + [
        {"kind": "event", "name": "tlb_hit", "t": 1, "span": None, "node": 0}
    ]
    with pytest.raises(TraceSchemaError):
        validate_trace(bad)


def test_truncated_trace_is_flagged(params, tmp_path):
    path = tmp_path / "trunc.jsonl"
    tracer = Tracer(str(path))
    tracer.set_meta(scheme=Scheme.V_COMA.value, nodes=1)
    tracer.begin("run", 0)
    tracer.begin("ref", 5, node=0)
    tracer.close()  # two spans still open: closed as truncated
    records = read_trace(str(path))
    truncated = [r for r in records if r.get("truncated")]
    assert len(truncated) == 2
    validate_trace(records)
