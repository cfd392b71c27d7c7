"""The store contract every content-addressed store keeps.

:class:`~repro.runner.cache.ResultCache` and
:class:`~repro.runner.traces.TraceStore` are two thin subclasses of
:class:`~repro.runner.store.ContentStore`; each test here runs against
both.  What differs per store (the trace store's warning and
``corrupt_dropped``, the result cache's format-mismatch miss, the
environment caps, the subprocess crash tests) is tested beside each
store in ``test_taptrace.py``, ``test_runner.py`` and
``test_crash_consistency.py``.
"""

import functools
import json
import os
import warnings

import pytest

from repro import MachineParams
from repro.common.stats import TimeBreakdown
from repro.core.schemes import Scheme
from repro.runner import JobSpec, ResultCache, RunSummary, TraceStore
from repro.runner.store import ContentStore


def tiny_params(seed):
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256, seed=seed)


@functools.lru_cache(maxsize=None)
def recorded_traces():
    from repro.system.taptrace import capture_tap_traces

    spec = JobSpec.sweep(
        tiny_params(1998), "radix", sizes=(8,),
        max_refs_per_node=200, overrides={"intensity": 0.2},
    )
    return capture_tap_traces(spec.params, spec.build_workload(), max_refs_per_node=200)


class ResultCacheCase:
    store = ResultCache
    suffix = ".json"

    @staticmethod
    def spec(seed):
        return JobSpec.timing(tiny_params(seed), Scheme.V_COMA, "fft", 8, max_refs_per_node=100)

    @staticmethod
    def put(store, spec):
        summary = RunSummary(
            scheme=Scheme.V_COMA, workload_name="fft", total_time=123,
            refs_per_node=[50, 50], barriers=0,
            breakdowns=[TimeBreakdown(), TimeBreakdown()], counters={},
        )
        return store.put(spec, summary, elapsed=1.0)

    @staticmethod
    def content(value):
        return json.dumps(value.to_dict(), sort_keys=True)


class TraceStoreCase:
    store = TraceStore
    suffix = ".trace"

    @staticmethod
    def spec(seed):
        return JobSpec.sweep(tiny_params(seed), "radix", sizes=(8,), max_refs_per_node=200)

    @staticmethod
    def put(store, spec):
        return store.put(spec, recorded_traces())

    @staticmethod
    def content(value):
        return value.to_bytes()


@pytest.fixture(params=[ResultCacheCase, TraceStoreCase], ids=["result-cache", "trace-store"])
def case(request):
    return request.param


def aged(paths):
    """Give ``paths`` increasing, well-separated mtimes (oldest first)."""
    for age, path in enumerate(paths):
        os.utime(path, (1_000_000 + age, 1_000_000 + age))


def test_stores_are_siblings():
    # benchmarks/e2e/ledger.py wraps get/put on each class: a store that
    # inherited the other's wrapped methods would be timed twice.
    assert issubclass(ResultCache, ContentStore) and issubclass(TraceStore, ContentStore)
    assert not issubclass(TraceStore, ResultCache)
    assert not issubclass(ResultCache, TraceStore)


def test_round_trip(case, tmp_path):
    store = case.store(tmp_path)
    spec = case.spec(1)
    assert store.get(spec) is None
    assert (store.hits, store.misses) == (0, 1)
    path = case.put(store, spec)
    digest = store.key(spec)
    assert path == tmp_path / digest[:2] / f"{digest}{case.suffix}"
    restored = store.get(spec)
    assert restored is not None
    assert (store.hits, store.misses) == (1, 1)
    # A fresh object reads what another one wrote.
    assert case.content(case.store(tmp_path).get(spec)) == case.content(restored)


def test_contains_len_clear_total_bytes(case, tmp_path):
    store = case.store(tmp_path)
    specs = [case.spec(seed) for seed in (1, 2)]
    assert len(store) == 0 and store.total_bytes() == 0
    paths = [case.put(store, spec) for spec in specs]
    assert all(store.contains(spec) for spec in specs)
    assert not store.contains(case.spec(3))
    assert len(store) == 2
    assert store.total_bytes() == sum(path.stat().st_size for path in paths)
    assert store.clear() == 2
    assert len(store) == 0 and store.total_bytes() == 0
    assert not any(store.contains(spec) for spec in specs)
    assert "entries=0" in repr(store)


def test_lru_eviction_on_put(case, tmp_path):
    store = case.store(tmp_path)
    specs = [case.spec(seed) for seed in (10, 11, 12)]
    paths = [case.put(store, spec) for spec in specs]
    aged(paths)
    store.max_bytes = int(paths[0].stat().st_size * 2.5)
    case.put(store, case.spec(13))
    assert [path.exists() for path in paths] == [False, False, True]
    assert store.contains(case.spec(13))
    assert store.evictions == 2
    assert store.total_bytes() <= store.max_bytes


def test_hit_refreshes_recency(case, tmp_path):
    store = case.store(tmp_path)
    specs = [case.spec(seed) for seed in (10, 11)]
    paths = [case.put(store, spec) for spec in specs]
    aged(paths)
    assert store.get(specs[0]) is not None  # touches the oldest entry
    store.max_bytes = int(paths[0].stat().st_size * 2.5)
    case.put(store, case.spec(12))
    assert paths[0].exists(), "freshly hit entry must survive eviction"
    assert not paths[1].exists()


def test_orphan_recovered_on_open(case, tmp_path):
    spec = case.spec(1)
    committed = case.put(case.store(tmp_path), spec)
    # A temp file of a writer pid that cannot be alive (max_pid is far
    # below 2**30): the debris of a writer killed mid-write.
    orphan = committed.with_name(f".{committed.name}.{2**30 + 1}.tmp")
    orphan.write_bytes(b"parti")
    fresh = case.store(tmp_path)
    assert fresh.get(spec) is not None  # the committed entry is intact
    assert fresh.quarantined == 1
    assert not orphan.exists()
    (evidence,) = (tmp_path / "quarantine").iterdir()
    assert evidence.read_bytes() == b"parti"


def test_corrupt_entry_quarantined_with_evidence(case, tmp_path):
    store = case.store(tmp_path)
    spec = case.spec(1)
    path = case.put(store, spec)
    path.write_bytes(b"{torn")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert store.get(spec) is None
    assert not path.exists()
    (evidence,) = (tmp_path / "quarantine").iterdir()
    assert evidence.read_bytes() == b"{torn"
    assert (store.quarantined, store.misses, store.hits) == (1, 1, 0)
    # Never consulted again: the next read is a plain miss.
    assert store.get(spec) is None
    assert store.quarantined == 1
