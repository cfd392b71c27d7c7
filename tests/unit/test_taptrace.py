"""Unit tests for the tap-trace format and the persistent trace store.

Covers the columnar binary round trip (write → read → replay), the
corruption taxonomy (bad magic, bad format, truncated header, truncated
payload, flipped payload bytes, mangled header JSON — every one a
:class:`TraceError`, never a crash or silent wrong answer), and the
:class:`TraceStore`'s miss/hit/eviction behaviour including recovery
from corrupt files on disk.
"""

import struct

import pytest

from repro import MachineParams
from repro.core.schemes import TapPoint
from repro.core.tlb import Organization
from repro.runner import JobSpec, TraceStore
from repro.system import taptrace
from repro.system.taptrace import (
    REQUESTER,
    TRACE_FORMAT,
    TRACE_MAGIC,
    CaptureAgent,
    TapTraceSet,
    TraceError,
    capture_tap_traces,
    replay_study,
    replay_summary,
)


@pytest.fixture(scope="module")
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


@pytest.fixture(scope="module")
def spec(params):
    return JobSpec.sweep(
        params,
        "radix",
        sizes=(8, 32),
        orgs=(Organization.FULLY_ASSOCIATIVE, Organization.DIRECT_MAPPED),
        max_refs_per_node=300,
        overrides={"intensity": 0.2},
    )


@pytest.fixture(scope="module")
def traces(params, spec):
    return capture_tap_traces(params, spec.build_workload(), max_refs_per_node=300)


class TestRoundTrip:
    def test_bytes_round_trip_is_stable(self, traces):
        blob = traces.to_bytes()
        again = TapTraceSet.from_bytes(blob)
        assert again.to_bytes() == blob
        assert again.nodes == traces.nodes
        assert again.seed == traces.seed
        assert again.total_references == traces.total_references
        assert again.base.to_dict() == traces.base.to_dict()

    def test_streams_survive_round_trip(self, traces):
        again = TapTraceSet.from_bytes(traces.to_bytes())
        assert set(again.streams) == set(traces.streams)
        for key, column in traces.streams.items():
            assert list(again.streams[key]) == list(column)

    def test_replay_from_round_tripped_trace(self, traces, spec):
        """write → read → replay equals replay from the live capture."""
        again = TapTraceSet.from_bytes(traces.to_bytes())
        orgs = tuple(Organization(value) for value in spec.orgs)
        (live,) = replay_study(traces, [(spec.sizes, orgs)])
        (loaded,) = replay_study(again, [(spec.sizes, orgs)])
        assert loaded.to_dict() == live.to_dict()

    def test_replay_summary_carries_base_surface(self, traces, spec):
        orgs = tuple(Organization(value) for value in spec.orgs)
        (summary,) = replay_summary(traces, [(spec.sizes, orgs)])
        assert summary.total_time == traces.base.total_time
        assert summary.counters == traces.base.counters
        assert summary.study_results() is not None

    def test_wide_pages_use_eight_byte_columns(self, traces):
        """Streams with ≥2**32 page numbers round-trip losslessly, as
        8-byte columns, beside narrow ones."""
        from array import array

        wide = TapTraceSet(
            nodes=1,
            seed=traces.seed,
            total_references=3,
            streams={
                (TapPoint.L0.value, 0): array("Q", [1, 1 << 40, 7]),
                (TapPoint.L1.value, 0): array("I", [1, 7]),
            },
            base=traces.base,
        )
        again = TapTraceSet.from_bytes(wide.to_bytes())
        assert list(again.stream(TapPoint.L0, 0)) == [1, 1 << 40, 7]
        assert again.stream(TapPoint.L0, 0).itemsize == 8
        assert list(again.stream(TapPoint.L1, 0)) == [1, 7]
        assert again.stream(TapPoint.L1, 0).itemsize == 4

    def test_headless_capture_columns_are_narrow(self, traces):
        """The compiled capture hands every column over 4 bytes wide
        when its pages fit, as the encoder stores them."""
        if traces.base.backend != "compiled":
            pytest.skip("compiled backend unavailable")
        assert traces.streams
        assert {column.itemsize for column in traces.streams.values()} == {4}

    def test_headless_capture_bytes_match_scalar_capture(self, params, spec, traces):
        """Narrow headless columns encode to the scalar capture's bytes
        once the engine-provenance pair is copied over."""
        scalar = capture_tap_traces(
            params, spec.build_workload(), max_refs_per_node=300, fast=False
        )
        assert {column.itemsize for column in scalar.streams.values()} == {8}
        scalar.base.backend = traces.base.backend
        scalar.base.fallback_reason = traces.base.fallback_reason
        assert scalar.to_bytes() == traces.to_bytes()
        assert all(len(scalar.requesters(home)) for home in range(params.nodes))


class TestRequesterColumn:
    def test_one_requester_per_home_lookup(self, params, traces):
        for home in range(params.nodes):
            requesters = traces.requesters(home)
            assert len(requesters) == len(traces.stream(TapPoint.HOME, home)) > 0
            assert set(requesters) <= set(range(params.nodes))

    def test_round_trips_through_bytes(self, traces):
        again = TapTraceSet.from_bytes(traces.to_bytes())
        for home in range(traces.nodes):
            assert list(again.requesters(home)) == list(traces.requesters(home))
            assert again.streams[(REQUESTER, home)].itemsize == 4

    def test_capture_without_a_requester_is_an_error(self, params):
        agent = CaptureAgent(params)
        with pytest.raises(ValueError, match="requesting node"):
            agent.at_home(0, 8)
        agent.at_home(0, 8, requester=1)
        assert list(agent.streams()[(REQUESTER, 0)]) == [1]


class TestCorruption:
    def test_bad_magic(self, traces):
        blob = b"XXXX" + traces.to_bytes()[4:]
        with pytest.raises(TraceError):
            TapTraceSet.from_bytes(blob)

    def test_empty_and_short_blobs(self):
        for blob in (b"", b"RT", TRACE_MAGIC, TRACE_MAGIC + b"\x00"):
            with pytest.raises(TraceError):
                TapTraceSet.from_bytes(blob)

    def test_unsupported_format_version(self, traces):
        blob = bytearray(traces.to_bytes())
        struct.pack_into("<I", blob, len(TRACE_MAGIC), TRACE_FORMAT + 1)
        with pytest.raises(TraceError):
            TapTraceSet.from_bytes(bytes(blob))

    def test_truncated_header(self, traces):
        blob = traces.to_bytes()
        with pytest.raises(TraceError):
            TapTraceSet.from_bytes(blob[: len(TRACE_MAGIC) + 8 + 5])

    def test_truncated_payload(self, traces):
        blob = traces.to_bytes()
        with pytest.raises(TraceError):
            TapTraceSet.from_bytes(blob[:-1])

    def test_flipped_payload_byte_fails_checksum(self, traces):
        blob = bytearray(traces.to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(TraceError):
            TapTraceSet.from_bytes(bytes(blob))

    def test_mangled_header_json(self, traces):
        blob = traces.to_bytes()
        prefix = len(TRACE_MAGIC) + 8
        mangled = blob[:prefix] + b"?" + blob[prefix + 1 :]
        with pytest.raises(TraceError):
            TapTraceSet.from_bytes(mangled)


class TestTraceHash:
    def test_invariant_to_bank_configuration(self, params):
        """sizes/orgs (and label) are excluded: one trace, many banks."""
        base = JobSpec.sweep(params, "radix", sizes=(8, 32), max_refs_per_node=300)
        other = JobSpec.sweep(
            params,
            "radix",
            sizes=(16, 64, 256),
            orgs=(Organization.SET_ASSOCIATIVE,),
            max_refs_per_node=300,
            label="same trace",
        )
        assert base.trace_hash() == other.trace_hash()

    def test_sensitive_to_hierarchy_identity(self, params):
        base = JobSpec.sweep(params, "radix", max_refs_per_node=300)
        other_params = MachineParams.scaled_down(
            factor=256, nodes=2, page_size=256, seed=99
        )
        assert base.trace_hash() != JobSpec.sweep(
            params, "fft", max_refs_per_node=300
        ).trace_hash()
        assert base.trace_hash() != JobSpec.sweep(
            other_params, "radix", max_refs_per_node=300
        ).trace_hash()
        assert base.trace_hash() != JobSpec.sweep(
            params, "radix", max_refs_per_node=200
        ).trace_hash()
        assert base.trace_hash() != JobSpec.sweep(
            params, "radix", max_refs_per_node=300, overrides={"intensity": 0.4}
        ).trace_hash()

    def test_folds_in_version(self, params):
        spec = JobSpec.sweep(params, "radix", max_refs_per_node=300)
        assert spec.trace_hash(version="1.0") != spec.trace_hash(version="2.0")


class TestTraceStore:
    def test_miss_then_hit(self, tmp_path, spec, traces):
        store = TraceStore(root=tmp_path)
        assert store.get(spec) is None
        assert not store.contains(spec)
        path = store.put(spec, traces)
        assert path.is_file()
        assert store.contains(spec)
        loaded = store.get(spec)
        assert loaded is not None
        assert loaded.to_bytes() == traces.to_bytes()
        assert store.hits == 1 and store.misses == 1
        assert len(store) == 1
        assert store.total_bytes() == path.stat().st_size

    def test_corrupt_file_treated_as_miss_and_removed(self, tmp_path, spec, traces):
        store = TraceStore(root=tmp_path)
        path = store.put(spec, traces)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.warns(RuntimeWarning, match="corrupt tap trace"):
            assert store.get(spec) is None
        assert not path.exists()
        assert store.corrupt_dropped == 1
        assert store.misses == 1

    def test_corruption_is_counted_not_silent(self, tmp_path, spec, traces):
        """Every corruption-taxonomy shape increments corrupt_dropped
        and warns; a clean miss (absent file) does neither."""
        store = TraceStore(root=tmp_path)
        assert store.get(spec) is None  # plain miss: no warning
        assert store.corrupt_dropped == 0
        blob = traces.to_bytes()
        for mangle in (
            lambda b: b"XXXX" + b[4:],            # bad magic
            lambda b: b[: len(TRACE_MAGIC) + 10],  # truncated header
            lambda b: b[:-1],                      # truncated payload
            lambda b: b[:-1] + bytes([b[-1] ^ 0xFF]),  # flipped byte
        ):
            path = store.put(spec, traces)
            path.write_bytes(mangle(blob))
            with pytest.warns(RuntimeWarning, match="re-recording"):
                assert store.get(spec) is None
            assert not path.exists(), "corrupt file must be quarantined"
        assert store.corrupt_dropped == 4

    def test_old_format_entry_is_a_clean_miss_then_recaptured(self, tmp_path, spec, traces, monkeypatch):
        """An entry written under the previous TRACE_FORMAT lives under
        another key: the store misses without a warning or a
        quarantine, and the runner records the trace again."""
        import warnings

        from repro.runner import BatchRunner

        store = TraceStore(root=tmp_path)
        with monkeypatch.context() as old:
            old.setattr(taptrace, "TRACE_FORMAT", TRACE_FORMAT - 1)
            stale = store.put(spec, traces)
            assert store.get(spec) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(spec) is None
            runner = BatchRunner(jobs=1, trace_store=store)
            (outcome,) = runner.run([spec])
        assert outcome.ok and store.contains(spec)
        assert store.corrupt_dropped == 0 and store.quarantined == 0
        assert stale.exists() and len(store) == 2

    def test_lru_eviction_keeps_recently_used(self, tmp_path, params, traces):
        specs = [
            JobSpec.sweep(params, "radix", max_refs_per_node=refs)
            for refs in (100, 200, 300)
        ]
        store = TraceStore(root=tmp_path)
        entry_size = len(traces.to_bytes())
        paths = [store.put(spec, traces) for spec in specs]
        import os

        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        # Cap to two entries: the next put must evict the oldest mtime.
        store.max_bytes = int(entry_size * 2.5)
        newest = JobSpec.sweep(params, "radix", max_refs_per_node=400)
        store.put(newest, traces)
        assert not paths[0].exists(), "oldest entry should be evicted"
        assert store.contains(newest)

    def test_clear(self, tmp_path, spec, traces):
        store = TraceStore(root=tmp_path)
        store.put(spec, traces)
        assert store.clear() == 1
        assert len(store) == 0
