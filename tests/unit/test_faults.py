"""Unit tests for the chaos harness (FaultPlan) and failure taxonomy."""

import pickle

import pytest

from repro import MachineParams, Scheme
from repro.common.errors import (
    CapacityError,
    ConfigurationError,
    ProtocolError,
    is_transient,
)
from repro.runner import BatchRunner, FaultPlan, JobSpec, ResultCache, TraceStore
from repro.runner.faults import (
    CRASH_EXIT_CODE,
    Fault,
    _flip_bytes,
    resolve_exception,
)
from repro.system.taptrace import TraceError


@pytest.fixture
def params():
    return MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


def timing_spec(params, **overrides):
    kwargs = dict(max_refs_per_node=300, overrides={"intensity": 0.2})
    kwargs.update(overrides)
    return JobSpec.timing(params, Scheme.V_COMA, "fft", 8, **kwargs)


def sweep_spec(params, **overrides):
    from repro.core.tlb import Organization

    kwargs = dict(
        sizes=(8, 32),
        orgs=(Organization.FULLY_ASSOCIATIVE,),
        max_refs_per_node=300,
        overrides={"intensity": 0.2},
    )
    kwargs.update(overrides)
    return JobSpec.sweep(params, "radix", **kwargs)


# ----------------------------------------------------------------------
# failure taxonomy
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_transient_classes(self):
        assert is_transient(OSError("disk on fire"))
        assert is_transient(TimeoutError("slow NFS"))  # an OSError
        assert is_transient(TraceError("corrupt bytes"))

    def test_deterministic_classes(self):
        for exc in (
            ConfigurationError("bad geometry"),
            ProtocolError("two exclusive copies"),
            CapacityError("global set full"),
            ValueError("nonsense"),
            KeyError("missing"),
        ):
            assert not is_transient(exc)

    def test_resolve_exception_covers_library_builtin_and_trace(self):
        assert resolve_exception("ProtocolError") is ProtocolError
        assert resolve_exception("OSError") is OSError
        assert resolve_exception("TraceError") is TraceError
        with pytest.raises(ValueError):
            resolve_exception("NoSuchException")
        with pytest.raises(ValueError):
            resolve_exception("str")  # a type, but not an exception


# ----------------------------------------------------------------------
# FaultPlan mechanics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_fires_on_configured_attempts_only(self):
        fault = Fault("transient", times=2)
        assert fault.fires(1) and fault.fires(2) and not fault.fires(3)
        always = Fault("transient", times=None)
        assert always.fires(99)

    def test_rejects_unknown_kind_and_exception(self):
        with pytest.raises(ValueError):
            Fault("explode")
        with pytest.raises(ValueError):
            Fault("raise", exc="NoSuchError")

    def test_plan_is_picklable(self):
        plan = (
            FaultPlan()
            .crash(0)
            .hang(1, seconds=5.0)
            .transient(2, times=3)
            .raising(3, "ProtocolError", "bug")
            .corrupt_cache(4)
            .corrupt_trace(5)
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults.keys() == plan.faults.keys()
        assert clone.faults[3][0].exc == "ProtocolError"

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().transient(0)

    def test_apply_worker_raises_configured_exceptions(self):
        plan = FaultPlan().transient(0, times=1).raising(1, "ProtocolError", "bug")
        plan.arm()
        with pytest.raises(OSError):
            plan.apply_worker(0, attempt=1)
        plan.apply_worker(0, attempt=2)  # past its budget: no-op
        with pytest.raises(ProtocolError, match="bug"):
            plan.apply_worker(1, attempt=7)
        plan.apply_worker(2, attempt=1)  # unconfigured index: no-op

    def test_crash_refused_in_parent_process(self):
        plan = FaultPlan().crash(0)
        plan.arm()
        with pytest.raises(RuntimeError, match="supervised"):
            plan.apply_worker(0, attempt=1)
        assert CRASH_EXIT_CODE != 0

    def test_flip_bytes_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(bytes(range(256)))
        b.write_bytes(bytes(range(256)))
        assert _flip_bytes(a, seed=7) and _flip_bytes(b, seed=7)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != bytes(range(256))
        assert not _flip_bytes(tmp_path / "missing", seed=7)


# ----------------------------------------------------------------------
# parent-side corruption faults, end to end through the runner
# ----------------------------------------------------------------------
class TestCorruptionInjection:
    def test_corrupt_cache_entry_is_resimulated(self, tmp_path, params):
        spec = timing_spec(params)
        cache = ResultCache(tmp_path)
        (clean,) = BatchRunner(jobs=1, cache=cache).run([spec])
        assert cache.contains(spec)

        plan = FaultPlan().corrupt_cache(0)
        runner = BatchRunner(jobs=1, cache=cache, fault_plan=plan)
        (job,) = runner.run([spec])
        # The flipped entry must read as a miss, never a wrong answer.
        assert not job.from_cache
        assert runner.simulations_run == 1
        assert job.summary.to_dict() == clean.summary.to_dict()

    def test_corrupt_trace_is_quarantined_and_rerecorded(self, tmp_path, params):
        spec = sweep_spec(params)
        store = TraceStore(root=tmp_path)
        (clean,) = BatchRunner(jobs=1, trace_store=store).run([spec])
        assert len(store) == 1

        plan = FaultPlan().corrupt_trace(0)
        runner = BatchRunner(jobs=1, trace_store=store, fault_plan=plan)
        with pytest.warns(RuntimeWarning, match="corrupt tap trace"):
            (job,) = runner.run([spec])
        assert store.corrupt_dropped == 1
        assert job.ok
        assert job.summary.to_dict() == clean.summary.to_dict()
        # The store healed itself: a fresh trace is back on disk.
        assert len(store) == 1
