"""Timing sets: the compiled timing cells of one workload stream run as
one unit of work, one ``fs_run_set`` call over engines loaded once."""

import warnings

import pytest

from repro import MachineParams, Scheme
from repro.common.errors import ReproError
from repro.core import replay
from repro.core.schemes import SCHEME_ORDER
from repro.core.timing_kernels import get_backend
from repro.core.tlb import Organization
from repro.fuzz.oracle import literal_workload
from repro.runner import BatchRunner, JobSpec
from repro.runner.jobs import execute_unit
from repro.system import fast_simulator
from repro.system.refs import LOCK, READ, UNLOCK
from repro.workloads import WORKLOADS

pytestmark = pytest.mark.skipif(
    get_backend() is None, reason="compiled timing backend unavailable"
)

PARAMS = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)


def surface(summary):
    """A summary without the fields that name the engine."""
    data = summary.to_dict()
    data.pop("backend")
    data.pop("fallback_reason")
    return data


class _CountingLib:
    """Pass-through stand-in for the cffi library that counts the
    engine runs: ``fs_run`` calls and engines passed to ``fs_run_set``."""

    def __init__(self, lib):
        self._lib = lib
        self.runs = 0
        self.sets = []

    def fs_run(self, *args):
        self.runs += 1
        return self._lib.fs_run(*args)

    def fs_run_set(self, sims, count, *args):
        self.sets.append(count)
        return self._lib.fs_run_set(sims, count, *args)

    def __getattr__(self, name):
        return getattr(self._lib, name)


@pytest.fixture
def counting(monkeypatch):
    lib = _CountingLib(get_backend().lib)
    monkeypatch.setattr(get_backend(), "lib", lib)
    return lib


@pytest.fixture(scope="module")
def cells():
    """Ten timing cells of one radix stream: every scheme at two sizes,
    a direct-mapped buffer, contention and relaxed writes among them."""
    common = dict(max_refs_per_node=400, overrides={"intensity": 0.3})
    specs = [
        JobSpec.timing(PARAMS, scheme, "radix", entries, label=f"{scheme.value}/{entries}", **common)
        for scheme in SCHEME_ORDER
        for entries in (8, 16)
    ]
    specs[1] = JobSpec.timing(PARAMS, Scheme.L0_TLB, "radix", 16, label="dm",
                              organization=Organization.DIRECT_MAPPED, **common)
    specs[2] = JobSpec.timing(PARAMS, Scheme.L1_TLB, "radix", 8, label="contention",
                              contention=True, **common)
    specs[3] = JobSpec.timing(PARAMS, Scheme.L1_TLB, "radix", 16, label="relaxed",
                              relaxed_writes=True, **common)
    assert len({spec.unit_key() for spec in specs}) == 1
    return specs


@pytest.fixture(scope="module")
def alone(cells):
    """Every cell run by itself, through ``fs_run``."""
    return [spec.execute() for spec in cells]


@pytest.mark.parametrize("threads", (1, 2, 8))
def test_unit_matches_each_cell_alone(cells, alone, counting, monkeypatch, threads):
    """One ``fs_run_set`` call over all ten engines, on 1, 2 and 8
    threads, gives every cell the summary it gets alone."""
    monkeypatch.setattr(replay, "replay_threads", lambda tasks: threads)
    outcomes = execute_unit(cells)
    assert counting.sets == [len(cells)] and counting.runs == 0
    for spec, outcome, single in zip(cells, outcomes, alone):
        assert outcome.backend == single.backend == "compiled", spec.label
        assert outcome.to_dict() == single.to_dict(), spec.label


def test_runner_lands_each_cell(cells, alone, counting):
    runner = BatchRunner(jobs=1)
    results = runner.run(cells)
    assert counting.sets == [len(cells)]
    assert [job.summary.to_dict() for job in results] == [s.to_dict() for s in alone]
    assert runner.simulations_run == len(cells) == runner.stats.completed
    assert runner.stats.backends == {"compiled": len(cells)}


#: Two nodes take two locks in opposite orders.  Node 0 takes A, reads
#: twelve pages three times over, then takes B; node 1 reads one page
#: 1,350 times, then takes B and A.  An 8-entry L0 TLB thrashes on node
#: 0's pages, so node 1 takes B first and each waits for the other: the
#: scalar engine ends with "locks still held".  With 16 entries, or on
#: V-COMA, node 0 is done with both locks in time.
LOCK_A, LOCK_B = 0, 64
LOCK_ORDER = [
    [(LOCK, LOCK_A)]
    + [(READ, (2 + page % 12) * PARAMS.page_size) for page in range(36)]
    + [(LOCK, LOCK_B), (UNLOCK, LOCK_B), (UNLOCK, LOCK_A)],
    [(READ, 2 * PARAMS.page_size + 8 * (i % 4)) for i in range(1350)]
    + [(LOCK, LOCK_B), (LOCK, LOCK_A), (UNLOCK, LOCK_A), (UNLOCK, LOCK_B)],
]


def test_deadlocking_cell_fails_alone(monkeypatch, counting):
    monkeypatch.setitem(WORKLOADS, "lock-order", lambda **_: literal_workload(PARAMS, LOCK_ORDER))
    specs = [
        JobSpec.timing(PARAMS, Scheme.L0_TLB, "lock-order", 8, label="stuck"),
        JobSpec.timing(PARAMS, Scheme.L0_TLB, "lock-order", 16, label="l0/16"),
        JobSpec.timing(PARAMS, Scheme.V_COMA, "lock-order", 8, label="v-coma"),
    ]
    with pytest.raises(ReproError) as scalar:
        specs[0].execute()  # alone, on fs_run
    with pytest.raises(ReproError) as oracle:
        from repro.system.simulator import run_summary

        run_summary(PARAMS, Scheme.L0_TLB, specs[0].build_workload(), specs[0]._timing_agent,
                    fast=False)
    assert str(scalar.value) == str(oracle.value)
    assert str(oracle.value).startswith("locks still held at end of run: ")
    alone = [spec.execute().to_dict() for spec in specs[1:]]

    counting.sets.clear()
    runner = BatchRunner(jobs=1, keep_going=True)
    results = runner.run(specs)
    assert counting.sets == [3]
    failure = results[0]
    assert not failure.ok and failure.error_type == "ReproError"
    assert failure.message == str(oracle.value)
    assert runner.stats.failure_labels == ["stuck: ReproError"]
    assert [job.summary.to_dict() for job in results[1:]] == alone


@pytest.mark.parametrize("fault", ["create", "oom", "internal"])
def test_degraded_cell_reruns_alone_on_the_scalar_engine(
    cells, alone, counting, monkeypatch, fault
):
    """The second engine meets an injected fault: only its cell re-runs
    on a scalar machine, stamped with the degradation; the rest run in
    the set."""
    faults = [None, fault]
    monkeypatch.setattr(
        fast_simulator, "injected_fault", lambda: faults.pop(0) if faults else None
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the warn-once fallback warning
        outcomes = execute_unit(cells)
    assert counting.sets == [len(cells) - 1]
    degraded = outcomes[1]
    assert degraded.backend == "scalar"
    assert degraded.fallback_reason.startswith("compiled engine degraded: ")
    assert [outcome.backend for outcome in outcomes].count("compiled") == len(cells) - 1
    assert [surface(outcome) for outcome in outcomes] == [surface(s) for s in alone]
