"""The ``ablation-sharing`` replay against a coupled oracle.

A ``sharing`` job replays the HOME tap of its workload's recording: one
shared DLB per home, and one private slice per ``(home, requester)``
fed the home's stream split by requesting node.  The oracle below is
the agent the experiment used to run, observing the same stream live
on the scalar simulator; the counts must match it exactly, on the
compiled engine and on the scalar path.
"""

from array import array

import pytest

from repro import MachineParams, Scheme, make_workload
from repro.coma.protocol import TranslationAgent
from repro.common.rng import make_rng
from repro.core.schemes import TapPoint
from repro.core.timing_kernels import NO_COMPILED_ENV, get_backend
from repro.core.tlb import TranslationBuffer
from repro.runner import JobSpec
from repro.system.machine import Machine
from repro.system.simulator import Simulator
from repro.system.taptrace import REQUESTER, TapTraceSet, replay_sharing

ENGINES = ("compiled", "scalar")


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    if request.param == "compiled":
        if get_backend() is None:
            pytest.skip("compiled backend unavailable")
        monkeypatch.delenv(NO_COMPILED_ENV, raising=False)
    else:
        monkeypatch.setenv(NO_COMPILED_ENV, "1")
    return request.param


class SharedVsPartitionedOracle(TranslationAgent):
    """Feeds every HOME-tap lookup to the home's shared DLB and to the
    requester's private slice at that home, as it happens."""

    def __init__(self, params: MachineParams, entries: int) -> None:
        self._node_bits = params.nodes.bit_length() - 1
        nodes = range(params.nodes)
        self.shared = [
            TranslationBuffer(entries, rng=make_rng(params.seed, "abl-shared", h)) for h in nodes
        ]
        self.partitioned = {
            (h, r): TranslationBuffer(entries, rng=make_rng(params.seed, "abl-part", h, r))
            for h in nodes
            for r in nodes
        }

    def at_home(self, home, vpn, for_ownership=False, injection=False, requester=None):
        key = vpn >> self._node_bits
        self.shared[home].access(key)
        self.partitioned[(home, requester)].access(key)
        return 0

    def counts(self, entries: int):
        return {
            "entries": entries,
            "accesses": sum(b.accesses for b in self.shared),
            "shared_misses": sum(b.misses for b in self.shared),
            "partitioned_misses": sum(b.misses for b in self.partitioned.values()),
        }


def oracle(params, name, intensity, entries, max_refs):
    agent = SharedVsPartitionedOracle(params, entries)
    machine = Machine(params, Scheme.V_COMA, make_workload(name, intensity=intensity), agent=agent)
    Simulator(machine, max_refs_per_node=max_refs).run()
    return agent.counts(entries)


CASES = (
    (MachineParams.scaled_down(factor=256, nodes=2, page_size=256), "radix", 0.3, 400),
    (MachineParams.scaled_down(factor=256, nodes=2, page_size=256), "barnes", 0.2, 400),
    (MachineParams.scaled_down(factor=64, nodes=4, page_size=256), "radix", 0.3, 400),
    (MachineParams.scaled_down(factor=64, nodes=4, page_size=256), "barnes", 0.2, 300),
)


class TestSharingReplay:
    def test_both_sides_observe_stream(self, engine):
        """Two requesters touch one page at home 0: the shared DLB hits
        the second time, each private slice misses once."""
        traces = TapTraceSet(
            nodes=4, seed=1998, total_references=2,
            streams={(TapPoint.HOME.value, 0): array("I", [2, 2]), (REQUESTER, 0): array("I", [1, 2])},
            base=None,
        )
        assert replay_sharing(traces, entries=4) == {
            "entries": 4, "accesses": 2, "shared_misses": 1, "partitioned_misses": 2,
        }

    @pytest.mark.parametrize(
        "params, name, intensity, max_refs", CASES,
        ids=[f"{name}@{params.nodes}" for params, name, _, _ in CASES],
    )
    def test_job_equals_the_coupled_oracle(self, engine, params, name, intensity, max_refs):
        want = oracle(params, name, intensity, 8, max_refs)
        summary = JobSpec.sharing(
            params, name, 8, max_refs_per_node=max_refs, overrides={"intensity": intensity}
        ).execute()
        assert summary.sharing == want
        assert want["accesses"] > 0
        assert summary.backend == f"{engine}+replay"


class TestSharingJob:
    @pytest.fixture
    def params(self):
        return MachineParams.scaled_down(factor=64, nodes=4, page_size=256)

    def test_radix_shows_sharing_win(self, params):
        stats = JobSpec.sharing(
            params, "radix", 8, max_refs_per_node=3000, overrides={"intensity": 0.3}
        ).execute().sharing
        assert stats["accesses"] > 0
        # The partitioned variant has 4x the aggregate capacity, so a
        # shared structure matching (or beating) it is a sharing win.
        assert stats["shared_misses"] <= stats["partitioned_misses"] * 1.3

    def test_returns_expected_keys(self, params):
        summary = JobSpec.sharing(
            params, "barnes", 8, max_refs_per_node=500, overrides={"intensity": 0.1}
        ).execute()
        assert set(summary.sharing) == {"entries", "accesses", "shared_misses", "partitioned_misses"}
        assert summary.study is None

    def test_summary_round_trips_with_its_counts(self, params):
        from repro.runner.summary import RunSummary

        summary = JobSpec.sharing(
            params, "barnes", 8, max_refs_per_node=200, overrides={"intensity": 0.1}
        ).execute()
        again = RunSummary.from_dict(summary.to_dict())
        assert again.sharing == summary.sharing
        assert again.to_dict() == summary.to_dict()

    def test_shares_the_sweep_recording(self, params):
        sweep = JobSpec.sweep(params, "radix", max_refs_per_node=300, overrides={"intensity": 0.3})
        sharing = JobSpec.sharing(params, "radix", 8, max_refs_per_node=300, overrides={"intensity": 0.3})
        assert sharing.trace_hash() == sweep.trace_hash()
        assert sharing.content_hash() != sweep.content_hash()
