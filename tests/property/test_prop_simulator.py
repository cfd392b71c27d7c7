"""Property tests: simulator-level conservation laws.

Random (but well-formed) reference streams must always satisfy:
time accounting conservation, coherence invariants at exit, reference
counting, and determinism.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CustomWorkload, Machine, MachineParams, Scheme, SegmentSpec, Simulator
from repro.system.refs import BARRIER, LOCK, READ, UNLOCK, WRITE

PARAMS = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
PAGES = 16

# Per-node streams: lists of (kind, offset) where kind selects the op.
mem_ops = st.tuples(
    st.sampled_from([READ, WRITE]),
    st.integers(min_value=0, max_value=PAGES * PARAMS.page_size - 1),
)
node_streams = st.lists(
    st.lists(mem_ops, max_size=40),
    min_size=PARAMS.nodes,
    max_size=PARAMS.nodes,
)


def build_machine(streams, with_sync=False, scheme=Scheme.V_COMA):
    def factory(node, ctx):
        base = ctx.segment("data").base
        lock_word = base  # first word doubles as a lock
        if with_sync and streams[node]:
            yield LOCK, lock_word
        for op, offset in streams[node]:
            yield op, base + offset
        if with_sync and streams[node]:
            yield UNLOCK, lock_word
        if with_sync:
            yield BARRIER, 0

    workload = CustomWorkload(
        [SegmentSpec("data", PAGES * PARAMS.page_size)], factory, name="prop"
    )
    return Machine(PARAMS, scheme, workload)


@given(streams=node_streams)
@settings(max_examples=60, deadline=None)
def test_time_conservation(streams):
    machine = build_machine(streams)
    result = Simulator(machine).run()
    for breakdown in result.breakdowns:
        assert breakdown.total == result.total_time
        assert min(
            breakdown.busy, breakdown.sync, breakdown.loc_stall,
            breakdown.rem_stall, breakdown.tlb_stall,
        ) >= 0


@given(streams=node_streams)
@settings(max_examples=60, deadline=None)
def test_reference_counting(streams):
    machine = build_machine(streams)
    result = Simulator(machine).run()
    assert result.refs_per_node == [len(s) for s in streams]


@given(streams=node_streams)
@settings(max_examples=40, deadline=None)
def test_coherence_invariants_after_run(streams):
    machine = build_machine(streams)
    Simulator(machine).run()
    machine.engine.check_invariants()


@given(streams=node_streams)
@settings(max_examples=30, deadline=None)
def test_deterministic_replay(streams):
    a = Simulator(build_machine(streams)).run()
    b = Simulator(build_machine(streams)).run()
    assert a.total_time == b.total_time
    assert a.counters == b.counters


@given(streams=node_streams)
@settings(max_examples=40, deadline=None)
def test_sync_wrapped_streams_complete(streams):
    machine = build_machine(streams, with_sync=True)
    result = Simulator(machine).run()
    expected_barriers = PARAMS.nodes
    assert result.barriers == expected_barriers
    machine.engine.check_invariants()


@given(streams=node_streams, scheme=st.sampled_from(list(Scheme)))
@settings(max_examples=30, deadline=None)
def test_every_scheme_satisfies_invariants(streams, scheme):
    machine = build_machine(streams, scheme=scheme)
    result = Simulator(machine).run()
    machine.engine.check_invariants()
    assert result.total_references == sum(len(s) for s in streams)
