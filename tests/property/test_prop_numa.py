"""Property tests: the CC-NUMA MSI engine under random operations."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CustomWorkload, MachineParams, SegmentSpec, Simulator
from repro.cache.cache import DIRTY
from repro.numa import NumaMachine, SHARED_TLB
from repro.system.refs import READ, WRITE

PARAMS = MachineParams.scaled_down(factor=256, nodes=2, page_size=256)
PAGES = 12

mem_ops = st.tuples(
    st.sampled_from([READ, WRITE]),
    st.integers(min_value=0, max_value=PAGES * PARAMS.page_size - 1),
)
node_streams = st.lists(
    st.lists(mem_ops, max_size=40),
    min_size=PARAMS.nodes,
    max_size=PARAMS.nodes,
)

#: Offsets of either SLC line of six coherence blocks that share SLC
#: sets 0 and 1.  With a 4-way SLC, dirty lines of two-line blocks are
#: evicted while the block's other line may still be cached, and other
#: nodes write the same blocks in between.
SLC_STRIDE = PARAMS.slc_sets * PARAMS.slc_block
colliding_ops = st.tuples(
    st.sampled_from([READ, WRITE]),
    st.builds(
        lambda block, line: block * SLC_STRIDE + line * PARAMS.slc_block,
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=PARAMS.am_block // PARAMS.slc_block - 1),
    ),
)
colliding_streams = st.lists(
    st.lists(colliding_ops, max_size=60),
    min_size=PARAMS.nodes,
    max_size=PARAMS.nodes,
)


def build(streams):
    def factory(node, ctx):
        base = ctx.segment("data").base
        for op, offset in streams[node]:
            yield op, base + offset

    workload = CustomWorkload(
        [SegmentSpec("data", PAGES * PARAMS.page_size)], factory, name="nprop"
    )
    return NumaMachine(PARAMS, SHARED_TLB, workload)


@given(streams=node_streams)
@settings(max_examples=60, deadline=None)
def test_directory_consistency_and_conservation(streams):
    machine = build(streams)
    result = Simulator(machine).run()
    machine.engine.check_invariants()
    for breakdown in result.breakdowns:
        assert breakdown.total == result.total_time


def caches_block(machine, node, block) -> bool:
    """True while ``node``'s SLC holds any line of coherence block
    ``block`` (the FLC is included in the SLC)."""
    cpu = machine.nodes[node]
    slc = cpu.slc
    start = cpu._proto_to_slc_space(block)
    span = 1 << machine.layout.block_bits
    return any(
        slc.state_of(addr) is not None
        for addr in range(start, start + span, slc.block_size)
    )


def log_ownership(machine):
    """Record, in simulation order, the events that move a block's
    directory owner: ``("own", block)`` when a store reaches the
    protocol (fetch for write, upgrade) and ``("writeback", block)``
    when a dirty SLC line is evicted to memory."""
    engine = machine.engine
    block_of = machine.layout.block_base
    log = []
    fetch, upgrade, writeback = engine.fetch, engine.upgrade_for_write, engine.writeback

    def logged_fetch(node, addr, is_write, now):
        outcome = fetch(node, addr, is_write, now)
        if is_write:
            log.append(("own", block_of(addr)))
        return outcome

    def logged_upgrade(node, addr, now):
        outcome = upgrade(node, addr, now)
        log.append(("own", block_of(addr)))
        return outcome

    def logged_writeback(node, addr, now):
        writeback(node, addr, now)
        log.append(("writeback", block_of(addr)))

    engine.fetch = logged_fetch
    engine.upgrade_for_write = logged_upgrade
    engine.writeback = logged_writeback
    return log


@given(streams=node_streams)
@settings(max_examples=60, deadline=None)
# Five blocks in one 4-way SLC set: the writer's own later reads evict
# its dirty line, and that writeback correctly clears the owner.
@example(streams=[[], [(1, 1984), (0, 448), (0, 960), (0, 1472), (0, 2496)]])
# Two SLC lines of one coherence block: evicting the dirty one clears
# the owner, and the writer drops the block's other line with it.
@example(streams=[[], [(1, 0), (0, 64), (0, 512), (0, 1024), (0, 1536), (0, 2048)]])
def test_last_writer_owns_exclusively(streams):
    machine = build(streams)
    log = log_ownership(machine)
    Simulator(machine).run()
    # The writer of a block no other node touches owns it, unless one
    # of its dirty lines was written back (a capacity eviction) after
    # its last store that reached the protocol: a writeback clears the
    # owner.  An owner always still caches the block.
    layout = machine.layout
    base = machine.space["data"].base
    touched_by = {}
    for node, stream in enumerate(streams):
        # Streams interleave in simulation, but within one node order
        # holds; only blocks a single node touches have a race-free
        # expected owner.
        for op, offset in stream:
            block = layout.block_base(base + offset)
            touched_by.setdefault(block, set()).add(node)
    for block, nodes in touched_by.items():
        if len(nodes) != 1:
            continue
        (node,) = nodes
        wrote = any(
            op == WRITE and layout.block_base(base + off) == block
            for op, off in streams[node]
        )
        entry = machine.engine._entries.get(block)
        if wrote:
            events = [kind for kind, logged in log if logged == block]
            owns = events[-1] == "own"
            assert entry is not None
            assert entry.owner == (node if owns else None)
            if owns:
                assert caches_block(machine, node, block)
        elif entry is not None:
            assert entry.owner is None


@given(streams=colliding_streams)
@settings(max_examples=80, deadline=None)
def test_partial_block_evictions_keep_dirty_lines_owned(streams):
    """A writeback of one dirty line of a multi-line block must not
    leave the writer a dirty line of a block it no longer owns (the
    next writer's invalidations would miss it, and its writeback would
    find a foreign owner)."""
    machine = build(streams)
    Simulator(machine).run()
    machine.engine.check_invariants()
    block_of = machine.layout.block_base  # SHARED_TLB: SLC and home are virtual
    for node, cpu in enumerate(machine.nodes):
        for cache_set in cpu.slc._sets:
            for line, state in cache_set.items():
                if state == DIRTY:
                    assert machine.engine._entries[block_of(line)].owner == node


@given(streams=node_streams)
@settings(max_examples=40, deadline=None)
def test_deterministic(streams):
    a = Simulator(build(streams)).run()
    b = Simulator(build(streams)).run()
    assert a.total_time == b.total_time
    assert a.counters == b.counters


@given(streams=node_streams)
@settings(max_examples=40, deadline=None)
def test_numa_never_faster_than_local_bound(streams):
    """Every memory-touching run costs at least its AM-latency floor on
    cold accesses: sanity for the latency accounting."""
    machine = build(streams)
    result = Simulator(machine).run()
    cold_blocks = len(
        {
            machine.layout.block_base(machine.space["data"].base + off)
            for stream in streams
            for _, off in stream
        }
    )
    if cold_blocks:
        floor = machine.params.am_hit_latency  # at least one cold access
        assert result.total_time >= floor
