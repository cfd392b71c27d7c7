"""Compiled fast path for the timing simulator.

Drives the ``fastsim`` C engine (see :mod:`repro.core.timing_kernels`)
over materialized columnar reference streams.  The C engine owns the
whole run — event heap, FLC/SLC/AM hierarchies, COMA-F protocol,
directory, crossbar charging, TLB/DLB with the scalar path's exact
Mersenne Twister streams, and
:class:`~repro.system.simulator.Simulator`'s barrier, lock and
stream-end semantics — so an untraced run is one ``fs_run`` call.

A run has three phases:

1. **Start.**  ``fs_preload`` builds the preloaded AM/directory/page-map
   image in C from the run's page placement
   (:func:`~repro.system.machine.place_pages`), placing each block as
   ``ProtocolEngine.preload_block`` does.  The streams are materialized
   (or taken from the stream LRU) and the RNG states seeded.
2. **Run.**  ``fs_run`` until every node has finished; a sync error
   raises the scalar engine's :class:`~repro.common.errors.ReproError`.
3. **Export, by caller.**  A :class:`HeadlessRun` — what runner jobs
   and tap-trace captures use — reads back only what its
   :class:`~repro.runner.summary.RunSummary` needs: breakdowns,
   counters, latency histograms, TLB/DLB totals and, for a capture,
   the tap columns.  No Python machine exists at any point.  A
   :class:`~repro.system.simulator.Simulator` holds a machine, so the
   whole final image (cache/AM sets in LRU order, directory entries,
   TLB contents, RNG states, port free times) is copied back into it
   as well.

The contract is **bit-identical results**: a headless summary equals
``RunSummary.from_result`` of the scalar run, and after a
machine-backed run the machine is indistinguishable from one driven by
the scalar engine, which the differential suite
(``tests/integration/test_timing_equivalence.py``) enforces field by
field.  Anything the C engine does not model — custom machine or agent
types, a tracer not attached through the machine, a sweep or capture
agent on a machine (compiled sweeps are headless: capture, then one
set replay) — makes :func:`fallback_reason` return a string and
the caller stays on the scalar path.  The crossbar's port-contention
mode is modelled.

Traced timing runs are modelled too.  The C engine writes the
tracer's packed records (:mod:`repro.obs.trace`) for everything the
scalar engine would emit inside its ``run`` span, using the codec
and string-table ids of the emitters the machine's layers hoisted.
:func:`_sync_loop` syncs the tracer's span-id counter and last seen
time into C before every ``fs_run`` call and drains the buffer after
it (``fs_run`` returns ``TRACE_FULL`` whenever the buffer passes
``PACKED_FLUSH_BYTES``); Python opens and closes the ``run`` span
itself, so the trace is byte-identical to the scalar run's.  Once a
record has reached the tracer the run counts as mutated: a later
failure propagates instead of re-running on the scalar engine and
writing every record twice.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ProtocolError, ReproError
from repro.common.stats import Counters, LatencyHistogram, TimeBreakdown
from repro.coma.states import AMState
from repro.core import timing_kernels as tk
from repro.core.ladder import EngineDegraded, injected_fault
from repro.core.schemes import TAP_OF_SCHEME, TapPoint
from repro.system.machine import (
    build_address_space,
    engine_rng,
    merge_counters,
    place_pages,
)
from repro.system.results import RunResult, timing_summary
from repro.system.taps import TimingAgent

_TAP_CODE = {
    TapPoint.L0: tk.TAP_L0,
    TapPoint.L1: tk.TAP_L1,
    TapPoint.L2: tk.TAP_L2,
    TapPoint.L3: tk.TAP_L3,
    TapPoint.HOME: tk.TAP_HOME,
}

#: ``fallback_reason`` prefixes of the two degradations (is_degradation).
_DEGRADED = "compiled engine degraded: "
_UNAVAILABLE = "compiled backend unavailable: "

_N_ENGINE_GLOBALS = 11  # glob[0:11] → engine.counters, the rest → crossbar


def _pow2_at_least(n: int) -> int:
    size = 16
    while size < n:
        size <<= 1
    return size


def _is_sweep_agent(agent) -> bool:
    """True for the uncoupled sweep instruments: StudyAgent records the
    full miss surface, CaptureAgent records raw tap streams."""
    from repro.system.taps import StudyAgent
    from repro.system.taptrace import CaptureAgent

    return type(agent) in (StudyAgent, CaptureAgent)


def _traced_throughout(machine) -> bool:
    """True when one tracer is attached to every instrumented layer,
    the way :class:`~repro.system.machine.Machine` attaches it — the
    only wiring whose records the compiled engine reproduces."""
    tracer = machine.tracer
    return (
        tracer is not None
        and machine.engine.trace is tracer
        and machine.crossbar.trace is tracer
        and getattr(machine.agent, "trace", None) is tracer
        and all(node._trace is tracer for node in machine.nodes)
    )


def fallback_reason(simulator) -> Optional[str]:
    """None when the compiled fast path can reproduce this run exactly;
    otherwise a short human-readable reason for staying scalar.

    A machine-backed run takes the compiled engine only for coupled
    timing (a :class:`~repro.system.taps.TimingAgent` or the passive
    :class:`~repro.coma.protocol.TranslationAgent`).  Compiled sweeps
    build no machine: :func:`~repro.analysis.experiments.run_miss_sweep`
    and :func:`~repro.system.taptrace.capture_tap_traces` capture
    headless and replay the banks in batches, so a sweep agent on a
    machine is the scalar oracle's run.
    """
    from repro.system.machine import Machine
    from repro.coma.protocol import TranslationAgent

    machine = simulator.machine
    sweep_agent = _is_sweep_agent(machine.agent)
    if type(machine) is not Machine:
        return f"custom machine type {type(machine).__name__}"
    if (
        machine.tracer is not None
        or machine.engine.trace is not None
        or machine.crossbar.trace is not None
    ) and (sweep_agent or not _traced_throughout(machine)):
        return "tracing attached"
    agent = machine.agent
    # TimingAgent builds only fully-associative or direct-mapped
    # buffers (a set-associative one needs an assoc it does not take),
    # and the C engine models both.
    if not sweep_agent and type(agent) not in (TimingAgent, TranslationAgent):
        return f"unsupported agent {type(agent).__name__}"
    if tk.get_backend() is None:
        return f"{_UNAVAILABLE}{tk.backend_status()}"
    if sweep_agent:
        return (
            f"machine-backed {type(agent).__name__} "
            "(compiled sweeps are headless capture + replay)"
        )
    return None


def _raise_engine_error(status: int) -> None:
    if status == tk.ERR_PROTOCOL:
        raise ProtocolError("fast timing engine: protocol violation")
    if status == tk.ERR_CAPACITY:
        raise CapacityError("fast timing engine: no slot for injected master")
    if status == tk.ERR_KEY:
        raise ReproError("fast timing engine: unmapped page in translation")
    # ERR_INTERNAL is the sticky in-C failure code for conditions the
    # scalar oracle does not share — allocation failure in capture mode
    # or the event heap — so the supervisor may degrade and re-run.
    raise EngineDegraded(f"C engine internal error (status {status})")


class HeadlessRun:
    """A compiled run described by values alone, with no Python machine.

    Runner jobs need only a :class:`~repro.runner.summary.RunSummary`,
    so they skip :class:`~repro.system.machine.Machine` entirely: the
    segments, the page placement
    (:func:`~repro.system.machine.place_pages`, which raises the
    preload's :class:`~repro.common.errors.CapacityError`) and the
    workload context that generates the streams are all
    :func:`run_fast` reads.  ``agent`` is a fresh
    :class:`~repro.system.taps.TimingAgent` (its buffer geometry, RNG
    states and, after the run, access/miss totals) or
    :class:`~repro.system.taptrace.CaptureAgent` (its columns are
    filled from the capture).
    """

    machine = None
    tracer = None

    def __init__(
        self,
        params,
        scheme,
        workload,
        agent,
        contention: bool = False,
        max_refs_per_node: Optional[int] = None,
        stream_key: Optional[str] = None,
        relaxed_writes: bool = False,
    ) -> None:
        layout = AddressLayout.from_params(params)
        space, self.ctx = build_address_space(params, layout, workload)
        self.placement = place_pages(params, layout, scheme.uses_virtual_am, space)
        self.params = params
        self.scheme = scheme
        self.workload = workload
        self.agent = agent
        self.contention = contention
        self.max_refs_per_node = max_refs_per_node
        self.stream_key = stream_key
        self.relaxed_writes = relaxed_writes

    def node_stream(self, node: int):
        return self.workload.node_stream(node, self.ctx)


def degraded_reason(exc: BaseException) -> str:
    """Record a compiled-engine degradation on the runtime metrics and
    return the ``fallback_reason`` the scalar re-run carries."""
    from repro.obs.runtime import record_fallback

    detail = getattr(exc, "reason", None) or str(exc) or "MemoryError"
    record_fallback("compiled", detail)
    return f"{_DEGRADED}{detail}"


def is_degradation(reason: Optional[str]) -> bool:
    """True for a ``fallback_reason`` of a run that could have run
    compiled: the engine degraded or the backend is missing.  A run the
    C engine does not model (a custom machine, say) stays scalar by
    design, and ``"fast=False"`` is the caller's choice."""
    return bool(reason) and reason.startswith((_DEGRADED, _UNAVAILABLE))


def run_fast(run):
    """Run one simulation on the compiled engine.

    ``run`` is a :class:`~repro.system.simulator.Simulator` or a
    :class:`HeadlessRun`, and what comes back depends on which:

    * A simulator holds a machine, so the whole final image (caches,
      AMs, directory, TLBs, RNG states, ports) is copied back into it,
      as if the scalar engine had run it, and a
      :class:`~repro.system.results.RunResult` is returned.
    * A headless run gets its
      :class:`~repro.runner.summary.RunSummary` read straight from C:
      breakdowns, counters, latency histograms, TLB/DLB totals and,
      for a capture, the tap columns.

    Either way the starting AM/directory/page-map image is built in C
    by ``fs_preload`` from the run's placement.  For a simulator that
    is the machine's own :attr:`~repro.system.machine.Machine.placement`,
    which assumes nothing changed the machine's AMs, directory or page
    map between construction and :meth:`Simulator.run`.  No caller
    does: ``run_timing``, the report's experiments, the fuzz harness
    and the runner's scalar fallback all run a machine straight after
    building it.  The engine RNG, the TLB RNGs and the crossbar's port
    free times are still read from the machine.

    The caller must have checked eligibility first (:func:`fallback_reason`
    or :func:`headless_eligible`); this function raises on engine
    errors.  Failures the scalar oracle recovers from — C-side
    allocation failure, the sticky internal error status, injected
    faults — raise :class:`~repro.core.ladder.EngineDegraded` (or
    ``MemoryError``), and only while nothing outside C has changed
    (``run._fast_state_mutated`` guards the copy-back phase), so the
    caller can re-run on the scalar engine.
    """
    run._fast_state_mutated = False
    fault = injected_fault()
    if fault == "create":
        raise EngineDegraded("injected fault: engine allocation failed (create)")

    backend = tk.get_backend()
    ffi, lib = backend.ffi, backend.lib
    machine = run.machine
    source = run if machine is None else machine
    agent = source.agent
    timing_agent = type(agent) is TimingAgent
    max_refs = run.max_refs_per_node
    if machine is None:
        contention, relaxed = run.contention, run.relaxed_writes
    else:
        contention = machine.crossbar.contention
        relaxed = bool(machine.nodes and machine.nodes[0].relaxed_writes)
    geom = _geometry(source, max_refs, contention=contention, relaxed=relaxed)

    handle = lib.fs_create(ffi.new("int64_t[]", geom))
    if handle == ffi.NULL:
        raise EngineDegraded("C engine allocation failed (fs_create OOM)")
    tracer = source.tracer
    try:
        # A traced run meets the oom fault where it would really strike:
        # the trace buffer, which then refuses to grow past its first
        # chunk.
        if fault == "oom" and tracer is None:
            raise EngineDegraded("injected fault: C allocation failed (oom)")
        if fault == "internal":
            _raise_engine_error(tk.ERR_INTERNAL)
        if _is_sweep_agent(agent) and lib.fs_set_capture(handle, 1) != 0:
            raise EngineDegraded("capture-mode allocation failed")
        if tracer is None:
            return _drive(run, source, ffi, lib, handle, timing_agent)
        mark = tracer.checkpoint()
        tracer.begin("run", 0, max_refs=max_refs)
        config = _trace_config(run, tracer, fail_growth=fault == "oom")
        lib.fs_set_trace(handle, ffi.new("int64_t[]", config))
        try:
            return _drive(run, source, ffi, lib, handle, timing_agent)
        except (EngineDegraded, MemoryError):
            # Nothing reached the tracer yet: forget the run span so the
            # scalar re-run starts from the same tracer state.
            if not run._fast_state_mutated:
                tracer.rewind(mark)
            raise
    finally:
        lib.fs_destroy(handle)


def _geometry(source, max_refs: Optional[int], contention: bool, relaxed: bool) -> List[int]:
    """The GEOM_* vector ``fs_create`` sizes the engine from.  ``source``
    is a machine or a :class:`HeadlessRun`: either carries the params,
    scheme, workload, agent and placement."""
    params = source.params
    layout = AddressLayout.from_params(params)
    agent = source.agent
    count = params.nodes
    timing_agent = type(agent) is TimingAgent
    npages = len(source.placement.vpns)
    geom = [0] * tk.GEOM_LEN
    geom[tk.GEOM_NODES] = count
    geom[tk.GEOM_THINK] = source.workload.think_cycles
    geom[tk.GEOM_PAGE_BITS] = layout.page_bits
    geom[tk.GEOM_BLOCK_BITS] = layout.block_bits
    geom[tk.GEOM_FLC_BLOCK] = params.flc_block
    geom[tk.GEOM_FLC_SETS] = params.flc_sets
    geom[tk.GEOM_FLC_ASSOC] = params.flc_assoc
    geom[tk.GEOM_SLC_BLOCK] = params.slc_block
    geom[tk.GEOM_SLC_SETS] = params.slc_sets
    geom[tk.GEOM_SLC_ASSOC] = params.slc_assoc
    geom[tk.GEOM_AM_SETS] = params.am_sets
    geom[tk.GEOM_AM_ASSOC] = params.am_assoc
    geom[tk.GEOM_SLC_HIT] = params.slc_hit_latency
    geom[tk.GEOM_AM_HIT] = params.am_hit_latency
    geom[tk.GEOM_REQ_CYCLES] = params.request_msg_cycles
    geom[tk.GEOM_BLK_CYCLES] = params.block_msg_cycles
    geom[tk.GEOM_DIR_LATENCY] = params.directory_lookup_latency
    geom[tk.GEOM_PENALTY] = params.translation_miss_penalty
    geom[tk.GEOM_VIRTUAL_FLC] = int(source.scheme.uses_virtual_flc)
    geom[tk.GEOM_VIRTUAL_SLC] = int(source.scheme.uses_virtual_slc)
    geom[tk.GEOM_VIRTUAL_AM] = int(source.scheme.uses_virtual_am)
    geom[tk.GEOM_RELAXED] = int(relaxed)
    geom[tk.GEOM_TAP] = (
        _TAP_CODE[TAP_OF_SCHEME[source.scheme]] if timing_agent else tk.TAP_NONE
    )
    geom[tk.GEOM_INCLUDE_L2_WB] = (
        int(agent.include_l2_writebacks) if timing_agent else 1
    )
    if timing_agent:
        buffer0 = agent.buffer(0)
        geom[tk.GEOM_TLB_ENTRIES] = buffer0.entries
        geom[tk.GEOM_TLB_SETS] = buffer0.sets
        geom[tk.GEOM_TLB_ASSOC] = buffer0.assoc
    geom[tk.GEOM_MAX_REFS] = -1 if max_refs is None else max_refs
    geom[tk.GEOM_AM_BLOCK] = params.am_block
    geom[tk.GEOM_REQ_PAYLOAD] = params.request_payload_bytes
    geom[tk.GEOM_BLK_PAYLOAD] = params.am_block + params.message_header_bytes
    geom[tk.GEOM_DIR_CAPACITY] = _pow2_at_least(2 * npages * params.blocks_per_page + 16)
    mapped = 0 if source.scheme.uses_virtual_am else npages
    geom[tk.GEOM_MAP_CAPACITY] = _pow2_at_least(2 * mapped + 16)
    geom[tk.GEOM_CONTENTION] = int(contention)
    return geom


def _trace_config(simulator, tracer, fail_growth: bool) -> List[int]:
    """The TC_* vector: the tracer's codec ids and string-table ids for
    every record shape the C engine writes, read off the emitters the
    machine's layers hoisted when the tracer attached."""
    from repro.obs.trace import PACKED_FLUSH_BYTES
    from repro.system.simulator import barrier_emitter, lock_emitter, phase_emitter

    machine = simulator.machine
    engine = machine.engine

    def strings(codec, key):
        return codec.gmaps[(codec.begin_keys + codec.end_keys).index(key)]

    ref = machine.nodes[0]._ref_begin.codec
    fetch = engine._em_fetch[0].codec
    msg = machine.crossbar._emit_msg.codec
    inject = engine._em_inject.codec
    config = [0] * tk.TC_LEN
    config[tk.TC_REF] = ref.id
    config[tk.TC_FETCH] = fetch.id
    config[tk.TC_UPGRADE] = engine._em_upgrade[0].codec.id
    config[tk.TC_INVALIDATE] = engine._em_invalidate.codec.id
    config[tk.TC_INJECT] = inject.id
    config[tk.TC_MSG] = msg.id
    emitters = getattr(machine.agent, "trace_emitters", None)
    if emitters is not None:  # TimingAgent: one TLB/DLB hit/fill pair
        config[tk.TC_HIT] = emitters[0].codec.id
        config[tk.TC_FILL] = emitters[1].codec.id
    config[tk.TC_PHASE] = phase_emitter(tracer).codec.id
    config[tk.TC_BARRIER] = barrier_emitter(tracer).codec.id
    config[tk.TC_LOCK] = lock_emitter(tracer).codec.id
    config[tk.TC_PHASE_EVERY] = simulator.phase_every
    config[tk.TC_LIMIT] = PACKED_FLUSH_BYTES
    config[tk.TC_FAIL_GROWTH] = int(fail_growth)
    parent = tracer.current_span_id
    config[tk.TC_PARENT] = -1 if parent is None else parent
    config[tk.TC_FALSE], config[tk.TC_TRUE] = strings(fetch, "write")
    config[tk.TC_READ], config[tk.TC_WRITE] = strings(ref, "op")
    names = strings(msg, "msg")
    config[tk.TC_MSG_NAMES:tk.TC_MSG_NAMES + len(names)] = names
    states = strings(inject, "state")
    config[tk.TC_STATE_NAMES:tk.TC_STATE_NAMES + len(states)] = states
    return config


def _drive(run, source, ffi, lib, handle, timing_agent):
    machine = run.machine
    agent = source.agent
    count = source.params.nodes

    # -- load the snapshot ----------------------------------------------
    # Streams: columns from the workload's C twin, or drained from its
    # Python generator where the twin declines (shared across grid
    # cells through the stream LRU when a headless run carries its
    # workload identity); `keep` pins the arrays and their cffi views
    # for the lifetime of the run (C holds raw pointers).
    stream_key = run.stream_key if machine is None else None
    keep = []
    for n in range(count):
        ops, vals = tk.materialize_shared(
            stream_key,
            n,
            lambda node=n: source.node_stream(node),
            lambda node=n: tk.stream_columns(source.workload, node, source.ctx),
        )
        length = len(ops)
        if length:
            ops_view = ffi.from_buffer("uint8_t[]", ops)
            vals_view = ffi.from_buffer("int64_t[]", vals)
        else:
            ops_view = vals_view = ffi.NULL
        keep.append((ops, vals, ops_view, vals_view))
        lib.fs_set_stream(handle, n, ops_view, vals_view, length)

    placement = source.placement
    status = lib.fs_preload(
        handle,
        ffi.from_buffer("int64_t[]", placement.vpns),
        ffi.from_buffer("int64_t[]", placement.ppns),
        len(placement.vpns),
    )
    if status == tk.ERR_CAPACITY:
        raise CapacityError(
            "preload: no free slot anywhere for a block "
            "(data set exceeds attraction-memory capacity in its global set)"
        )
    if status != 0:
        raise EngineDegraded("preload image allocation failed")

    rng = engine_rng(source.params) if machine is None else machine.engine._rng
    lib.fs_seed_engine(handle, ffi.from_buffer("uint32_t[]", tk.rng_state_words(rng)))
    if machine is not None:
        lib.fs_port_load(handle, ffi.new("int64_t[]", machine.crossbar._port_free_at))
    if timing_agent:
        for n in range(count):
            lib.fs_seed_tlb(
                handle,
                n,
                ffi.from_buffer("uint32_t[]", tk.rng_state_words(agent.buffer(n)._rng)),
            )

    end_time, barriers = _sync_loop(run, ffi, lib, handle)
    think = source.workload.think_cycles
    breakdowns = []
    refs_per_node = []
    bd = ffi.new("int64_t[5]")
    for n in range(count):
        lib.fs_export_breakdown(handle, n, bd)
        loc_stall, rem_stall, tlb_stall, sync, refs = bd
        refs_per_node.append(refs)
        breakdowns.append(
            TimeBreakdown(
                busy=think * refs,
                sync=sync,
                loc_stall=loc_stall,
                rem_stall=rem_stall,
                tlb_stall=tlb_stall,
            )
        )
    engine_counters, crossbar_counters = _global_counters(ffi, lib, handle)
    node_counters = [_node_counters(ffi, lib, handle, n) for n in range(count)]
    latencies = [_histograms(ffi, lib, handle, n) for n in range(count)]

    if machine is None:
        # Headless: the agent takes only what the summary reads from it
        # (a degraded run discards it).
        if timing_agent:
            _load_tlb_totals(ffi, lib, handle, agent, count)
        elif _is_sweep_agent(agent):
            _load_capture_agent(ffi, lib, handle, agent, count)
        return _headless_summary(
            run, end_time, refs_per_node, barriers, breakdowns,
            [engine_counters, crossbar_counters] + node_counters, latencies,
        )

    # -- copy every piece of machine state back -------------------------
    # Past this point the Python machine is mutated incrementally, so a
    # failure can no longer degrade to a scalar re-run of the same
    # machine object (Simulator.run checks this flag).
    run._fast_state_mutated = True
    if machine.tracer is not None:
        machine.tracer.end(end_time, refs=sum(refs_per_node), barriers=barriers)
    _add_counters(machine.engine.counters, engine_counters)
    _add_counters(machine.crossbar.counters, crossbar_counters)
    for n, node in enumerate(machine.nodes):
        for field in ("busy", "sync", "loc_stall", "rem_stall", "tlb_stall"):
            setattr(node.breakdown, field, getattr(breakdowns[n], field))
        _add_counters(node.counters, node_counters[n])
        for hist, fresh in zip((node.read_latency, node.write_latency), latencies[n]):
            hist._buckets, hist.count, hist.total = fresh._buckets, fresh.count, fresh.total
    _copy_back(ffi, lib, handle, machine)
    return RunResult(
        machine=machine,
        breakdowns=[node.breakdown for node in machine.nodes],
        total_time=end_time,
        refs_per_node=refs_per_node,
        barriers=barriers,
    )


def _sync_loop(run, ffi, lib, handle):
    """Run the whole simulation in ``fs_run``, which applies
    :class:`~repro.system.simulator.Simulator`'s barrier, lock and
    stream-end semantics itself, and return ``(end_time, barriers)``.

    A traced run re-enters after every ``TRACE_FULL`` return: the
    tracer's span-id counter and last seen time go into C before each
    call and come back with the records C wrote, which are drained into
    the tracer."""
    out = ffi.new("int64_t[4]")
    machine = run.machine
    tracer = None if machine is None else machine.tracer
    if tracer is None:
        status = lib.fs_run(handle, out)
    else:
        take_state = ffi.new("int64_t[4]")
        status = tk.TRACE_FULL
        while status == tk.TRACE_FULL:
            lib.fs_trace_sync(handle, *tracer.span_state)
            status = lib.fs_run(handle, out)
            _drain(run, tracer, ffi, lib, handle, status, take_state)
    if status != tk.DONE:
        _raise_run_error(status, ffi, lib, handle, out)
    return out[0], out[1]


def _drain(run, tracer, ffi, lib, handle, status: int, take_state) -> None:
    """Move the records C buffered into the tracer."""
    data = lib.fs_trace_take(handle, take_state)
    if status == tk.ERR_INTERNAL:
        # A degradable failure: records still in C never reach the
        # tracer, so a run that had emitted nothing may re-run.
        return
    tracer.span_state = (take_state[1], take_state[2])
    if take_state[0]:
        # Records left C: a scalar re-run would write them twice.
        run._fast_state_mutated = True
        tracer.take_packed(ffi.buffer(data, take_state[0]))
    if status < 0:
        # Spans C left open on an engine error stay open on the
        # tracer, as after a scalar raise (close() truncates them).
        open_span = ffi.new("int64_t[]", 5 + 4)  # 5 header words + begin values
        for i in range(take_state[3]):
            lib.fs_trace_open_span(handle, i, open_span)
            values = [open_span[5 + j] for j in range(open_span[4])]
            tracer.push_open(*(open_span[j] for j in range(4)), values)


def _raise_run_error(status: int, ffi, lib, handle, out) -> None:
    """Raise what the scalar engine raises for the same run."""
    if status in (tk.ERR_DEADLOCK, tk.ERR_LOCKS_HELD):
        count = lib.fs_sync_words(handle, ffi.NULL)
        buf = ffi.new("int64_t[]", max(count, 1))
        lib.fs_sync_words(handle, buf)
        words = list(buf)[:count]
        if status == tk.ERR_DEADLOCK:
            raise ReproError(f"deadlock: barriers {words} never released")
        raise ReproError(f"locks still held at end of run: {words}")
    if status == tk.ERR_BARRIER_TWICE:
        raise ReproError(f"node {out[0]} reached barrier {out[1]} twice before release")
    if status == tk.ERR_UNLOCK:
        holder = None if out[2] < 0 else out[2]
        raise ReproError(f"node {out[0]} unlocks {out[1]:#x} held by {holder}")
    if status == tk.ERR_OPCODE:
        raise ReproError(f"unknown opcode {out[0]}")
    _raise_engine_error(status)


def _global_counters(ffi, lib, handle):
    """The engine's and the crossbar's counters, each a dict holding
    only the keys the run created (``Counters.add`` semantics)."""
    values = ffi.new("int64_t[]", len(tk.GLOBAL_COUNTERS))
    calls = ffi.new("int64_t[]", len(tk.GLOBAL_COUNTERS))
    lib.fs_export_global(handle, values, calls)
    engine, crossbar = {}, {}
    for i, name in enumerate(tk.GLOBAL_COUNTERS):
        if calls[i]:
            (engine if i < _N_ENGINE_GLOBALS else crossbar)[name] = int(values[i])
    return engine, crossbar


def _node_counters(ffi, lib, handle, node: int) -> Dict[str, int]:
    values = ffi.new("int64_t[]", len(tk.NODE_COUNTERS))
    calls = ffi.new("int64_t[]", len(tk.NODE_COUNTERS))
    lib.fs_export_node_counters(handle, node, values, calls)
    return {
        name: int(values[i]) for i, name in enumerate(tk.NODE_COUNTERS) if calls[i]
    }


def _add_counters(counters: Counters, values: Dict[str, int]) -> None:
    for name, value in values.items():
        counters.add(name, value)


def _histograms(ffi, lib, handle, node: int):
    """One node's (read, write) stall-latency histograms."""
    buckets = ffi.new("int64_t[]", tk.N_HIST_BUCKETS)
    count_total = ffi.new("int64_t[2]")
    hists = []
    for is_write in (0, 1):
        lib.fs_export_hist(handle, node, is_write, buckets, count_total)
        hist = LatencyHistogram()
        hist._buckets = {
            i: int(buckets[i]) for i in range(tk.N_HIST_BUCKETS) if buckets[i]
        }
        hist.count = int(count_total[0])
        hist.total = int(count_total[1])
        hists.append(hist)
    return hists


def _headless_summary(run, end_time, refs_per_node, barriers, breakdowns, bags, latencies):
    """The :class:`~repro.runner.summary.RunSummary` a machine-backed
    run's ``RunSummary.from_result`` would produce, from C readouts."""
    from repro.runner.summary import RunSummary

    machine_counters = Counters()
    if len(run.placement.vpns):
        machine_counters.add("pages_preloaded", len(run.placement.vpns))
    counters = merge_counters(
        [machine_counters] + [Counters(**bag) for bag in bags], run.agent, run.scheme
    )
    read_latency, write_latency = LatencyHistogram(), LatencyHistogram()
    for read, write in latencies:
        read_latency = read_latency.merge(read)
        write_latency = write_latency.merge(write)
    return RunSummary(
        scheme=run.scheme,
        workload_name=run.workload.name,
        total_time=end_time,
        refs_per_node=refs_per_node,
        barriers=barriers,
        breakdowns=breakdowns,
        counters=counters.to_dict(),
        timing=timing_summary(run.agent),
        read_latency=read_latency,
        write_latency=write_latency,
        backend="compiled",
    )


def _copy_back(ffi, lib, handle, machine) -> None:
    """The rest of the machine image: cache/AM sets and hit counts,
    directory entries and lookups, port free times, the agent's state,
    the engine RNG and the translation accumulator."""
    engine = machine.engine
    stats2 = ffi.new("int64_t[2]")
    for n, node in enumerate(machine.nodes):
        _load_cache(ffi, lib, handle, n, 0, node.flc, stats2, lambda s: s)
        _load_cache(ffi, lib, handle, n, 1, node.slc, stats2, lambda s: s)
        _load_cache(ffi, lib, handle, n, 2, engine.ams[n], stats2, AMState)
    _load_directory(ffi, lib, handle, machine)
    count = machine.params.nodes
    ports = ffi.new("int64_t[]", count)
    lib.fs_export_ports(handle, ports)
    machine.crossbar._port_free_at = list(ports)
    agent = machine.agent
    if type(agent) is TimingAgent:
        _load_tlbs(ffi, lib, handle, agent, count)
    rng_out = ffi.new("uint32_t[]", tk.RNG_STATE_WORDS)
    lib.fs_export_engine_rng(handle, rng_out)
    tk.load_rng_state(engine._rng, [int(rng_out[i]) for i in range(tk.RNG_STATE_WORDS)])
    engine._translation_accum = int(lib.fs_translation_accum(handle))


def _load_cache(ffi, lib, handle, node: int, which: int, cache, stats2, cast) -> None:
    """Rebuild a Python cache/AM image from the C engine's LRU arrays.

    The export is set-major and LRU-ordered within each set, so
    appending into fresh per-set dicts reproduces the scalar path's
    dict insertion order (= LRU order) exactly.
    """
    capacity = cache.sets * cache.assoc
    blocks = ffi.new("int64_t[]", capacity)
    states = ffi.new("uint8_t[]", capacity)
    resident = int(lib.fs_export_cache(handle, node, which, blocks, states))
    shift = cache._block_shift
    mask = cache._set_mask
    fresh = [dict() for _ in range(cache.sets)]
    for i in range(resident):
        block = int(blocks[i])
        fresh[(block >> shift) & mask][block] = cast(int(states[i]))
    cache._sets = fresh
    lib.fs_cache_stats(handle, node, which, stats2)
    cache.hits = int(stats2[0])
    cache.misses = int(stats2[1])


def _load_directory(ffi, lib, handle, machine) -> None:
    engine = machine.engine
    layout = machine.layout
    count = machine.params.nodes
    swords = (count + 63) // 64
    dcount = int(lib.fs_dir_count(handle))
    blocks = ffi.new("int64_t[]", max(dcount, 1))
    owners = ffi.new("int32_t[]", max(dcount, 1))
    sharers = ffi.new("uint64_t[]", max(dcount, 1) * swords)
    lib.fs_export_dir(handle, blocks, owners, sharers)
    page_bits = layout.page_bits
    node_mask = count - 1
    for i in range(dcount):
        block = int(blocks[i])
        home = (block >> page_bits) & node_mask
        entry = engine.directories[home]._entries[block]
        owner = int(owners[i])
        entry.owner = None if owner < 0 else owner
        holders = set()
        for w in range(swords):
            word = int(sharers[i * swords + w])
            base = 64 * w
            while word:
                low = word & -word
                holders.add(base + low.bit_length() - 1)
                word ^= low
        entry.sharers = holders
    lookups = ffi.new("int64_t[]", count)
    lib.fs_export_dir_lookups(handle, lookups)
    for home in range(count):
        engine.directories[home].lookups += int(lookups[home])


def _load_capture_agent(ffi, lib, handle, agent, count: int) -> None:
    """Copy the captured columns into a
    :class:`~repro.system.taptrace.CaptureAgent`'s per-node columns
    (the C engine captures them in ``CAPTURE_COLUMNS`` order)."""
    from repro.system.taptrace import _U4, _U8

    total_references = 0
    width = ffi.new("int *")
    for index, columns in enumerate(agent.columns()):
        for n in range(count):
            length = int(lib.fs_cap_count(handle, index, n))
            if index == 0:  # the L0 tap sees every reference
                total_references += length
            if not length:
                continue
            pages = lib.fs_cap_data(handle, index, n, width)
            # Captured values are non-negative, exported 4 bytes wide
            # when every one fits: a native-order bulk copy is exact.
            column = array(_U4 if width[0] == 4 else _U8)
            column.frombytes(ffi.buffer(pages, width[0] * length))
            columns[n] = column
    agent.total_references += total_references


def _load_tlb_totals(ffi, lib, handle, agent, count: int) -> None:
    """Each TLB/DLB's access and miss counts, without its contents."""
    buffer0 = agent.buffer(0)
    tags = ffi.new("int64_t[]", buffer0.sets * buffer0.assoc)
    lens = ffi.new("int32_t[]", buffer0.sets)
    stats = ffi.new("int64_t[2]")
    for n in range(count):
        lib.fs_export_tlb(handle, n, tags, lens, stats)
        agent.buffer(n).accesses = int(stats[0])
        agent.buffer(n).misses = int(stats[1])


def _load_tlbs(ffi, lib, handle, agent, count: int) -> None:
    rng_out = ffi.new("uint32_t[]", tk.RNG_STATE_WORDS)
    for n in range(count):
        buffer = agent.buffer(n)
        capacity = buffer.sets * buffer.assoc
        tags = ffi.new("int64_t[]", capacity)
        lens = ffi.new("int32_t[]", buffer.sets)
        stats = ffi.new("int64_t[2]")
        lib.fs_export_tlb(handle, n, tags, lens, stats)
        new_tags = []
        where = {}
        for set_idx in range(buffer.sets):
            ways = [
                int(tags[set_idx * buffer.assoc + w]) for w in range(int(lens[set_idx]))
            ]
            new_tags.append(ways)
            for way, page in enumerate(ways):
                where[page] = (set_idx, way)
        buffer._tags = new_tags
        buffer._where = where
        buffer.accesses = int(stats[0])
        buffer.misses = int(stats[1])
        lib.fs_export_tlb_rng(handle, n, rng_out)
        tk.load_rng_state(
            buffer._rng, [int(rng_out[i]) for i in range(tk.RNG_STATE_WORDS)]
        )
