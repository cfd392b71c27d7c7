"""Compiled fast path for the timing simulator.

Drives the ``fastsim`` C engine (see :mod:`repro.core.timing_kernels`)
over materialized columnar reference streams.  The C engine owns the
whole run — event heap, FLC/SLC/AM hierarchies, COMA-F protocol,
directory, crossbar charging, TLB/DLB with the scalar path's exact
Mersenne Twister streams, and
:class:`~repro.system.simulator.Simulator`'s barrier, lock and
stream-end semantics — so an untraced run is one ``fs_run`` call.

Every compiled run is a :class:`HeadlessRun`: it is described by
values alone and no Python machine exists at any point.  A run has
three phases:

1. **Start.**  ``fs_preload`` builds the preloaded AM/directory/page-map
   image in C from the run's page placement
   (:func:`~repro.system.machine.place_pages`), placing each block as
   ``ProtocolEngine.preload_block`` does.  The streams are materialized
   (or taken from the stream LRU) and the RNG states seeded; the
   crossbar starts idle.
2. **Run.**  ``fs_run`` until every node has finished; a sync error
   raises the scalar engine's :class:`~repro.common.errors.ReproError`.
3. **Export.**  The :class:`~repro.runner.summary.RunSummary` is read
   straight from C: breakdowns, counters, latency histograms, TLB/DLB
   totals and, for a capture, the tap columns.  Only the differential
   oracle (:mod:`repro.fuzz.oracle`) also asks for the final machine
   image, which ``fs_image`` writes as one flat int64 array.

The contract is **bit-identical results**: a headless summary equals
``RunSummary.from_result`` of the scalar run, and the final image
decodes to exactly what ``machine_state`` reads off the scalar
machine, which the differential suite
(``tests/integration/test_timing_equivalence.py``) enforces field by
field.  :func:`~repro.system.simulator.run_summary` chooses the engine
and stamps why a run stayed scalar.

Traced runs are modelled too.  The C engine writes the tracer's packed
records (:mod:`repro.obs.trace`) for everything the scalar engine
would emit inside its ``run`` span, using the codec and string-table
ids of the emitters each layer defines next to itself
(:func:`~repro.system.node.ref_emitter`,
:func:`~repro.coma.protocol.fetch_emitter` and the rest).  A traced
run writes the trace header and attaches the agent as
:class:`~repro.system.machine.Machine` does.  :func:`_sync_loop`
syncs the tracer's span-id counter and last seen time into C before
every ``fs_run`` call and drains the buffer after it (``fs_run``
returns ``TRACE_FULL`` whenever the buffer passes
``PACKED_FLUSH_BYTES``); Python opens and closes the ``run`` span
itself, so the trace is byte-identical to the scalar run's.  Once a
record has reached the tracer the run counts as mutated
(``HeadlessRun.mutated``): a later failure propagates instead of
re-running on the scalar engine and writing every record twice.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ProtocolError, ReproError
from repro.common.stats import Counters, LatencyHistogram, TimeBreakdown
from repro.core import timing_kernels as tk
from repro.core.ladder import EngineDegraded, injected_fault
from repro.core.schemes import TAP_OF_SCHEME, TapPoint
from repro.system.machine import (
    build_address_space,
    engine_rng,
    merge_counters,
    place_pages,
)
from repro.system.results import timing_summary
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


def _is_capture(agent) -> bool:
    from repro.system.taptrace import CaptureAgent

    return type(agent) is CaptureAgent


def models_agent(agent) -> bool:
    """True for the agents the C engine models: a
    :class:`~repro.system.taps.TimingAgent` (which builds only
    fully-associative or direct-mapped buffers, both modelled), a
    :class:`~repro.system.taptrace.CaptureAgent` and the passive
    :class:`~repro.coma.protocol.TranslationAgent`."""
    from repro.coma.protocol import TranslationAgent

    return type(agent) in (TimingAgent, TranslationAgent) or _is_capture(agent)


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

    The segments, the page placement
    (:func:`~repro.system.machine.place_pages`, which raises the
    preload's :class:`~repro.common.errors.CapacityError`) and the
    workload context that generates the streams are all
    :func:`run_fast` reads.  ``agent`` is a fresh
    :class:`~repro.system.taps.TimingAgent` (its buffer geometry, RNG
    states and, after the run, access/miss totals), a
    :class:`~repro.system.taptrace.CaptureAgent` (its columns are
    filled from the capture) or the passive
    :class:`~repro.coma.protocol.TranslationAgent` (no translation
    structure).  ``tracer`` is an optional
    :class:`~repro.obs.trace.Tracer` the C engine writes records for.
    """

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
        tracer=None,
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
        self.tracer = tracer
        #: True once a trace record has left C: a scalar re-run would
        #: write it twice, so a later failure must propagate.
        self.mutated = False
        #: After ``run_fast(run, image=True)``: the final machine image,
        #: ``fs_image``'s words followed by each node's read and write
        #: latency histograms (``fs_export_hist``: buckets, count, total).
        self.image: Optional[array] = None

    def node_stream(self, node: int):
        return self.workload.node_stream(node, self.ctx)


def unavailable_reason() -> str:
    """The ``fallback_reason`` of a run made without the compiled backend."""
    return f"{_UNAVAILABLE}{tk.backend_status()}"


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
    C engine does not model (a CC-NUMA machine, say) stays scalar by
    design, and ``"fast=False"`` is the caller's choice."""
    return bool(reason) and reason.startswith((_DEGRADED, _UNAVAILABLE))


def run_fast(run: HeadlessRun, image: bool = False):
    """Run one :class:`HeadlessRun` on the compiled engine and return
    its :class:`~repro.runner.summary.RunSummary`, read straight from
    C.  ``image=True`` also leaves the final machine image in
    ``run.image`` (the differential oracle's view; nothing else pays
    for it).

    The caller must have checked that the backend is available; this
    function raises on engine errors.  Failures the scalar oracle
    recovers from — C-side allocation failure, the sticky internal
    error status, injected faults — raise
    :class:`~repro.core.ladder.EngineDegraded` (or ``MemoryError``); a
    traced run rewinds its tracer first unless ``run.mutated`` says
    records already reached it.
    """
    run.mutated = False
    fault = injected_fault()
    if fault == "create":
        raise EngineDegraded("injected fault: engine allocation failed (create)")

    backend = tk.get_backend()
    ffi, lib = backend.ffi, backend.lib
    geom = _geometry(run)

    handle = lib.fs_create(ffi.new("int64_t[]", geom))
    if handle == ffi.NULL:
        raise EngineDegraded("C engine allocation failed (fs_create OOM)")
    tracer = run.tracer
    try:
        # A traced run meets the oom fault where it would really strike:
        # the trace buffer, which then refuses to grow past its first
        # chunk.
        if fault == "oom" and tracer is None:
            raise EngineDegraded("injected fault: C allocation failed (oom)")
        if fault == "internal":
            _raise_engine_error(tk.ERR_INTERNAL)
        if _is_capture(run.agent) and lib.fs_set_capture(handle) != 0:
            raise EngineDegraded("capture-mode allocation failed")
        if tracer is None:
            return _drive(run, ffi, lib, handle, image)
        config = _trace_config(run, tracer, fail_growth=fault == "oom")
        mark = tracer.checkpoint()
        tracer.begin("run", 0, max_refs=run.max_refs_per_node)
        config[tk.TC_PARENT] = tracer.current_span_id
        lib.fs_set_trace(handle, ffi.new("int64_t[]", config))
        try:
            return _drive(run, ffi, lib, handle, image)
        except (EngineDegraded, MemoryError):
            # Nothing reached the tracer yet: forget the run span so the
            # scalar re-run starts from the same tracer state.
            if not run.mutated:
                tracer.rewind(mark)
            raise
    finally:
        lib.fs_destroy(handle)


def _geometry(run: HeadlessRun) -> List[int]:
    """The GEOM_* vector ``fs_create`` sizes the engine from."""
    params = run.params
    layout = AddressLayout.from_params(params)
    agent = run.agent
    timing_agent = type(agent) is TimingAgent
    npages = len(run.placement.vpns)
    geom = [0] * tk.GEOM_LEN
    geom[tk.GEOM_NODES] = params.nodes
    geom[tk.GEOM_THINK] = run.workload.think_cycles
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
    geom[tk.GEOM_VIRTUAL_FLC] = int(run.scheme.uses_virtual_flc)
    geom[tk.GEOM_VIRTUAL_SLC] = int(run.scheme.uses_virtual_slc)
    geom[tk.GEOM_VIRTUAL_AM] = int(run.scheme.uses_virtual_am)
    geom[tk.GEOM_RELAXED] = int(run.relaxed_writes)
    geom[tk.GEOM_TAP] = (
        _TAP_CODE[TAP_OF_SCHEME[run.scheme]] if timing_agent else tk.TAP_NONE
    )
    geom[tk.GEOM_INCLUDE_L2_WB] = (
        int(agent.include_l2_writebacks) if timing_agent else 1
    )
    if timing_agent:
        buffer0 = agent.buffer(0)
        geom[tk.GEOM_TLB_ENTRIES] = buffer0.entries
        geom[tk.GEOM_TLB_SETS] = buffer0.sets
        geom[tk.GEOM_TLB_ASSOC] = buffer0.assoc
    max_refs = run.max_refs_per_node
    geom[tk.GEOM_MAX_REFS] = -1 if max_refs is None else max_refs
    geom[tk.GEOM_AM_BLOCK] = params.am_block
    geom[tk.GEOM_REQ_PAYLOAD] = params.request_payload_bytes
    geom[tk.GEOM_BLK_PAYLOAD] = params.am_block + params.message_header_bytes
    geom[tk.GEOM_DIR_CAPACITY] = _pow2_at_least(2 * npages * params.blocks_per_page + 16)
    mapped = 0 if run.scheme.uses_virtual_am else npages
    geom[tk.GEOM_MAP_CAPACITY] = _pow2_at_least(2 * mapped + 16)
    geom[tk.GEOM_CONTENTION] = int(run.contention)
    return geom


def _trace_config(run: HeadlessRun, tracer, fail_growth: bool) -> List[int]:
    """Attach ``tracer`` as :class:`~repro.system.machine.Machine` and
    :class:`~repro.system.simulator.Simulator` would — trace header,
    agent, and every record shape's emitter in their order — and return
    the TC_* vector: the codec ids and string-table ids of every record
    shape the C engine writes.  ``TC_PARENT`` is left for the caller."""
    from repro.coma.protocol import (
        fetch_emitter,
        inject_emitter,
        invalidate_emitter,
        upgrade_emitter,
    )
    from repro.interconnect.crossbar import msg_emitter
    from repro.obs.trace import PACKED_FLUSH_BYTES
    from repro.system.machine import write_trace_meta
    from repro.system.node import ref_emitter
    from repro.system.simulator import (
        PHASE_EVERY,
        barrier_emitter,
        lock_emitter,
        phase_emitter,
    )

    def strings(codec, key):
        return codec.gmaps[(codec.begin_keys + codec.end_keys).index(key)]

    write_trace_meta(tracer, run.params, run.scheme, run.workload)
    msg = msg_emitter(tracer).codec
    run.agent.attach_trace(tracer)
    fetch = fetch_emitter(tracer)[0].codec
    upgrade = upgrade_emitter(tracer)[0].codec
    invalidate = invalidate_emitter(tracer).codec
    inject = inject_emitter(tracer).codec
    ref = ref_emitter(tracer)[0].codec
    config = [0] * tk.TC_LEN
    config[tk.TC_REF] = ref.id
    config[tk.TC_FETCH] = fetch.id
    config[tk.TC_UPGRADE] = upgrade.id
    config[tk.TC_INVALIDATE] = invalidate.id
    config[tk.TC_INJECT] = inject.id
    config[tk.TC_MSG] = msg.id
    emitters = getattr(run.agent, "trace_emitters", None)
    if emitters is not None:  # TimingAgent: one TLB/DLB hit/fill pair
        config[tk.TC_HIT] = emitters[0].codec.id
        config[tk.TC_FILL] = emitters[1].codec.id
    config[tk.TC_PHASE] = phase_emitter(tracer).codec.id
    config[tk.TC_BARRIER] = barrier_emitter(tracer).codec.id
    config[tk.TC_LOCK] = lock_emitter(tracer).codec.id
    config[tk.TC_PHASE_EVERY] = PHASE_EVERY
    config[tk.TC_LIMIT] = PACKED_FLUSH_BYTES
    config[tk.TC_FAIL_GROWTH] = int(fail_growth)
    config[tk.TC_FALSE], config[tk.TC_TRUE] = strings(fetch, "write")
    config[tk.TC_READ], config[tk.TC_WRITE] = strings(ref, "op")
    names = strings(msg, "msg")
    config[tk.TC_MSG_NAMES:tk.TC_MSG_NAMES + len(names)] = names
    states = strings(inject, "state")
    config[tk.TC_STATE_NAMES:tk.TC_STATE_NAMES + len(states)] = states
    return config


def _drive(run: HeadlessRun, ffi, lib, handle, image: bool):
    agent = run.agent
    count = run.params.nodes

    # -- load the snapshot ----------------------------------------------
    # Streams: columns from the workload's C twin, or drained from its
    # Python generator where the twin declines (shared across grid
    # cells through the stream LRU when the run carries its workload
    # identity); `keep` pins the arrays and their cffi views for the
    # lifetime of the run (C holds raw pointers).
    keep = []
    for n in range(count):
        ops, vals = tk.materialize_shared(
            run.stream_key,
            n,
            lambda node=n: run.node_stream(node),
            lambda node=n: tk.stream_columns(run.workload, node, run.ctx),
        )
        length = len(ops)
        if length:
            ops_view = ffi.from_buffer("uint8_t[]", ops)
            vals_view = ffi.from_buffer("int64_t[]", vals)
        else:
            ops_view = vals_view = ffi.NULL
        keep.append((ops, vals, ops_view, vals_view))
        lib.fs_set_stream(handle, n, ops_view, vals_view, length)

    placement = run.placement
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

    rng = engine_rng(run.params)
    lib.fs_seed_engine(handle, ffi.from_buffer("uint32_t[]", tk.rng_state_words(rng)))
    timing_agent = type(agent) is TimingAgent
    if timing_agent:
        for n in range(count):
            lib.fs_seed_tlb(
                handle,
                n,
                ffi.from_buffer("uint32_t[]", tk.rng_state_words(agent.buffer(n)._rng)),
            )

    end_time, barriers = _sync_loop(run, ffi, lib, handle)
    think = run.workload.think_cycles
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
    bags = list(_global_counters(ffi, lib, handle))
    bags += [_node_counters(ffi, lib, handle, n) for n in range(count)]
    latencies = [_histograms(ffi, lib, handle, n) for n in range(count)]
    if image:
        run.image = _image(ffi, lib, handle, latencies)

    # The agent takes only what the summary reads from it (a degraded
    # run discards it).
    if timing_agent:
        _load_tlb_totals(ffi, lib, handle, agent, count)
    elif _is_capture(agent):
        _load_capture_agent(ffi, lib, handle, agent, count)
    if run.tracer is not None:
        run.tracer.end(end_time, refs=sum(refs_per_node), barriers=barriers)
    return _summary(run, end_time, refs_per_node, barriers, breakdowns, bags, latencies)


def _sync_loop(run: HeadlessRun, ffi, lib, handle):
    """Run the whole simulation in ``fs_run``, which applies
    :class:`~repro.system.simulator.Simulator`'s barrier, lock and
    stream-end semantics itself, and return ``(end_time, barriers)``.

    A traced run re-enters after every ``TRACE_FULL`` return: the
    tracer's span-id counter and last seen time go into C before each
    call and come back with the records C wrote, which are drained into
    the tracer."""
    out = ffi.new("int64_t[4]")
    tracer = run.tracer
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


def _drain(run: HeadlessRun, tracer, ffi, lib, handle, status: int, take_state) -> None:
    """Move the records C buffered into the tracer."""
    data = lib.fs_trace_take(handle, take_state)
    if status == tk.ERR_INTERNAL:
        # A degradable failure: records still in C never reach the
        # tracer, so a run that had emitted nothing may re-run.
        return
    tracer.span_state = (take_state[1], take_state[2])
    if take_state[0]:
        # Records left C: a scalar re-run would write them twice.
        run.mutated = True
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


def _image(ffi, lib, handle, latencies) -> array:
    """``fs_image``'s words, then each node's read and write latency
    histograms as ``fs_export_hist`` lays them out."""
    size = lib.fs_image(handle, ffi.NULL, 0)
    words = array("q", bytes(8 * size))
    if lib.fs_image(handle, ffi.from_buffer("int64_t[]", words), size) != size:
        raise ReproError("fs_image: the image changed size between two calls")
    for hists in latencies:
        for hist in hists:
            words.extend(hist._buckets.get(i, 0) for i in range(tk.N_HIST_BUCKETS))
            words.extend((hist.count, hist.total))
    return words


def _summary(run: HeadlessRun, end_time, refs_per_node, barriers, breakdowns, bags, latencies):
    """The :class:`~repro.runner.summary.RunSummary` the scalar run's
    ``RunSummary.from_result`` would produce, from C readouts."""
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
    stats = ffi.new("int64_t[2]")
    for n in range(count):
        lib.fs_export_tlb(handle, n, stats)
        agent.buffer(n).accesses = int(stats[0])
        agent.buffer(n).misses = int(stats[1])
