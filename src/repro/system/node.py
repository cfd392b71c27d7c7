"""One processing node: FLC + SLC over the attraction memory.

The node implements the scheme-dependent plumbing of paper Figure 2:
which caches are virtually indexed, where addresses get translated
(through the :class:`~repro.coma.protocol.TranslationAgent`), and the
inclusion bookkeeping between FLC, SLC and the attraction memory
(backpointers in real hardware; direct span invalidation here).

Reference cost model (Section 5.1): FLC hits are free, SLC hits cost 6
cycles, attraction-memory hits 74, remote misses pay the full protocol
path.  The FLC is write-through/no-write-allocate, so *every* store
proceeds to the SLC — that is why the L1 translation tap sees all stores
and why L1-TLB barely improves on L0-TLB for write-heavy programs.
Stores stall for their full latency (sequential consistency).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.cache import CLEAN_EXCLUSIVE, CLEAN_SHARED, DIRTY, Cache
from repro.common.params import MachineParams
from repro.common.stats import Counters, LatencyHistogram, TimeBreakdown
from repro.coma.protocol import ProtocolEngine, TranslationAgent
from repro.core.schemes import Scheme, TapPoint

#: Address-space converters; identity when the spaces coincide.
AddrMap = Callable[[int], int]


def ref_emitter(trace):
    """The packed "ref" span: ``begin(t0, node, op, vpn)`` and
    ``end(t1, cycles, tlb)``.  Shared with the compiled engine, which
    writes the same records."""
    return trace.span_emitter(
        "ref", ("node", "op", "vpn"), ("cycles", "tlb"), enums={"op": ("read", "write")}
    )


class Node:
    """A processor node wired for one translation scheme."""

    __slots__ = (
        "id",
        "params",
        "scheme",
        "engine",
        "agent",
        "flc",
        "slc",
        "counters",
        "breakdown",
        "read_latency",
        "write_latency",
        "relaxed_writes",
        "_virtual_flc",
        "_virtual_slc",
        "_virtual_am",
        "_needs_physical",
        "_to_physical",
        "_to_virtual",
        "_page_bits",
        "_slc_hit",
        "_at_l0",
        "_at_l1",
        "_at_l2",
        "_counter_values",
        "_trace",
        "_ref_begin",
        "_ref_end",
        # Per-instance entry point: bound once in __init__ to the traced
        # or untraced implementation, so the sweep inner loop pays no
        # per-reference is-None check.
        "reference",
    )

    def __init__(
        self,
        node_id: int,
        params: MachineParams,
        scheme: Scheme,
        engine: ProtocolEngine,
        agent: TranslationAgent,
        to_physical: Optional[AddrMap] = None,
        to_virtual: Optional[AddrMap] = None,
        relaxed_writes: bool = False,
        trace=None,
    ) -> None:
        self.id = node_id
        self.params = params
        self.scheme = scheme
        self.engine = engine
        self.agent = agent
        self.flc = Cache(params.flc_size, params.flc_block, params.flc_assoc, name=f"flc{node_id}")
        self.slc = Cache(params.slc_size, params.slc_block, params.slc_assoc, name=f"slc{node_id}")
        self.counters = Counters()
        self.breakdown = TimeBreakdown()
        #: Observed reference latencies (stall cycles per load/store).
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        #: Sequential consistency (paper baseline) stalls the processor
        #: on every store; with relaxed_writes store latency is hidden
        #: behind a write buffer (counted, not charged).
        self.relaxed_writes = relaxed_writes

        self._virtual_flc = scheme.uses_virtual_flc
        self._virtual_slc = scheme.uses_virtual_slc
        self._virtual_am = scheme.uses_virtual_am
        self._needs_physical = not (self._virtual_flc and self._virtual_slc and self._virtual_am)
        identity: AddrMap = lambda addr: addr
        self._to_physical = to_physical if to_physical is not None else identity
        self._to_virtual = to_virtual if to_virtual is not None else identity
        if self._needs_physical and to_physical is None:
            raise ValueError(f"scheme {scheme} needs a virtual-to-physical map")
        self._page_bits = params.page_size.bit_length() - 1
        self._slc_hit = params.slc_hit_latency
        # Pre-resolve the node-side translation taps.  None marks a tap
        # the agent declared a no-op (e.g. a V-COMA TimingAgent only
        # acts at the home directory), letting _process skip the call —
        # these fire up to three times per simulated reference.
        self._at_l0 = agent.at_l0 if agent.uses_tap(TapPoint.L0) else None
        self._at_l1 = agent.at_l1 if agent.uses_tap(TapPoint.L1) else None
        self._at_l2 = agent.at_l2 if agent.uses_tap(TapPoint.L2) else None
        self._counter_values = self.counters._values
        #: Optional :class:`~repro.obs.trace.Tracer`; one "ref" span per
        #: reference when attached, one is-None check when not.  The
        #: span emitters are hoisted here, once, so the traced hot path
        #: packs a fixed-layout record instead of building dicts.
        self._trace = trace
        if trace is not None:
            self._ref_begin, self._ref_end = ref_emitter(trace)
        else:
            self._ref_begin = self._ref_end = None
        #: Main entry point, one load or store per call.  Bound to the
        #: traced or untraced body here, once, instead of branching on
        #: the tracer inside the per-reference hot path.
        self.reference = (
            self._traced_reference if trace is not None else self._untraced_reference
        )

    # ------------------------------------------------------------------
    # main entry: one load or store
    # ------------------------------------------------------------------
    def _untraced_reference(self, op_is_write: bool, vaddr: int, now: int) -> int:
        """Process one memory reference; updates the node's time
        breakdown and returns the cycles consumed (stall + translation).

        Under ``relaxed_writes`` stores complete in the coherence system
        as usual, but the processor does not wait: their cycles are
        recorded in the ``hidden_store_cycles`` counter and zero is
        returned.  Reached as ``node.reference`` on untraced nodes."""
        if op_is_write and self.relaxed_writes:
            breakdown = self.breakdown
            before = (breakdown.loc_stall, breakdown.rem_stall, breakdown.tlb_stall)
            cycles = self._process(op_is_write, vaddr, now)
            breakdown.loc_stall, breakdown.rem_stall, breakdown.tlb_stall = before
            self.counters.add("hidden_store_cycles", cycles)
            self.write_latency.record(0)
            return 0
        cycles = self._process(op_is_write, vaddr, now)
        if op_is_write:
            self.write_latency.record(cycles)
        else:
            self.read_latency.record(cycles)
        return cycles

    def _traced_reference(self, op_is_write: bool, vaddr: int, now: int) -> int:
        """One reference wrapped in a "ref" span; mirrors
        :meth:`_untraced_reference`'s body between the span emitters
        (protocol spans still nest — the engine holds its own reference
        to the same tracer).  Reached as ``node.reference`` on traced
        nodes."""
        breakdown = self.breakdown
        tlb_before = breakdown.tlb_stall
        self._ref_begin(now, self.id, op_is_write, vaddr >> self._page_bits)
        if op_is_write and self.relaxed_writes:
            before = (breakdown.loc_stall, breakdown.rem_stall, breakdown.tlb_stall)
            raw = self._process(op_is_write, vaddr, now)
            breakdown.loc_stall, breakdown.rem_stall, breakdown.tlb_stall = before
            self.counters.add("hidden_store_cycles", raw)
            self.write_latency.record(0)
            cycles = 0
        else:
            cycles = self._process(op_is_write, vaddr, now)
            if op_is_write:
                self.write_latency.record(cycles)
            else:
                self.read_latency.record(cycles)
        self._ref_end(now + cycles, cycles, breakdown.tlb_stall - tlb_before)
        return cycles

    def _process(self, op_is_write: bool, vaddr: int, now: int) -> int:
        # Localize everything touched per reference: this method runs
        # once per simulated load/store and repeated self.X lookups are
        # a measurable fraction of its cost.
        node_id = self.id
        flc = self.flc
        slc = self.slc
        breakdown = self.breakdown
        slc_hit = self._slc_hit
        at_l0 = self._at_l0
        at_l1 = self._at_l1
        at_l2 = self._at_l2
        values = self._counter_values

        vpn = vaddr >> self._page_bits
        tlb = at_l0(node_id, vpn) if at_l0 is not None else 0
        paddr = self._to_physical(vaddr) if self._needs_physical else vaddr
        flc_addr = vaddr if self._virtual_flc else paddr
        slc_addr = vaddr if self._virtual_slc else paddr
        proto_addr = vaddr if self._virtual_am else paddr
        stall = 0

        if not op_is_write:
            values["reads"] = values.get("reads", 0) + 1
            if not flc.lookup(flc_addr):
                if at_l1 is not None:
                    tlb += at_l1(node_id, vpn)
                if slc.lookup(slc_addr):
                    stall += slc_hit
                    breakdown.loc_stall += slc_hit
                else:
                    if at_l2 is not None:
                        tlb += at_l2(node_id, vpn)
                    outcome = self.engine.fetch(node_id, proto_addr, False, now + stall + tlb)
                    stall += outcome.cycles
                    self._attribute(outcome)
                    self._fill_slc(slc_addr, proto_addr, dirty=False)
                self._fill_flc(flc_addr)
        else:
            values["writes"] = values.get("writes", 0) + 1
            flc.lookup(flc_addr)  # write-through, no-write-allocate
            if at_l1 is not None:
                tlb += at_l1(node_id, vpn)  # every store reaches the SLC
            state = slc.state_of(slc_addr)
            if state is None:
                slc.lookup(slc_addr)  # count the miss
                if at_l2 is not None:
                    tlb += at_l2(node_id, vpn)
                outcome = self.engine.fetch(node_id, proto_addr, True, now + stall + tlb)
                stall += outcome.cycles
                self._attribute(outcome)
                self._fill_slc(slc_addr, proto_addr, dirty=True)
            else:
                slc.lookup(slc_addr)  # hit (refresh LRU)
                stall += slc_hit
                breakdown.loc_stall += slc_hit
                if state == CLEAN_SHARED:
                    # Ownership upgrade below the SLC.
                    if at_l2 is not None:
                        tlb += at_l2(node_id, vpn)
                    outcome = self.engine.upgrade_for_write(node_id, proto_addr, now + stall + tlb)
                    stall += outcome.cycles
                    self._attribute(outcome)
                slc.set_state(slc_addr, DIRTY)

        breakdown.tlb_stall += tlb
        return stall + tlb

    def _attribute(self, outcome) -> None:
        memory_cycles = outcome.cycles - outcome.translation
        self.breakdown.tlb_stall += outcome.translation
        if outcome.remote:
            self.breakdown.rem_stall += memory_cycles
            self.counters.add("remote_accesses")
        else:
            self.breakdown.loc_stall += memory_cycles
            self.counters.add("am_local_accesses")

    # ------------------------------------------------------------------
    # fills and the writeback path
    # ------------------------------------------------------------------
    def _fill_flc(self, flc_addr: int) -> None:
        # Write-through FLC: victims are always clean, nothing to do.
        self.flc.insert(flc_addr, CLEAN_SHARED)

    def _fill_slc(self, slc_addr: int, proto_addr: int, dirty: bool) -> None:
        if dirty:
            state = DIRTY
        else:
            am_state = self.engine.ams[self.id].state_of(proto_addr)
            state = CLEAN_EXCLUSIVE if am_state.writable else CLEAN_SHARED
        victim = self.slc.insert(slc_addr, state)
        if victim is None:
            return
        # Inclusion: the FLC may not cache anything the SLC lost.
        flc_base = self._slc_to_flc_space(victim.block)
        for _ in self.flc.invalidate_span(flc_base, self.slc.block_size):
            pass
        if victim.state == DIRTY:
            self._write_back(victim.block)

    def _write_back(self, slc_block: int) -> None:
        """Send one dirty SLC block down to the attraction memory.  This
        is the traffic that hurts L2-TLB in the paper (writebacks have
        poor locality)."""
        self.counters.add("slc_writebacks")
        vaddr = slc_block if self._virtual_slc else self._to_virtual(slc_block)
        if self._at_l2 is not None:
            self._at_l2(self.id, vaddr >> self._page_bits, writeback=True)
        proto = vaddr if self._virtual_am else self._to_physical(vaddr)
        self.engine.writeback(self.id, proto, 0)

    def _slc_to_flc_space(self, slc_block: int) -> int:
        if self._virtual_flc == self._virtual_slc:
            return slc_block
        if self._virtual_flc:
            return self._to_virtual(slc_block)
        return self._to_physical(slc_block)

    def _proto_to_slc_space(self, proto_block: int) -> int:
        if self._virtual_slc == self._virtual_am:
            return proto_block
        if self._virtual_slc:
            return self._to_virtual(proto_block)
        return self._to_physical(proto_block)

    # ------------------------------------------------------------------
    # inclusion hook (called by the protocol engine)
    # ------------------------------------------------------------------
    def on_inclusion(self, proto_block: int, action: str) -> None:
        """Keep caches included when the local AM loses or downgrades a
        block (an AM block spans several SLC/FLC blocks)."""
        span = self.params.am_block
        slc_base = self._proto_to_slc_space(proto_block)
        if action == "invalidate":
            for _ in self.slc.invalidate_span(slc_base, span):
                # Dirty data travels with the AM block to its new owner;
                # no separate writeback crosses the translation point.
                pass
            flc_base = self._slc_to_flc_space(slc_base)
            for _ in self.flc.invalidate_span(flc_base, span):
                pass
            self.counters.add("inclusion_invalidations")
        elif action == "downgrade":
            for evicted in self.slc.downgrade_span(slc_base, span, CLEAN_SHARED):
                # Exclusive->Master-shared: dirty cache data drains to
                # the AM; in L2-TLB this traffic crosses the TLB.
                self._write_back_downgraded(evicted.block)
            self.counters.add("inclusion_downgrades")
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown inclusion action {action!r}")

    def _write_back_downgraded(self, slc_block: int) -> None:
        self.counters.add("slc_coherence_writebacks")
        vaddr = slc_block if self._virtual_slc else self._to_virtual(slc_block)
        if self._at_l2 is not None:
            self._at_l2(self.id, vaddr >> self._page_bits, writeback=True)
        proto = vaddr if self._virtual_am else self._to_physical(vaddr)
        self.engine.writeback(self.id, proto, 0)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Node({self.id}, {self.scheme.value})"
