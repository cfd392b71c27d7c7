"""The COMA-F write-invalidate coherence protocol (paper Section 4.2).

The engine owns every node's attraction memory and directory and
processes each transaction to completion (the trace-interleaved
simulator serializes transactions, so no transient states are needed).

Timing model (processor cycles), following Section 5.1:

* attraction-memory access (hit or miss detection): ``am_hit_latency``
  (74 in the paper);
* any address-sized message between distinct nodes:
  ``request_msg_cycles`` (16);
* any block-carrying message: ``block_msg_cycles`` (272);
* directory access: ``directory_lookup_latency``, plus whatever the
  :class:`TranslationAgent` charges (V-COMA's DLB miss costs the same 40
  cycles as a TLB miss);
* invalidations are multicast and overlapped: the requester waits for
  the slowest invalidate/ack round trip.

Replacement messages (injections, sharer drops) are buffered by the
node's protocol hardware and charged to the network but **not** to the
requesting processor's stall time, matching the paper's accounting where
only processor stalls on local/remote accesses appear.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.common.address import AddressLayout
from repro.common.errors import CapacityError, ProtocolError
from repro.common.params import MachineParams
from repro.common.stats import Counters
from repro.coma.attraction import AttractionMemory
from repro.coma.directory import Directory
from repro.coma.states import AMState
from repro.core.schemes import TapPoint
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.message import MessageKind

#: Hook asking a node to keep its caches included: ``(node, block_base,
#: action)`` with action ``"invalidate"`` or ``"downgrade"``.  The node
#: flushes/downgrades every FLC/SLC block inside the AM block.
InclusionHook = Callable[[int, int, str], None]


def _transaction_emitter(trace, name: str):
    return trace.span_emitter(
        name,
        ("node", "write", "block", "home"),
        ("remote", "translation"),
        bools=("write", "remote"),
    )


def fetch_emitter(trace):
    """The packed "protocol.fetch" span: ``begin(t0, node, write, block,
    home)`` and ``end(t1, remote, translation)``.  Shared with the
    compiled engine, which writes the same records, as it does for the
    three shapes below."""
    return _transaction_emitter(trace, "protocol.fetch")


def upgrade_emitter(trace):
    """The packed "protocol.upgrade" span, laid out as the fetch span."""
    return _transaction_emitter(trace, "protocol.upgrade")


def invalidate_emitter(trace):
    """The packed invalidation: ``emit(t, node, block, home)``."""
    return trace.event_emitter("protocol.invalidate", ("node", "block", "home"))


def inject_emitter(trace):
    """The packed master injection: ``emit(t, node, block, home, state)``."""
    return trace.event_emitter(
        "protocol.inject",
        ("node", "block", "home", "state"),
        enums={"state": tuple(state.name for state in AMState)},
    )


class TranslationAgent:
    """Where (and at what cost) addresses get translated.

    The base class is a no-op: no tap recording, no stall.  Concrete
    agents (``repro.system.taps``) either feed TLB banks for the sweep
    experiments or charge real TLB/DLB models for the timing runs.
    Every method returns extra stall cycles.
    """

    #: Optional :class:`~repro.obs.trace.Tracer`.  Concrete agents emit
    #: translation events (``tlb_hit``/``dlb_fill``/...) when attached;
    #: the base class never reads it.
    trace = None

    def attach_trace(self, trace) -> None:
        """Attach a tracer (overridden by agents that emit events)."""
        self.trace = trace

    def uses_tap(self, tap: TapPoint) -> bool:
        """Does this agent do anything at ``tap``?

        Callers on the per-reference hot path (``Node``, the engine)
        query this once at construction and skip the ``at_*`` call
        entirely when it would be a no-op.  Agents whose taps are all
        no-ops anyway (the base class) still answer True — correctness
        never depends on a tap being called, only timing agents charge
        cycles and they answer precisely.
        """
        return True

    def at_l0(self, node: int, vpn: int) -> int:
        return 0

    def at_l1(self, node: int, vpn: int) -> int:
        return 0

    def at_l2(self, node: int, vpn: int, writeback: bool = False) -> int:
        return 0

    def at_l3(self, node: int, vpn: int) -> int:
        return 0

    def at_home(
        self,
        home: int,
        vpn: int,
        for_ownership: bool = False,
        injection: bool = False,
        requester: Optional[int] = None,
    ) -> int:
        return 0

    # -- what a run summary reads ---------------------------------------
    def timing(self) -> Optional[Dict[str, float]]:
        """The TLB/DLB totals of an agent that charges a real buffer
        (:class:`~repro.system.taps.TimingAgent`); None here."""
        return None

    def study(self):
        """The miss sweep of an agent that feeds TLB banks
        (:class:`~repro.system.taps.StudyAgent`); None here."""
        return None


class AccessOutcome(NamedTuple):
    """Result of one block access through the protocol.

    ``translation`` is the portion of ``cycles`` spent on address
    translation (L3 TLB / home DLB misses), reported separately so the
    caller can attribute it to translation stall rather than memory
    stall (the split Table 4 of the paper depends on).
    """

    cycles: int
    remote: bool
    translation: int = 0


class ProtocolEngine:
    """Machine-wide coherence: attraction memories + directories."""

    def __init__(
        self,
        params: MachineParams,
        layout: AddressLayout,
        crossbar: Crossbar,
        agent: Optional[TranslationAgent] = None,
        inclusion_hook: Optional[InclusionHook] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.params = params
        self.layout = layout
        self.crossbar = crossbar
        self.agent = agent if agent is not None else TranslationAgent()
        # Pre-resolve the engine-side taps; None means the agent declared
        # the tap a no-op, so the hot paths skip the call outright.
        self._at_l3 = self.agent.at_l3 if self.agent.uses_tap(TapPoint.L3) else None
        self._at_home = self.agent.at_home if self.agent.uses_tap(TapPoint.HOME) else None
        self.inclusion_hook = inclusion_hook or (lambda node, block, action: None)
        self._rng = rng if rng is not None else random.Random(params.seed)
        self.ams: List[AttractionMemory] = [
            AttractionMemory(layout, params.am_assoc, node=n) for n in range(params.nodes)
        ]
        self.directories: List[Directory] = [Directory(n) for n in range(params.nodes)]
        self.counters = Counters()
        self._trace = None
        self._em_fetch = None
        self._em_upgrade = None
        self._em_invalidate = None
        self._em_inject = None
        # Demand entry points are rebound on trace attachment (see the
        # ``trace`` setter): the untraced hot path — one call per SLC
        # miss / write upgrade in the sweep inner loop — jumps straight
        # to the implementation with no per-transaction is-None check.
        self.fetch = self._fetch
        self.upgrade_for_write = self._upgrade_for_write
        # Translation cycles of the transaction in flight (reported via
        # AccessOutcome.translation; reset by the demand entry points).
        self._translation_accum = 0

    @property
    def trace(self):
        """Optional :class:`~repro.obs.trace.Tracer` (set by the
        machine).  When attached, every demand transaction becomes a
        span and injections/invalidations become events; when None the
        demand path pays one pointer check.  Attaching hoists packed
        emitters for the per-transaction record shapes."""
        return self._trace

    @trace.setter
    def trace(self, tracer) -> None:
        self._trace = tracer
        if tracer is None:
            self._em_fetch = self._em_upgrade = None
            self._em_invalidate = self._em_inject = None
            self.fetch = self._fetch
            self.upgrade_for_write = self._upgrade_for_write
            return
        self._em_fetch = fetch_emitter(tracer)
        self._em_upgrade = upgrade_emitter(tracer)
        self._em_invalidate = invalidate_emitter(tracer)
        self._em_inject = inject_emitter(tracer)
        self.fetch = self._traced_fetch
        self.upgrade_for_write = self._traced_upgrade_for_write

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def home_of(self, addr: int) -> int:
        """Home node: low ``p`` bits of the page number.  Holds for both
        virtual addresses (V-COMA/L3) and our physical layout (PFNs go
        out round robin, so the same field selects the home)."""
        return self.layout.home_node(addr)

    def _vpn(self, addr: int) -> int:
        return self.layout.vpn(addr)

    def _dir_lookup_cycles(
        self,
        home: int,
        addr: int,
        for_ownership: bool,
        injection: bool = False,
        *,
        requester: int,
    ) -> int:
        at_home = self._at_home
        if at_home is None:
            return self.params.directory_lookup_latency
        penalty = at_home(home, self._vpn(addr), for_ownership, injection, requester=requester)
        if not injection:
            self._translation_accum += penalty
        return self.params.directory_lookup_latency + penalty

    # ------------------------------------------------------------------
    # demand path (called by nodes on SLC misses / write upgrades)
    # ------------------------------------------------------------------
    def _traced_fetch(self, node: int, addr: int, is_write: bool, now: int) -> AccessOutcome:
        """``fetch`` with the transaction wrapped in a trace span.
        ``fetch``/``upgrade_for_write`` are instance attributes bound by
        the ``trace`` setter — untraced engines dispatch straight to
        ``_fetch``/``_upgrade_for_write``; traced engines come here."""
        return self._traced(self._fetch, self._em_fetch, node, addr, is_write, now)

    def _fetch(self, node: int, addr: int, is_write: bool, now: int) -> AccessOutcome:
        """Satisfy an SLC miss at ``node`` for the block holding
        ``addr``; guarantees the local AM ends with a readable copy
        (EXCLUSIVE when ``is_write``).  Reached as ``engine.fetch`` on
        untraced engines."""
        block = self.layout.block_base(addr)
        self._translation_accum = 0
        state = self.ams[node].lookup(block)
        if state.readable:
            if not is_write or state.writable:
                self.counters.add("am_local_hits")
                return AccessOutcome(self.params.am_hit_latency, False)
            cycles = self.params.am_hit_latency + self._upgrade(node, block, now)
            return AccessOutcome(cycles, True, self._translation_accum)
        cycles = self.params.am_hit_latency + self._remote_fetch(node, block, is_write, now)
        return AccessOutcome(cycles, True, self._translation_accum)

    def _traced_upgrade_for_write(self, node: int, addr: int, now: int) -> AccessOutcome:
        """``upgrade_for_write`` wrapped in a trace span (see
        :meth:`_traced_fetch` for the dispatch scheme)."""
        return self._traced(
            self._upgrade_for_write, self._em_upgrade, node, addr, True, now
        )

    def _traced(self, entry_point, emitters, node, addr, is_write, now) -> AccessOutcome:
        """Run one demand transaction inside a (packed) trace span."""
        begin, end = emitters
        block = self.layout.block_base(addr)
        begin(now, node, bool(is_write), block, self.home_of(block))
        if emitters is self._em_fetch:
            outcome = entry_point(node, addr, is_write, now)
        else:
            outcome = entry_point(node, addr, now)
        end(now + outcome.cycles, outcome.remote, outcome.translation)
        return outcome

    def _upgrade_for_write(self, node: int, addr: int, now: int) -> AccessOutcome:
        """A store hit a clean-shared SLC block: the AM must gain
        exclusive ownership.  (If the AM already owns it exclusively the
        access completes locally.)  Reached as ``engine.upgrade_for_write``
        on untraced engines."""
        block = self.layout.block_base(addr)
        self._translation_accum = 0
        state = self.ams[node].lookup(block)
        if state is AMState.INVALID:
            # SLC held the block but the AM does not — inclusion bug.
            raise ProtocolError(
                f"node {node}: SLC/AM inclusion violated for block {block:#x}"
            )
        if state.writable:
            self.counters.add("am_local_hits")
            return AccessOutcome(self.params.am_hit_latency, False)
        cycles = self.params.am_hit_latency + self._upgrade(node, block, now)
        return AccessOutcome(cycles, True, self._translation_accum)

    def writeback(self, node: int, addr: int, now: int) -> None:
        """A dirty SLC block is written back into the local AM.

        Inclusion guarantees the AM holds the block; dirtiness implies
        the AM owns it exclusively.  No stall (write buffers)."""
        block = self.layout.block_base(addr)
        state = self.ams[node].state_of(block)
        if not state.is_master:
            # Dirty data may also drain during an Exclusive->Master-shared
            # downgrade, hence masters generally (not only EXCLUSIVE).
            raise ProtocolError(
                f"node {node}: writeback of {block:#x} but AM state is {state.name}"
            )
        self.counters.add("slc_writebacks_to_am")

    # ------------------------------------------------------------------
    # remote transactions
    # ------------------------------------------------------------------
    def _remote_fetch(self, node: int, block: int, is_write: bool, now: int) -> int:
        """Fetch a block copy from the system; returns stall cycles
        beyond the local AM lookup."""
        self.counters.add("remote_writes" if is_write else "remote_reads")
        at_l3 = self._at_l3
        penalty = at_l3(node, self._vpn(block)) if at_l3 is not None else 0
        self._translation_accum += penalty
        home = self.home_of(block)
        t = now + penalty
        kind = MessageKind.WRITE_REQUEST if is_write else MessageKind.READ_REQUEST
        t = self.crossbar.transfer(kind, node, home, t)
        t += self._dir_lookup_cycles(home, block, for_ownership=is_write, requester=node)
        entry = self.directories[home].entry(block)
        owner = entry.owner
        if owner is None:
            raise ProtocolError(f"block {block:#x} has no master copy (home {home})")
        if owner == node:
            raise ProtocolError(f"node {node} missed on block {block:#x} it is master of")

        if is_write:
            t = self._invalidate_holders(entry, block, home, exclude=node, start=t)
            supplier = owner
            if supplier == home:
                t += self.params.am_hit_latency
            else:
                t = self.crossbar.transfer(MessageKind.FORWARD, home, supplier, t)
                t += self.params.am_hit_latency
            # The supplier's copy was already removed by the
            # invalidation round (owner included).
            t = self.crossbar.transfer(MessageKind.BLOCK_REPLY, supplier, node, t)
            self._make_room(node, block, now)
            self.ams[node].install(block, AMState.EXCLUSIVE)
            entry.owner = node
            entry.sharers.clear()
        else:
            supplier = owner
            if supplier == home:
                t += self.params.am_hit_latency
            else:
                t = self.crossbar.transfer(MessageKind.FORWARD, home, supplier, t)
                t += self.params.am_hit_latency
            # The master keeps its copy but can no longer be Exclusive.
            if self.ams[supplier].state_of(block) is AMState.EXCLUSIVE:
                self.ams[supplier].set_state(block, AMState.MASTER_SHARED)
                self.inclusion_hook(supplier, block, "downgrade")
            t = self.crossbar.transfer(MessageKind.BLOCK_REPLY, supplier, node, t)
            self._make_room(node, block, now)
            self.ams[node].install(block, AMState.SHARED)
            entry.sharers.add(node)
        return t - now

    def _upgrade(self, node: int, block: int, now: int) -> int:
        """Gain exclusive ownership of a block the node already holds
        (Shared or Master-shared); returns stall cycles."""
        self.counters.add("upgrades")
        at_l3 = self._at_l3
        penalty = at_l3(node, self._vpn(block)) if at_l3 is not None else 0
        self._translation_accum += penalty
        home = self.home_of(block)
        t = now + penalty
        t = self.crossbar.transfer(MessageKind.UPGRADE_REQUEST, node, home, t)
        t += self._dir_lookup_cycles(home, block, for_ownership=True, requester=node)
        entry = self.directories[home].entry(block)
        if entry.owner is None:
            raise ProtocolError(f"upgrade of {block:#x}: no master copy")
        t = self._invalidate_holders(entry, block, home, exclude=node, start=t)
        t = self.crossbar.transfer(MessageKind.ACK, home, node, t)
        entry.owner = node
        entry.sharers.clear()
        self.ams[node].set_state(block, AMState.EXCLUSIVE)
        return t - now

    def _invalidate_holders(self, entry, block: int, home: int, exclude: int, start: int) -> int:
        """Invalidate every copy except ``exclude``'s; returns the time
        the slowest ack reaches home (overlapped multicast)."""
        # Ascending node order, as fastsim.c walks them: under port
        # contention the acks queue at the home's port, so their order
        # is timing (a set's iteration order is not ascending past 8
        # nodes).
        holders = sorted(n for n in entry.holders if n != exclude)
        done = start
        emit = self._em_invalidate
        for holder in holders:
            arrive = self.crossbar.transfer(MessageKind.INVALIDATE, home, holder, start)
            self._invalidate_copy(holder, block)
            ack = self.crossbar.transfer(MessageKind.ACK, holder, home, arrive)
            done = max(done, ack)
            if emit is not None:
                emit(arrive, holder, block, home)
        entry.sharers.difference_update(holders)
        if entry.owner in holders:
            entry.owner = None
        self.counters.add("invalidations", len(holders))
        return done

    def _invalidate_copy(self, node: int, block: int) -> None:
        victim = self.ams[node].invalidate(block)
        if victim is not None:
            self.inclusion_hook(node, block, "invalidate")

    # ------------------------------------------------------------------
    # replacement path
    # ------------------------------------------------------------------
    def _make_room(self, node: int, block: int, now: int) -> None:
        """Ensure the AM set ``block`` maps to at ``node`` has a free
        way, evicting (and possibly injecting) a victim."""
        victim = self.ams[node].choose_victim(block)
        if victim is None:
            return
        self.ams[node].evict(victim.block)
        self.inclusion_hook(node, victim.block, "invalidate")
        if victim.state is AMState.SHARED:
            home = self.home_of(victim.block)
            self.crossbar.transfer(MessageKind.SHARER_DROP, node, home, now)
            self.directories[home].drop_sharer(victim.block, node)
            self.counters.add("sharer_drops")
        else:
            self._inject(node, victim.block, victim.state, now)

    def _inject(self, src: int, block: int, state: AMState, now: int) -> None:
        """Send a replaced master copy toward its home (paper §4.2).

        The home accepts only into an Invalid slot; other nodes accept
        into an Invalid slot or by dropping a Shared replica.  The other
        nodes are tried in random order; if no node can take the master
        the global set is over-committed and :class:`CapacityError` is
        raised."""
        self.counters.add("injections")
        home = self.home_of(block)
        if self._em_inject is not None:
            self._em_inject(now, src, block, home, int(state))
        t = self.crossbar.transfer(MessageKind.INJECT, src, home, now)
        t += self._dir_lookup_cycles(home, block, for_ownership=False, injection=True, requester=src)
        entry = self.directories[home].entry(block)

        if home != src and self._accept_injection(home, block, state, entry, home_rules=True):
            return
        candidates = [n for n in range(self.params.nodes) if n != src and n != home]
        self._rng.shuffle(candidates)
        previous = home
        for target in candidates:
            t = self.crossbar.transfer(MessageKind.INJECT_FORWARD, previous, target, t)
            self.counters.add("inject_forwards")
            previous = target
            if self._accept_injection(target, block, state, entry, home_rules=False):
                return
        raise CapacityError(
            f"no node could accept injected master of block {block:#x} "
            f"(global set over-committed; reduce data set or memory pressure)"
        )

    def _accept_injection(self, target: int, block: int, state: AMState, entry, home_rules: bool) -> bool:
        am = self.ams[target]
        resident = am.state_of(block)
        if resident is AMState.SHARED:
            # Merge the master into an existing replica.
            am.set_state(block, state if state is AMState.MASTER_SHARED else AMState.MASTER_SHARED)
            entry.sharers.discard(target)
            entry.owner = target
            self.counters.add("inject_merges")
            return True
        if am.has_invalid_slot(block):
            am.install(block, state)
            entry.owner = target
            return True
        if home_rules:
            return False
        dropped = am.droppable_victim(block)
        if dropped is None:
            return False
        am.evict(dropped.block)
        self.inclusion_hook(target, dropped.block, "invalidate")
        victim_home = self.home_of(dropped.block)
        self.directories[victim_home].drop_sharer(dropped.block, target)
        self.counters.add("inject_displacements")
        am.install(block, state)
        entry.owner = target
        return True

    # ------------------------------------------------------------------
    # preload (paper: data sets are preloaded; no paging simulated)
    # ------------------------------------------------------------------
    def preload_block(self, block: int) -> int:
        """Install the initial master copy of a block, at its home when
        possible, else spread to the nearest node with a free slot.
        Returns the node that received the master."""
        home = self.home_of(block)
        entry = self.directories[home].entry(block)
        if entry.owner is not None:
            return entry.owner
        for offset in range(self.params.nodes):
            target = (home + offset) % self.params.nodes
            if self.ams[target].has_invalid_slot(block):
                self.ams[target].install(block, AMState.MASTER_SHARED)
                entry.owner = target
                return target
        raise CapacityError(
            f"preload: no free slot anywhere for block {block:#x} "
            f"(data set exceeds attraction-memory capacity in its global set)"
        )

    # ------------------------------------------------------------------
    # invariant checking (tests / paranoid mode)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the directory and the AMs agree.  O(resident blocks);
        meant for tests, not inner loops."""
        seen_masters = {}
        for node, am in enumerate(self.ams):
            for block, state in am.resident_blocks():
                if state.is_master:
                    if block in seen_masters:
                        raise ProtocolError(
                            f"two masters for {block:#x}: nodes "
                            f"{seen_masters[block]} and {node}"
                        )
                    seen_masters[block] = node
                home = self.home_of(block)
                entry = self.directories[home].peek(block)
                if entry is None:
                    raise ProtocolError(f"{block:#x} resident but no directory entry")
                if state is AMState.SHARED and node not in entry.sharers:
                    raise ProtocolError(
                        f"{block:#x} shared at {node} but not in sharer set"
                    )
                if state.is_master and entry.owner != node:
                    raise ProtocolError(
                        f"{block:#x} master at {node} but directory says {entry.owner}"
                    )
                if state is AMState.EXCLUSIVE and entry.sharers:
                    raise ProtocolError(
                        f"{block:#x} exclusive at {node} but sharers {entry.sharers}"
                    )
        for home, directory in enumerate(self.directories):
            for block, entry in directory.blocks():
                entry.check()
                if entry.owner is not None and seen_masters.get(block) != entry.owner:
                    raise ProtocolError(
                        f"directory {home}: owner {entry.owner} of {block:#x} "
                        f"holds no master copy"
                    )
                for sharer in entry.sharers:
                    if self.ams[sharer].state_of(block) is not AMState.SHARED:
                        raise ProtocolError(
                            f"directory {home}: sharer {sharer} of {block:#x} "
                            f"holds no shared copy"
                        )
