"""MSI write-invalidate coherence for the CC-NUMA baseline.

Unlike the COMA-F engine there are no attraction memories: every block
has a *fixed* home memory, caches (the nodes' SLCs) hold the only
movable copies, and the home directory tracks which caches hold a block
and whether one of them owns it dirty.

The engine exposes the same surface the :class:`~repro.system.node.Node`
expects from the COMA engine (``fetch`` / ``upgrade_for_write`` /
``writeback`` / ``ams[node]`` ownership views / ``check_invariants``),
so the identical node and simulator code drives both architectures.

Timing (per paper Section 5.1 constants): a memory access costs the
attraction-memory latency (74 cycles — same DRAM), request/block
messages 16/272 cycles, and the directory ``directory_lookup_latency``;
the home-side :class:`~repro.coma.protocol.TranslationAgent` hook fires
on every home lookup, which is exactly the SHARED-TLB stream of paper
Figure 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.common.address import AddressLayout
from repro.common.errors import ProtocolError
from repro.common.params import MachineParams
from repro.common.stats import Counters
from repro.coma.protocol import AccessOutcome, InclusionHook, TranslationAgent
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.message import MessageKind


@dataclass
class CacheLineEntry:
    """Directory entry: which caches hold the block, who owns it dirty."""

    owner: Optional[int] = None  # node with the dirty/exclusive copy
    sharers: Set[int] = field(default_factory=set)

    @property
    def holders(self) -> Set[int]:
        if self.owner is None:
            return set(self.sharers)
        return self.sharers | {self.owner}


class _OwnershipView:
    """Node-side view of coherence state, shaped like an attraction
    memory for the bits :class:`~repro.system.node.Node` reads."""

    class _State:
        __slots__ = ("writable",)

        def __init__(self, writable: bool) -> None:
            self.writable = writable

    def __init__(self, engine: "NumaEngine", node: int) -> None:
        self._engine = engine
        self._node = node

    def state_of(self, addr: int) -> "_OwnershipView._State":
        block = self._engine.layout.block_base(addr)
        entry = self._engine._entries.get(block)
        writable = entry is not None and entry.owner == self._node
        return self._State(writable)


class NumaEngine:
    """Home-memory MSI coherence over fixed per-node memories."""

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
        self.inclusion_hook = inclusion_hook or (lambda node, block, action: None)
        self._entries: Dict[int, CacheLineEntry] = {}
        self.counters = Counters()
        self._translation_accum = 0
        self.ams: List[_OwnershipView] = [
            _OwnershipView(self, n) for n in range(params.nodes)
        ]

    # ------------------------------------------------------------------
    def home_of(self, addr: int) -> int:
        return self.layout.home_node(addr)

    def _entry(self, block: int) -> CacheLineEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = CacheLineEntry()
            self._entries[block] = entry
        return entry

    def _home_lookup(self, home: int, block: int, for_ownership: bool, requester: int) -> int:
        penalty = self.agent.at_home(
            home, self.layout.vpn(block), for_ownership, False, requester=requester
        )
        self._translation_accum += penalty
        return self.params.directory_lookup_latency + penalty

    # ------------------------------------------------------------------
    # demand path (Node-compatible surface)
    # ------------------------------------------------------------------
    def fetch(self, node: int, addr: int, is_write: bool, now: int) -> AccessOutcome:
        """SLC miss: get the block from its home memory (or the dirty
        owner's cache via the home)."""
        block = self.layout.block_base(addr)
        self._translation_accum = 0
        home = self.home_of(block)
        penalty = self.agent.at_l3(node, self.layout.vpn(block))
        self._translation_accum += penalty
        t = now + penalty
        remote = home != node
        kind = MessageKind.WRITE_REQUEST if is_write else MessageKind.READ_REQUEST
        t = self.crossbar.transfer(kind, node, home, t)
        t += self._home_lookup(home, block, is_write, node)
        entry = self._entry(block)

        if entry.owner is not None and entry.owner != node:
            # Dirty in another cache: home forwards; owner supplies and
            # writes back / downgrades.
            owner = entry.owner
            remote = True
            t = self.crossbar.transfer(MessageKind.FORWARD, home, owner, t)
            if is_write:
                self.inclusion_hook(owner, block, "invalidate")
                entry.owner = None
            else:
                # Ownership moves before the downgrade drains the old
                # owner's dirty lines, so their writebacks find a block
                # nobody owns.
                entry.owner = None
                entry.sharers.add(owner)
                self.inclusion_hook(owner, block, "downgrade")
            t = self.crossbar.transfer(MessageKind.BLOCK_REPLY, owner, node, t)
            self.counters.add("cache_to_cache")
        else:
            # Supplied by home memory.
            t += self.params.am_hit_latency
            t = self.crossbar.transfer(MessageKind.BLOCK_REPLY, home, node, t)
            self.counters.add("memory_supplies")

        if is_write:
            t = self._invalidate_sharers(entry, block, home, exclude=node, start=t)
            entry.owner = node
            entry.sharers.clear()
            self.counters.add("remote_writes" if remote else "local_writes")
        else:
            if entry.owner != node:
                entry.sharers.add(node)
            self.counters.add("remote_reads" if remote else "local_reads")
        cycles = t - now
        return AccessOutcome(cycles, home != node, self._translation_accum)

    def upgrade_for_write(self, node: int, addr: int, now: int) -> AccessOutcome:
        """Store hit on a clean-shared SLC line: gain ownership."""
        block = self.layout.block_base(addr)
        self._translation_accum = 0
        home = self.home_of(block)
        entry = self._entry(block)
        if entry.owner == node:
            return AccessOutcome(0, False)
        t = self.crossbar.transfer(MessageKind.UPGRADE_REQUEST, node, home, now)
        t += self._home_lookup(home, block, True, node)
        if entry.owner is not None and entry.owner != node:
            self.inclusion_hook(entry.owner, block, "invalidate")
            entry.owner = None
        t = self._invalidate_sharers(entry, block, home, exclude=node, start=t)
        t = self.crossbar.transfer(MessageKind.ACK, home, node, t)
        entry.owner = node
        entry.sharers.clear()
        self.counters.add("upgrades")
        return AccessOutcome(t - now, home != node, self._translation_accum)

    def writeback(self, node: int, addr: int, now: int) -> None:
        """Dirty SLC eviction: the line returns to its home memory (no
        processor stall; write buffers)."""
        block = self.layout.block_base(addr)
        home = self.home_of(block)
        entry = self._entry(block)
        if entry.owner is not None and entry.owner != node:
            # Another node's ownership would have invalidated our SLC
            # copy first; a dirty line here is a protocol bug.
            raise ProtocolError(
                f"node {node}: NUMA writeback of {block:#x} owned by {entry.owner}"
            )
        if entry.owner == node:
            # Several SLC lines live inside one coherence block.  The
            # whole block goes home with this writeback, so the writer
            # drops its other lines of it: a node that is neither owner
            # nor sharer must not keep a dirty line the next writer's
            # invalidations would miss.
            entry.owner = None
            self.inclusion_hook(node, block, "invalidate")
        self.crossbar.transfer(MessageKind.INJECT, node, home, now)
        self.counters.add("writebacks_to_memory")

    # ------------------------------------------------------------------
    def _invalidate_sharers(self, entry: CacheLineEntry, block: int, home: int, exclude: int, start: int) -> int:
        sharers = [s for s in entry.sharers if s != exclude]
        done = start
        for sharer in sharers:
            arrive = self.crossbar.transfer(MessageKind.INVALIDATE, home, sharer, start)
            self.inclusion_hook(sharer, block, "invalidate")
            ack = self.crossbar.transfer(MessageKind.ACK, sharer, home, arrive)
            done = max(done, ack)
        entry.sharers.difference_update(sharers)
        self.counters.add("invalidations", len(sharers))
        return done

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Directory self-consistency (owner never also a sharer)."""
        for block, entry in self._entries.items():
            if entry.owner is not None and entry.owner in entry.sharers:
                raise ProtocolError(
                    f"NUMA block {block:#x}: owner {entry.owner} also a sharer"
                )
