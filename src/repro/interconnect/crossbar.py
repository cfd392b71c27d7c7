"""Crossbar timing model (paper Section 5.1).

The network is an 8-bit-wide crossbar clocked at half the processor
frequency.  With the paper's parameters an 8-byte request costs 16
processor cycles and a 128-byte-block message costs 272; both numbers are
derived from the geometry in :class:`~repro.common.params.MachineParams`
so scaled configurations stay self-consistent.

Two operating modes:

* **latency-only** (default, the paper's model): a transfer between
  distinct nodes costs its size-class latency; node-local transfers are
  free.
* **port contention** (optional): each node's input port serializes
  deliveries — a transfer completes no earlier than the port is free,
  and occupies it for the transfer duration.
"""

from __future__ import annotations

from typing import List

from repro.common.params import MachineParams
from repro.common.stats import Counters
from repro.interconnect.message import KIND_VALUES, MessageKind


def msg_emitter(trace):
    """The packed "msg" event: ``emit(t, kind, src, dst, cycles)``.
    Shared with the compiled engine, which writes the same records."""
    return trace.event_emitter(
        "msg", ("msg", "src", "dst", "cycles"), enums={"msg": KIND_VALUES}
    )


class Crossbar:
    """Charges message latencies and counts traffic.

    Every pair of distinct nodes is one hop apart, so a message's
    latency depends only on its size class.
    """

    def __init__(self, params: MachineParams, contention: bool = False) -> None:
        self.params = params
        self.contention = contention
        self.counters = Counters()
        self._port_free_at: List[int] = [0] * params.nodes
        # Per-kind (counter name, base cycles, payload bytes), fixed by
        # the geometry — transfer() is on every message's path and must
        # not rebuild strings or re-derive sizes.  Indexed by
        # ``kind.index`` (plain list lookup, no Enum hashing).
        self._kind_info = []
        for kind in MessageKind:
            if kind.carries_block:
                base = params.block_msg_cycles
                payload = params.am_block + params.message_header_bytes
            else:
                base = params.request_msg_cycles
                payload = params.request_payload_bytes
            self._kind_info.append((f"msg_{kind.value}", base, payload))
        self._counter_values = self.counters._values
        self._trace = None
        # Packed "msg" emitter, hoisted once when a tracer attaches so
        # transfer() pays one attribute test when tracing is off and no
        # per-event dict when it is on.
        self._emit_msg = None

    @property
    def trace(self):
        """Optional :class:`~repro.obs.trace.Tracer` (set by the
        machine); every transfer becomes a "msg" event when attached."""
        return self._trace

    @trace.setter
    def trace(self, tracer) -> None:
        self._trace = tracer
        if tracer is None:
            self._emit_msg = None
        else:
            self._emit_msg = msg_emitter(tracer)

    def transfer(self, kind: MessageKind, src: int, dst: int, now: int) -> int:
        """Deliver one message starting at processor cycle ``now``.

        Returns the completion time.  Local (``src == dst``) transfers
        are free and bypass the port model.  ``fastsim.c::xfer`` mirrors
        this method, down to creating ``contention_cycles`` only when a
        transfer waits; an edit to one must update the other.
        """
        values = self._counter_values
        kind_ix = kind.index
        name, cycles, payload = self._kind_info[kind_ix]
        values[name] = values.get(name, 0) + 1
        emit = self._emit_msg
        if src == dst:
            values["msg_local"] = values.get("msg_local", 0) + 1
            if emit is not None:
                emit(now, kind_ix, src, dst, 0)
            return now
        values["msg_remote"] = values.get("msg_remote", 0) + 1
        values["network_cycles"] = values.get("network_cycles", 0) + cycles
        values["payload_bytes"] = values.get("payload_bytes", 0) + payload
        if emit is not None:
            # The charged latency rides on the event so a trace alone
            # reconciles against the network_cycles counter.
            emit(now, kind_ix, src, dst, cycles)
        if not self.contention:
            return now + cycles
        start = max(now, self._port_free_at[dst])
        done = start + cycles
        self._port_free_at[dst] = done
        if start > now:
            values["contention_cycles"] = values.get("contention_cycles", 0) + (start - now)
        return done
