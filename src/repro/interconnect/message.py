"""Protocol message vocabulary.

The simulator charges each message's latency through
:class:`~repro.interconnect.crossbar.Crossbar` and counts it in
per-kind statistics; no message objects are kept (the
trace-interleaved engine processes each transaction to completion).
"""

from __future__ import annotations

import enum


class MessageKind(enum.Enum):
    """Kinds of protocol messages, grouped by payload size.

    ``REQUEST``-sized messages carry an address (8 bytes on the wire);
    ``BLOCK``-sized messages carry an attraction-memory block.
    """

    READ_REQUEST = "read_request"
    WRITE_REQUEST = "write_request"
    UPGRADE_REQUEST = "upgrade_request"
    FORWARD = "forward"
    INVALIDATE = "invalidate"
    ACK = "ack"
    SHARER_DROP = "sharer_drop"
    BLOCK_REPLY = "block_reply"
    INJECT = "inject"
    INJECT_FORWARD = "inject_forward"

    @property
    def carries_block(self) -> bool:
        return self in _BLOCK_KINDS


#: Block-payload kinds, as a set so ``carries_block`` is one hash probe
#: (it runs once or twice per simulated message).
_BLOCK_KINDS = frozenset(
    (MessageKind.BLOCK_REPLY, MessageKind.INJECT, MessageKind.INJECT_FORWARD)
)

# Dense per-kind index for table lookups on the transfer hot path:
# list indexing via ``kind.index`` skips Enum.__hash__ (a Python-level
# method) on every simulated message.
for _i, _kind in enumerate(MessageKind):
    _kind.index = _i

#: Wire names in ``index`` order (``KIND_VALUES[kind.index] == kind.value``).
KIND_VALUES = tuple(kind.value for kind in MessageKind)
