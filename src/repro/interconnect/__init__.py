"""Interconnect substrate: the paper's 8-bit, 100 MHz crossbar.

Message costs follow Section 5.1: an 8-byte request takes 16 processor
cycles and a message carrying an attraction-memory block takes 272.  The
:class:`Crossbar` also offers optional output-port serialization so that
heavily-targeted nodes see queueing (off by default — the paper's model
is latency-only).
"""

from repro.interconnect.crossbar import Crossbar
from repro.interconnect.message import MessageKind

__all__ = [
    "Crossbar",
    "MessageKind",
]
