"""Coherence states and directory entries (paper Section 4.2).

Each attraction-memory block is in one of four stable states:

``INVALID``
    The slot holds no valid copy.
``SHARED``
    A read-only replica; it may be dropped silently on replacement
    (after notifying the directory).
``MASTER_SHARED``
    The *master* copy while other Shared replicas may exist.  Exactly
    one master exists per block system-wide; replacing it requires
    injection so the data is never lost.
``EXCLUSIVE``
    The only copy, writable.  Also a master for replacement purposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set


class AMState(enum.IntEnum):
    INVALID = 0
    SHARED = 1
    MASTER_SHARED = 2
    EXCLUSIVE = 3

    @property
    def is_master(self) -> bool:
        """Master copies must be injected, not dropped, on replacement."""
        return self in (AMState.MASTER_SHARED, AMState.EXCLUSIVE)

    @property
    def readable(self) -> bool:
        return self is not AMState.INVALID

    @property
    def writable(self) -> bool:
        return self is AMState.EXCLUSIVE


@dataclass
class DirectoryEntry:
    """Home-node bookkeeping for one memory block.

    ``owner`` is the node holding the master copy; ``sharers`` holds the
    nodes with Shared replicas (never including the owner).
    """

    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)

    @property
    def holders(self) -> Set[int]:
        """Every node with a valid copy."""
        if self.owner is None:
            return set(self.sharers)
        return self.sharers | {self.owner}

    def check(self) -> None:
        """Internal-consistency assertion (used by tests and the
        protocol's paranoid mode)."""
        if self.owner is not None and self.owner in self.sharers:
            raise AssertionError(f"owner {self.owner} also listed as sharer")
