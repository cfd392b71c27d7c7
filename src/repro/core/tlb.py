"""TLB and DLB hardware models.

A :class:`TranslationBuffer` caches page-granularity translations.  It is
agnostic about *what* the translation maps to — for the L0-L3 TLBs it
stands for virtual-to-physical page mappings, for V-COMA's DLB it stands
for virtual-page-to-directory-page mappings.  What the paper measures is
the hit/miss behaviour, which only depends on the stream of page numbers,
the capacity, the organization, and the (random) replacement policy.

:class:`TranslationBank` feeds one access stream into many buffers of
different sizes/organizations at once; this is what makes regenerating
Figure 8 and Figure 9 cheap (one hierarchy simulation, all TLB sizes).
"""

from __future__ import annotations

import enum
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng


class Organization(enum.Enum):
    """TLB/DLB lookup organization."""

    FULLY_ASSOCIATIVE = "fa"
    SET_ASSOCIATIVE = "sa"
    DIRECT_MAPPED = "dm"

    @property
    def suffix(self) -> str:
        """The paper's notation suffix (``/DM`` for direct mapped)."""
        return {"fa": "", "sa": "/SA", "dm": "/DM"}[self.value]


class TranslationBuffer:
    """A TLB or DLB: a cache of page-number translations.

    Parameters
    ----------
    entries:
        Total number of entries (power of two).
    organization:
        Fully associative (paper default), direct mapped, or set
        associative with ``assoc`` ways.
    assoc:
        Ways per set; required iff ``organization`` is set-associative.
    rng:
        Source for random replacement (the paper's policy).  A fresh
        deterministic stream is created when omitted.
    """

    __slots__ = (
        "entries",
        "organization",
        "assoc",
        "sets",
        "_rng",
        "_getrandbits",
        "_assoc_bits",
        "_tags",
        "_where",
        "accesses",
        "misses",
        "trace_hook",
    )

    def __init__(
        self,
        entries: int,
        organization: Organization = Organization.FULLY_ASSOCIATIVE,
        assoc: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(f"entries={entries} must be a positive power of two")
        if organization is Organization.FULLY_ASSOCIATIVE:
            assoc = entries
        elif organization is Organization.DIRECT_MAPPED:
            assoc = 1
        else:
            if assoc is None or assoc <= 0 or entries % assoc:
                raise ConfigurationError(
                    "set-associative buffers need assoc dividing entries"
                )
        self.entries = entries
        self.organization = organization
        self.assoc = assoc
        self.sets = entries // assoc
        self._rng = rng if rng is not None else make_rng(0, "tlb", entries, organization.value)
        # Victim selection inlines random.Random._randbelow (rejection
        # sampling over bit_length bits), so the drawn stream — and
        # therefore every miss count — is identical to randrange's.
        self._getrandbits = self._rng.getrandbits
        self._assoc_bits = assoc.bit_length()
        # One list of tags per set; position in the list is the way.
        self._tags: List[List[int]] = [[] for _ in range(self.sets)]
        # The resident pages, for the hit check.
        self._where: Set[int] = set()
        self.accesses = 0
        self.misses = 0
        #: Optional ``(page, hit)`` observer fired by :meth:`access`
        #: (tracing).  The :class:`TranslationBank` fan-out bypasses it —
        #: sweep banks are measurement instruments, not machine state.
        self.trace_hook = None

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def valid_entries(self) -> int:
        return len(self._where)

    def contains(self, page: int) -> bool:
        """True iff the page's translation is currently cached (no
        statistics side effects)."""
        return page in self._where

    def access(self, page: int) -> bool:
        """Look up ``page``; on a miss, install it (evicting a random
        victim if the set is full).  Returns True on a hit."""
        self.accesses += 1
        hit = page in self._where
        if not hit:
            self._install(page)
        if self.trace_hook is not None:
            self.trace_hook(page, hit)
        return hit

    def _install(self, page: int) -> None:
        """Miss path: count the miss and install the translation,
        evicting a random victim when the set is full.  Split out so the
        :class:`TranslationBank` fan-out can inline the (dominant) hit
        check without duplicating replacement logic."""
        where = self._where
        self.misses += 1
        set_idx = page % self.sets
        ways = self._tags[set_idx]
        if len(ways) < self.assoc:
            ways.append(page)
        else:
            assoc = self.assoc
            if assoc > 1:
                getrandbits = self._getrandbits
                bits = self._assoc_bits
                way = getrandbits(bits)
                while way >= assoc:
                    way = getrandbits(bits)
            else:
                way = 0
            where.remove(ways[way])
            ways[way] = page
        where.add(page)

    def __repr__(self) -> str:
        return (
            f"TranslationBuffer(entries={self.entries}, "
            f"org={self.organization.value}, misses={self.misses}/{self.accesses})"
        )


class TranslationBank:
    """A set of buffers that all observe the same access stream.

    Used by the sweep experiments: one simulated reference stream is fed
    to every (size, organization) point of Figures 8 and 9
    simultaneously.
    """

    #: Ways used for SET_ASSOCIATIVE bank members (capped by entries).
    SET_ASSOC_WAYS = 4

    __slots__ = ("buffers", "_fanout", "accesses")

    def __init__(self, configs: Iterable[Tuple[int, Organization]], seed: int = 0, name: str = "bank") -> None:
        self.buffers: Dict[Tuple[int, Organization], TranslationBuffer] = {}
        for entries, organization in configs:
            key = (entries, organization)
            if key in self.buffers:
                continue
            assoc = None
            if organization is Organization.SET_ASSOCIATIVE:
                assoc = min(self.SET_ASSOC_WAYS, entries)
            self.buffers[key] = TranslationBuffer(
                entries,
                organization,
                assoc=assoc,
                rng=make_rng(seed, name, entries, organization.value),
            )
        self._fanout = [(buf._where, buf._install) for buf in self.buffers.values()]
        self.accesses = 0

    def access(self, page: int) -> None:
        # Hot path of every sweep simulation: one hierarchy access fans
        # out to every (size, organization) buffer.  The presence dict
        # and the miss-path bound method are pre-resolved, the hit check
        # is inlined (hits dominate), and the per-buffer access count —
        # identical across members by construction — is kept once, in
        # the bank, rather than bumped per member.
        self.accesses += 1
        for where, install in self._fanout:
            if page not in where:
                install(page)

    def misses(self, entries: int, organization: Organization = Organization.FULLY_ASSOCIATIVE) -> int:
        return self.buffers[(entries, organization)].misses

    def results(self) -> Dict[Tuple[int, str], int]:
        """Miss counts keyed by ``(entries, organization value)``."""
        return {
            (entries, org.value): buf.misses
            for (entries, org), buf in self.buffers.items()
        }
