"""Translation agents: what happens at each translation point.

Two concrete :class:`~repro.coma.protocol.TranslationAgent`\\ s:

* :class:`StudyAgent` — the sweep instrument.  At every tap point it
  feeds the observed virtual page number into a bank of TLB/DLB models
  of *every* size and organization under study, then charges nothing.
  Because the TLB content never feeds back into the cache hierarchy,
  one simulation run yields the full miss surface of Figures 8 and 9
  and Tables 2 and 3.

* :class:`TimingAgent` — the coupled instrument.  It owns one real
  translation structure at the scheme's tap point (per-node TLB, or
  per-home DLB for V-COMA) and charges the paper's 40-cycle penalty on
  each miss, so translation stalls shift execution and synchronization
  time (Table 4, Figure 10).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.common.params import MachineParams
from repro.common.rng import make_rng
from repro.coma.protocol import TranslationAgent
from repro.core.schemes import TAP_OF_SCHEME, Scheme, TapPoint
from repro.core.tlb import Organization, TranslationBank, TranslationBuffer

#: Sizes matching the x-axis of paper Figure 8 / columns of Tables 2-3.
DEFAULT_SWEEP_SIZES: Tuple[int, ...] = (8, 32, 128, 512)
DEFAULT_SWEEP_ORGS: Tuple[Organization, ...] = (
    Organization.FULLY_ASSOCIATIVE,
    Organization.DIRECT_MAPPED,
)

_PER_NODE_TAPS = (TapPoint.L0, TapPoint.L1, TapPoint.L2, TapPoint.L2_NO_WBACK, TapPoint.L3)


class StudyResults:
    """Aggregated sweep output: misses/accesses per tap, size, org."""

    def __init__(
        self,
        nodes: int,
        sizes: Tuple[int, ...],
        orgs: Tuple[Organization, ...],
        misses: Dict[Tuple[TapPoint, int, Organization], int],
        accesses: Dict[TapPoint, int],
        total_references: int,
    ) -> None:
        self.nodes = nodes
        self.sizes = sizes
        self.orgs = orgs
        self._misses = misses
        self._accesses = accesses
        self.total_references = total_references

    def misses(self, tap: TapPoint, size: int, org: Organization = Organization.FULLY_ASSOCIATIVE) -> int:
        """Machine-wide translation misses for one design point."""
        return self._misses[(tap, size, org)]

    def misses_per_node(self, tap: TapPoint, size: int, org: Organization = Organization.FULLY_ASSOCIATIVE) -> float:
        """Figure 8's y-axis: translation misses per node."""
        return self.misses(tap, size, org) / self.nodes

    def miss_rate(self, tap: TapPoint, size: int, org: Organization = Organization.FULLY_ASSOCIATIVE) -> float:
        """Table 2's metric: misses per processor reference."""
        if self.total_references == 0:
            return 0.0
        return self.misses(tap, size, org) / self.total_references

    def accesses(self, tap: TapPoint) -> int:
        """References that reached this tap (machine-wide)."""
        return self._accesses.get(tap, 0)

    def curve(self, tap: TapPoint, org: Organization = Organization.FULLY_ASSOCIATIVE) -> List[Tuple[int, int]]:
        """(size, misses) points, size-ascending — one Figure 8 line."""
        return [(size, self.misses(tap, size, org)) for size in sorted(self.sizes)]

    # -- serialization (runner result cache) ----------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable form (enum keys flattened to strings)."""
        return {
            "nodes": self.nodes,
            "sizes": list(self.sizes),
            "orgs": [org.value for org in self.orgs],
            "total_references": self.total_references,
            "misses": {
                f"{tap.value}|{size}|{org.value}": count
                for (tap, size, org), count in self._misses.items()
            },
            "accesses": {tap.value: count for tap, count in self._accesses.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StudyResults":
        misses: Dict[Tuple[TapPoint, int, Organization], int] = {}
        for key, count in data["misses"].items():
            tap_value, size, org_value = key.rsplit("|", 2)
            misses[(TapPoint(tap_value), int(size), Organization(org_value))] = count
        return cls(
            nodes=data["nodes"],
            sizes=tuple(data["sizes"]),
            orgs=tuple(Organization(value) for value in data["orgs"]),
            misses=misses,
            accesses={TapPoint(value): count for value, count in data["accesses"].items()},
            total_references=data["total_references"],
        )


class StudyAgent(TranslationAgent):
    """Feeds every tap into banks of translation buffers; never stalls."""

    def __init__(
        self,
        params: MachineParams,
        sizes: Iterable[int] = DEFAULT_SWEEP_SIZES,
        orgs: Iterable[Organization] = DEFAULT_SWEEP_ORGS,
    ) -> None:
        self.params = params
        self.sizes = tuple(sorted(set(sizes)))
        self.orgs = tuple(dict.fromkeys(orgs))
        configs = [(size, org) for size in self.sizes for org in self.orgs]
        self._node_bits = params.nodes.bit_length() - 1
        self._banks: Dict[Tuple[TapPoint, int], TranslationBank] = {}
        for tap in TapPoint:
            for node in range(params.nodes):
                self._banks[(tap, node)] = TranslationBank(
                    configs, seed=params.seed, name=f"{tap.value}:{node}"
                )
        # Per-tap bank lists indexed by node: the tap feeds run once per
        # simulated reference, and a plain list index is markedly cheaper
        # than hashing a (TapPoint, node) tuple each time.
        nodes = range(params.nodes)
        self._l0 = [self._banks[(TapPoint.L0, n)] for n in nodes]
        self._l1 = [self._banks[(TapPoint.L1, n)] for n in nodes]
        self._l2 = [self._banks[(TapPoint.L2, n)] for n in nodes]
        self._l2_no_wback = [self._banks[(TapPoint.L2_NO_WBACK, n)] for n in nodes]
        self._l3 = [self._banks[(TapPoint.L3, n)] for n in nodes]
        self._home = [self._banks[(TapPoint.HOME, n)] for n in nodes]
        self.total_references = 0

    # -- tap feeds ------------------------------------------------------
    def at_l0(self, node: int, vpn: int) -> int:
        self.total_references += 1
        self._l0[node].access(vpn)
        return 0

    def at_l1(self, node: int, vpn: int) -> int:
        self._l1[node].access(vpn)
        return 0

    def at_l2(self, node: int, vpn: int, writeback: bool = False) -> int:
        self._l2[node].access(vpn)
        if not writeback:
            self._l2_no_wback[node].access(vpn)
        return 0

    def at_l3(self, node: int, vpn: int) -> int:
        self._l3[node].access(vpn)
        return 0

    def at_home(self, home: int, vpn: int, for_ownership: bool = False, injection: bool = False, requester=None) -> int:
        # The DLB indexes with the VPN bits *above* the home selector:
        # every page at this home shares the low `p` bits, so keeping
        # them would waste a direct-mapped DLB's index space P-fold.
        self._home[home].access(vpn >> self._node_bits)
        return 0

    # -- results --------------------------------------------------------
    def study(self) -> StudyResults:
        misses: Dict[Tuple[TapPoint, int, Organization], int] = {}
        accesses: Dict[TapPoint, int] = {}
        for tap in TapPoint:
            accesses[tap] = sum(
                self._banks[(tap, node)].accesses for node in range(self.params.nodes)
            )
            for size in self.sizes:
                for org in self.orgs:
                    total = 0
                    for node in range(self.params.nodes):
                        bank = self._banks[(tap, node)]
                        total += bank.buffers[(size, org)].misses
                    misses[(tap, size, org)] = total
        return StudyResults(
            nodes=self.params.nodes,
            sizes=self.sizes,
            orgs=self.orgs,
            misses=misses,
            accesses=accesses,
            total_references=self.total_references,
        )


class TimingAgent(TranslationAgent):
    """One real TLB/DLB at the scheme's translation point, with the
    40-cycle miss penalty charged to whoever is waiting.

    For V-COMA the structure is the per-home DLB (shared by all
    requesters); for the TLB schemes it is per node.  ``include_l2_writebacks``
    mirrors the paper's solid-vs-dashed L2 lines: when False, writebacks
    bypass the TLB via physical pointers stored in the SLC.
    """

    def __init__(
        self,
        params: MachineParams,
        scheme: Scheme,
        entries: int,
        organization: Organization = Organization.FULLY_ASSOCIATIVE,
        include_l2_writebacks: bool = True,
    ) -> None:
        self.params = params
        self.scheme = scheme
        self.entries = entries
        self.organization = organization
        self.include_l2_writebacks = include_l2_writebacks
        self.penalty = params.translation_miss_penalty
        self._node_bits = params.nodes.bit_length() - 1
        self._buffers: List[TranslationBuffer] = [
            TranslationBuffer(
                entries,
                organization,
                rng=make_rng(params.seed, "timing-tlb", scheme.value, node),
            )
            for node in range(params.nodes)
        ]

    # -- tracing --------------------------------------------------------
    def attach_trace(self, trace) -> None:
        """Emit one ``tlb_hit``/``tlb_fill`` (or, for V-COMA,
        ``dlb_hit``/``dlb_fill``) event per translation lookup, wired
        through each buffer's ``trace_hook`` so the tap feeds stay
        unchanged.  Event counts reconcile exactly with the
        ``tlb_accesses``/``tlb_misses`` (``dlb_*``) counters the machine
        derives from this agent: hits + fills = accesses, fills =
        misses."""
        self.trace = trace
        prefix = "dlb" if self.scheme is Scheme.V_COMA else "tlb"
        # One packed emitter per event name, hoisted here so each
        # translation lookup packs a fixed-layout record (timestamped
        # at the tracer's last seen time — the hooks carry no clock).
        # The compiled engine writes the same two shapes.
        self.trace_emitters = (
            trace.event_emitter(f"{prefix}_hit", ("node", "vpn")),
            trace.event_emitter(f"{prefix}_fill", ("node", "vpn")),
        )
        for node, buffer in enumerate(self._buffers):
            buffer.trace_hook = self._make_hook(trace, *self.trace_emitters, node)

    @staticmethod
    def _make_hook(trace, emit_hit, emit_fill, node: int):
        def hook(page: int, hit: bool) -> None:
            (emit_hit if hit else emit_fill)(trace._last_time, node, page)

        return hook

    # -- statistics -----------------------------------------------------
    @property
    def total_misses(self) -> int:
        return sum(buffer.misses for buffer in self._buffers)

    @property
    def total_accesses(self) -> int:
        return sum(buffer.accesses for buffer in self._buffers)

    def timing(self) -> Dict[str, float]:
        accesses = self.total_accesses
        misses = self.total_misses
        return {
            "entries": self.entries,
            "accesses": accesses,
            "misses": misses,
            "miss_rate": misses / accesses if accesses else 0.0,
        }

    def buffer(self, node: int) -> TranslationBuffer:
        return self._buffers[node]

    def uses_tap(self, tap: TapPoint) -> bool:
        # Only the scheme's own tap charges cycles; every other at_*
        # call would return 0, so hot paths may skip them entirely.
        return TAP_OF_SCHEME[self.scheme] is tap

    def _translate(self, node: int, vpn: int) -> int:
        return 0 if self._buffers[node].access(vpn) else self.penalty

    # -- tap feeds ------------------------------------------------------
    def at_l0(self, node: int, vpn: int) -> int:
        if self.scheme is Scheme.L0_TLB:
            return self._translate(node, vpn)
        return 0

    def at_l1(self, node: int, vpn: int) -> int:
        if self.scheme is Scheme.L1_TLB:
            return self._translate(node, vpn)
        return 0

    def at_l2(self, node: int, vpn: int, writeback: bool = False) -> int:
        if self.scheme is Scheme.L2_TLB:
            if writeback and not self.include_l2_writebacks:
                return 0
            return self._translate(node, vpn)
        return 0

    def at_l3(self, node: int, vpn: int) -> int:
        if self.scheme is Scheme.L3_TLB:
            return self._translate(node, vpn)
        return 0

    def at_home(self, home: int, vpn: int, for_ownership: bool = False, injection: bool = False, requester=None) -> int:
        if self.scheme is Scheme.V_COMA:
            # Index with the VPN bits above the home selector (all pages
            # at one home share the low `p` bits).
            return self._translate(home, vpn >> self._node_bits)
        return 0
