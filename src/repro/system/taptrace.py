"""Record-once/replay-many translation tap traces.

The miss-count experiments (Figures 8/9, Tables 2/3) are decoupled:
the :class:`~repro.system.taps.StudyAgent` observes the hierarchy but
never perturbs it, so the hierarchy simulation — by far the dominant
cost — is identical for every TLB/DLB size and organization under
study.  This module splits that work in two:

* :func:`capture_tap_traces` runs the hierarchy **once** per
  ``(workload, MachineParams)`` pair with a :class:`CaptureAgent` that
  records, per translation tap and node, the exact page-number stream
  a bank of translation buffers would observe, plus the run's
  hierarchy-side :class:`~repro.runner.summary.RunSummary` (time
  breakdowns, counters — none of which depend on bank configuration).
* :func:`replay_study` drives banks of **any** sizes/organizations from
  those recorded streams through :mod:`repro.core.replay` (one batch
  call per stream), producing a
  :class:`~repro.system.taps.StudyResults` bit-identical to a coupled
  :class:`StudyAgent` run with the same configuration.

A :class:`TapTraceSet` serializes to a compact columnar binary format
(``to_bytes``/``from_bytes``): a JSON header describing one column per
``(tap, node)`` stream followed by the concatenated little-endian page
arrays (4-byte entries when every page number fits, 8-byte otherwise),
CRC-guarded so truncated or corrupted files are detected and treated
as cache misses by the :class:`~repro.runner.traces.TraceStore`.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.params import MachineParams
from repro.coma.protocol import TranslationAgent
from repro.core.replay import bank_miss_counts
from repro.core.schemes import Scheme, TapPoint
from repro.core.tlb import Organization
from repro.system.taps import StudyResults
from repro.workloads.base import Workload

#: On-disk magic + format version; bump the version on any layout change.
TRACE_MAGIC = b"RTAP"
TRACE_FORMAT = 1

#: array typecodes for exact 4- and 8-byte unsigned columns.
_U4 = "I" if array("I").itemsize == 4 else "L"
_U8 = "Q"

#: Tap values in canonical column order.
_TAP_ORDER = tuple(tap.value for tap in TapPoint)


class TraceError(ReproError):
    """A tap-trace file is missing, truncated, or corrupt."""


class CaptureAgent(TranslationAgent):
    """Records every tap's page-number stream; never stalls.

    The hierarchy behaves exactly as under a
    :class:`~repro.system.taps.StudyAgent` (every tap returns zero
    cycles), so the captured streams and the run's time breakdowns are
    the ones a coupled sweep run would produce.
    """

    __slots__ = (
        "params",
        "total_references",
        "_node_bits",
        "_l0",
        "_l1",
        "_l2",
        "_l2_no_wback",
        "_l3",
        "_home",
    )

    def __init__(self, params: MachineParams) -> None:
        nodes = range(params.nodes)
        self.params = params
        self.total_references = 0
        self._node_bits = params.nodes.bit_length() - 1
        self._l0 = [array(_U8) for _ in nodes]
        self._l1 = [array(_U8) for _ in nodes]
        self._l2 = [array(_U8) for _ in nodes]
        self._l2_no_wback = [array(_U8) for _ in nodes]
        self._l3 = [array(_U8) for _ in nodes]
        self._home = [array(_U8) for _ in nodes]

    # -- tap feeds ------------------------------------------------------
    def at_l0(self, node: int, vpn: int) -> int:
        self.total_references += 1
        self._l0[node].append(vpn)
        return 0

    def at_l1(self, node: int, vpn: int) -> int:
        self._l1[node].append(vpn)
        return 0

    def at_l2(self, node: int, vpn: int, writeback: bool = False) -> int:
        self._l2[node].append(vpn)
        if not writeback:
            self._l2_no_wback[node].append(vpn)
        return 0

    def at_l3(self, node: int, vpn: int) -> int:
        self._l3[node].append(vpn)
        return 0

    def at_home(self, home: int, vpn: int, for_ownership: bool = False, injection: bool = False, requester=None) -> int:
        # Same index transformation as StudyAgent/TimingAgent: the DLB
        # drops the home-selector bits shared by every page at a home.
        self._home[home].append(vpn >> self._node_bits)
        return 0

    # -- extraction -----------------------------------------------------
    def streams(self) -> Dict[Tuple[str, int], array]:
        per_tap = {
            TapPoint.L0: self._l0,
            TapPoint.L1: self._l1,
            TapPoint.L2: self._l2,
            TapPoint.L2_NO_WBACK: self._l2_no_wback,
            TapPoint.L3: self._l3,
            TapPoint.HOME: self._home,
        }
        return {
            (tap.value, node): columns[node]
            for tap, columns in per_tap.items()
            for node in range(self.params.nodes)
        }


class TapTraceSet:
    """Recorded tap streams plus the hierarchy-side run summary."""

    __slots__ = ("nodes", "seed", "total_references", "streams", "base")

    def __init__(
        self,
        nodes: int,
        seed: int,
        total_references: int,
        streams: Dict[Tuple[str, int], array],
        base,  # RunSummary with study=None
    ) -> None:
        self.nodes = nodes
        self.seed = seed
        self.total_references = total_references
        self.streams = streams
        self.base = base

    def stream(self, tap: TapPoint, node: int) -> array:
        return self.streams.get((tap.value, node), array(_U8))

    @property
    def total_events(self) -> int:
        return sum(len(column) for column in self.streams.values())

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        columns = []
        payload_parts: List[bytes] = []
        for tap_value in _TAP_ORDER:
            for node in range(self.nodes):
                column = self.streams.get((tap_value, node))
                if column is None:
                    continue
                # Downcast to 4-byte entries when every page fits: tap
                # streams are page *numbers*, which are far below 2**32
                # on any machine configuration we simulate, so this
                # normally halves the file.
                narrow = not column or max(column) < 1 << 32
                data = array(_U4, column) if narrow else column
                if sys.byteorder == "big":  # pragma: no cover - exotic host
                    data = array(data.typecode, data)
                    data.byteswap()
                payload_parts.append(data.tobytes())
                columns.append(
                    {
                        "tap": tap_value,
                        "node": node,
                        "count": len(column),
                        "dtype": "u4" if narrow else "u8",
                    }
                )
        payload = b"".join(payload_parts)
        from repro import __version__

        header = json.dumps(
            {
                "version": __version__,
                "nodes": self.nodes,
                "seed": self.seed,
                "total_references": self.total_references,
                "base": self.base.to_dict(),
                "columns": columns,
                "payload_len": len(payload),
                "payload_crc32": zlib.crc32(payload),
            }
        ).encode()
        return b"".join(
            [
                TRACE_MAGIC,
                struct.pack("<II", TRACE_FORMAT, len(header)),
                header,
                payload,
            ]
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TapTraceSet":
        prefix = len(TRACE_MAGIC) + 8
        if len(blob) < prefix or blob[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise TraceError("not a tap-trace file (bad magic)")
        fmt, header_len = struct.unpack_from("<II", blob, len(TRACE_MAGIC))
        if fmt != TRACE_FORMAT:
            raise TraceError(f"unsupported trace format {fmt}")
        if len(blob) < prefix + header_len:
            raise TraceError("truncated trace header")
        try:
            header = json.loads(blob[prefix : prefix + header_len])
        except ValueError as exc:
            raise TraceError(f"unreadable trace header: {exc}") from None
        payload = blob[prefix + header_len :]
        try:
            expected_len = header["payload_len"]
            expected_crc = header["payload_crc32"]
            columns = header["columns"]
            nodes = header["nodes"]
            seed = header["seed"]
            total_references = header["total_references"]
            base_dict = header["base"]
        except (KeyError, TypeError) as exc:
            raise TraceError(f"trace header missing field: {exc}") from None
        if len(payload) != expected_len:
            raise TraceError(
                f"truncated trace payload: {len(payload)} of {expected_len} bytes"
            )
        if zlib.crc32(payload) != expected_crc:
            raise TraceError("trace payload checksum mismatch")

        from repro.runner.summary import RunSummary

        try:
            base = RunSummary.from_dict(base_dict)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"unreadable base summary: {exc}") from None

        streams: Dict[Tuple[str, int], array] = {}
        offset = 0
        for spec in columns:
            try:
                tap_value, node, count, dtype = (
                    spec["tap"], spec["node"], spec["count"], spec["dtype"],
                )
            except (KeyError, TypeError) as exc:
                raise TraceError(f"bad column descriptor: {exc}") from None
            typecode = _U4 if dtype == "u4" else _U8
            column = array(typecode)
            nbytes = count * column.itemsize
            if offset + nbytes > len(payload):
                raise TraceError("trace payload shorter than its columns")
            column.frombytes(payload[offset : offset + nbytes])
            if sys.byteorder == "big":  # pragma: no cover - exotic host
                column.byteswap()
            offset += nbytes
            streams[(tap_value, node)] = column
        return cls(
            nodes=nodes,
            seed=seed,
            total_references=total_references,
            streams=streams,
            base=base,
        )


# ----------------------------------------------------------------------
# record / replay
# ----------------------------------------------------------------------
def capture_tap_traces(
    params: MachineParams,
    workload: Workload,
    max_refs_per_node: Optional[int] = None,
    fast: bool = True,
    stream_key: Optional[str] = None,
) -> TapTraceSet:
    """Run the hierarchy once, recording every translation tap.

    The hierarchy is configured exactly as the scalar
    :func:`~repro.analysis.experiments.run_miss_sweep` oracle's (V-COMA
    — every scheme's tap stream can be read off it), so the recorded
    streams and base summary match a scalar sweep run bit for bit.  The capture prefers the compiled engine's capture
    mode, headless: no machine is built and the columns come straight
    from C (``fast=False`` forces the scalar reference path — identical
    streams either way); on the compiled engine ``stream_key`` keys the
    materialized-column LRU for grid-level stream sharing.
    """
    from repro.system.machine import Machine
    from repro.system.simulator import Simulator, run_summary
    from repro.runner.summary import RunSummary

    if fast:
        base, agent = run_summary(
            params,
            Scheme.V_COMA,
            workload,
            lambda: CaptureAgent(params),
            max_refs_per_node=max_refs_per_node,
            stream_key=stream_key,
        )
    else:
        agent = CaptureAgent(params)
        machine = Machine(params, Scheme.V_COMA, workload, agent=agent)
        base = RunSummary.from_result(
            Simulator(machine, max_refs_per_node=max_refs_per_node, fast=False).run()
        )
    return TapTraceSet(
        nodes=params.nodes,
        seed=params.seed,
        total_references=agent.total_references,
        streams=agent.streams(),
        base=base,
    )


def replay_study(
    traces: TapTraceSet,
    sizes,
    orgs,
) -> StudyResults:
    """Drive banks of every ``(size, org)`` point from recorded streams.

    Bit-identical to a :class:`~repro.system.taps.StudyAgent` run with
    the same ``sizes``/``orgs``: the per-``(tap, node)`` bank names and
    RNG substreams match, so the replacement decisions — and therefore
    the miss counts — are the same.
    """
    sizes = tuple(sorted(set(sizes)))
    orgs = tuple(dict.fromkeys(orgs))
    configs = [(size, org) for size in sizes for org in orgs]
    misses: Dict[Tuple[TapPoint, int, Organization], int] = {}
    accesses: Dict[TapPoint, int] = {}
    for tap in TapPoint:
        tap_accesses = 0
        totals = {config: 0 for config in configs}
        for node in range(traces.nodes):
            column = traces.stream(tap, node)
            tap_accesses += len(column)
            counts = bank_miss_counts(column, configs, traces.seed, f"{tap.value}:{node}")
            for config, count in counts.items():
                totals[config] += count
        accesses[tap] = tap_accesses
        for (size, org), total in totals.items():
            misses[(tap, size, org)] = total
    return StudyResults(
        nodes=traces.nodes,
        sizes=sizes,
        orgs=orgs,
        misses=misses,
        accesses=accesses,
        total_references=traces.total_references,
    )


def replay_summary(traces: TapTraceSet, sizes, orgs):
    """A sweep :class:`~repro.runner.summary.RunSummary`: the recorded
    hierarchy summary with the replayed study surface attached.  The
    ``backend`` stamp records both halves of the pipeline — e.g.
    ``"compiled+replay"`` when the capture ran on the fast engine."""
    summary = traces.base.with_study(replay_study(traces, sizes, orgs))
    capture_backend = summary.backend or "scalar"
    summary.backend = f"{capture_backend}+replay"
    return summary
