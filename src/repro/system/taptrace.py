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
  those recorded streams through :mod:`repro.core.replay` (one call per
  trace set, its streams spread over the CPUs), producing for each
  requested bank grid a :class:`~repro.system.taps.StudyResults`
  bit-identical to a coupled :class:`StudyAgent` run with the same
  configuration.

Next to the HOME tap's streams the capture records which node
requested each home lookup (the :data:`REQUESTER` column, one per
home): :func:`replay_sharing` splits a home's stream by requester to
compare a shared DLB with per-requester private slices.

A :class:`TapTraceSet` serializes to a compact columnar binary format
(``to_bytes``/``from_bytes``): a JSON header describing one column per
``(tap, node)`` stream followed by the concatenated little-endian page
arrays (4-byte entries when every page number fits, 8-byte otherwise),
CRC-guarded so truncated or corrupted files are detected and treated
as cache misses by the :class:`~repro.runner.traces.TraceStore`.  The
compiled capture already hands its columns over 4 bytes wide when they
fit, so encoding copies them as they are.
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
from repro.core.replay import bank_miss_counts, buffer_miss_counts
from repro.core.schemes import Scheme, TapPoint
from repro.system.taps import StudyResults
from repro.workloads.base import Workload

#: On-disk magic + format version; bump the version on any layout change.
TRACE_MAGIC = b"RTAP"
TRACE_FORMAT = 2

#: array typecodes for exact 4- and 8-byte unsigned columns.
_U4 = "I" if array("I").itemsize == 4 else "L"
_U8 = "Q"

#: The column of the node that requested each HOME-tap lookup.
REQUESTER = "home/requester"

#: Column names in canonical order, which is also the compiled
#: capture's column order (the ``SW_*`` indices of ``fastsim.c``).
CAPTURE_COLUMNS = tuple(tap.value for tap in TapPoint) + (REQUESTER,)


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
        "_requester",
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
        self._requester = [array(_U8) for _ in nodes]

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
        if requester is None:
            raise ValueError(f"HOME-tap lookup at node {home} without a requesting node")
        # Same index transformation as StudyAgent/TimingAgent: the DLB
        # drops the home-selector bits shared by every page at a home.
        self._home[home].append(vpn >> self._node_bits)
        self._requester[home].append(requester)
        return 0

    # -- extraction -----------------------------------------------------
    def columns(self) -> Tuple[List[array], ...]:
        """Per-node columns in :data:`CAPTURE_COLUMNS` order."""
        return (
            self._l0, self._l1, self._l2, self._l2_no_wback, self._l3,
            self._home, self._requester,
        )

    def streams(self) -> Dict[Tuple[str, int], array]:
        return {
            (name, node): columns[node]
            for name, columns in zip(CAPTURE_COLUMNS, self.columns())
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

    def requesters(self, home: int) -> array:
        """The requesting node of each page in ``stream(HOME, home)``."""
        return self.streams.get((REQUESTER, home), array(_U8))

    # -- serialization ---------------------------------------------------
    def to_bytes(self) -> bytes:
        columns = []
        payload_parts: List[bytes] = []
        for name in CAPTURE_COLUMNS:
            for node in range(self.nodes):
                column = self.streams.get((name, node))
                if column is None:
                    continue
                # Downcast to 4-byte entries when every value fits: tap
                # streams are page *numbers*, which are far below 2**32
                # on any machine configuration we simulate, so this
                # normally halves the file.  Narrow columns (compiled
                # captures, decoded traces) are written as they are.
                if column.typecode == _U4:
                    narrow, data = True, column
                else:
                    narrow = not column or max(column) < 1 << 32
                    data = array(_U4, column) if narrow else column
                if sys.byteorder == "big":  # pragma: no cover - exotic host
                    data = array(data.typecode, data)
                    data.byteswap()
                payload_parts.append(data.tobytes())
                columns.append(
                    {
                        "tap": name,
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
    tracer=None,
) -> TapTraceSet:
    """Run the hierarchy once, recording every translation tap.

    The hierarchy is configured exactly as the scalar
    :func:`~repro.analysis.experiments.run_miss_sweep` oracle's (V-COMA
    — every scheme's tap stream can be read off it), so the recorded
    streams and base summary match a scalar sweep run bit for bit.
    The capture runs headless on the compiled engine's capture mode
    (:func:`~repro.system.simulator.run_summary`): no machine is built
    and the columns come straight from C (``fast=False`` forces the
    scalar reference path — identical streams either way).  On the
    compiled engine ``stream_key`` keys the materialized-column LRU for
    grid-level stream sharing.  A :class:`~repro.obs.trace.Tracer`
    records the hierarchy run's spans and events; no agent here emits
    translation events.
    """
    from repro.system.simulator import run_summary

    base, agent = run_summary(
        params,
        Scheme.V_COMA,
        workload,
        lambda: CaptureAgent(params),
        max_refs_per_node=max_refs_per_node,
        stream_key=stream_key,
        tracer=tracer,
        fast=fast,
    )
    return TapTraceSet(
        nodes=params.nodes,
        seed=params.seed,
        total_references=agent.total_references,
        streams=agent.streams(),
        base=base,
    )


def replay_study(traces: TapTraceSet, cells) -> List[StudyResults]:
    """Drive banks of every cell's ``(size, org)`` points from recorded streams.

    A cell is one sweep's bank grid, a ``(sizes, orgs)`` pair.  The
    union of the cells' design points replays in one
    :func:`~repro.core.replay.bank_miss_counts` call, its streams spread
    over the CPUs available, so each stream is relabelled once however
    many cells read it; each cell's :class:`StudyResults` is cut from
    those counts.  Each is bit-identical to a
    :class:`~repro.system.taps.StudyAgent` run with that cell's
    ``sizes``/``orgs``: the per-``(tap, node)`` bank names and RNG
    substreams match, and a member's seed depends only on the trace
    seed, its bank name and its design point, so no count depends on
    which other cells replay with it or on how many CPUs run them.
    """
    cells = [
        (tuple(sorted(set(sizes))), tuple(dict.fromkeys(orgs))) for sizes, orgs in cells
    ]
    configs = list(dict.fromkeys(
        (size, org) for sizes, orgs in cells for size in sizes for org in orgs
    ))
    names = {
        tap: [f"{tap.value}:{node}" for node in range(traces.nodes)] for tap in TapPoint
    }
    streams = {
        name: traces.stream(tap, node)
        for tap, tap_names in names.items()
        for node, name in enumerate(tap_names)
    }
    counts = bank_miss_counts(streams, configs, traces.seed)
    accesses = {
        tap: sum(len(streams[name]) for name in tap_names) for tap, tap_names in names.items()
    }
    return [
        StudyResults(
            nodes=traces.nodes,
            sizes=sizes,
            orgs=orgs,
            misses={
                (tap, size, org): sum(counts[name][(size, org)] for name in tap_names)
                for tap, tap_names in names.items()
                for size in sizes
                for org in orgs
            },
            accesses=dict(accesses),
            total_references=traces.total_references,
        )
        for sizes, orgs in cells
    ]


def _replayed(summary):
    """Stamp a summary built from a recording with both halves of the
    pipeline, e.g. ``"compiled+replay"`` when the capture ran on the
    fast engine."""
    summary.backend = f"{summary.backend or 'scalar'}+replay"
    return summary


def replay_summary(traces: TapTraceSet, cells) -> List:
    """One sweep :class:`~repro.runner.summary.RunSummary` per
    ``(sizes, orgs)`` cell: the recorded hierarchy summary with the
    cell's replayed study surface attached (:func:`replay_study`)."""
    return [
        _replayed(traces.base.with_study(study)) for study in replay_study(traces, cells)
    ]


def replay_sharing(traces: TapTraceSet, entries: int) -> Dict[str, int]:
    """The DLB's sharing/prefetching contribution, from the HOME tap.

    Every home's stream drives one shared ``entries``-entry DLB, and
    its split by requesting node drives one private slice of the same
    size per ``(home, requester)``: the slices have P times the
    aggregate capacity, so any shared win is pure sharing.  Buffer
    ``("abl-shared", home)`` and ``("abl-part", home, requester)`` draw
    from those RNG substreams, and both sides replay in one call.
    """
    streams = {}
    for home in range(traces.nodes):
        pages = traces.stream(TapPoint.HOME, home)
        slices = [array(pages.typecode) for _ in range(traces.nodes)]
        for page, requester in zip(pages, traces.requesters(home)):
            slices[requester].append(page)
        streams[("abl-shared", home)] = pages
        for requester, column in enumerate(slices):
            streams[("abl-part", home, requester)] = column
    misses = buffer_miss_counts(streams, entries, traces.seed)
    return {
        "entries": entries,
        "accesses": sum(len(streams[("abl-shared", home)]) for home in range(traces.nodes)),
        "shared_misses": sum(count for key, count in misses.items() if key[0] == "abl-shared"),
        "partitioned_misses": sum(count for key, count in misses.items() if key[0] == "abl-part"),
    }


def sharing_summary(traces: TapTraceSet, entries: int):
    """A sharing :class:`~repro.runner.summary.RunSummary`: the recorded
    hierarchy summary with :func:`replay_sharing`'s counts attached."""
    summary = traces.base.with_study(None)
    summary.sharing = replay_sharing(traces, entries)
    return _replayed(summary)
