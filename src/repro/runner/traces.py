"""Persistent store of recorded tap traces (the record-once half).

A tap trace is keyed by everything that determines the *hierarchy*
simulation — machine parameters, workload (name + overrides + variant),
and the reference bound — but **not** the bank configuration
(``sizes``/``orgs``): one recorded trace replays every bank design.
:meth:`JobSpec.trace_hash` computes that identity; the store is a
:class:`~repro.runner.store.ContentStore` like
:class:`~repro.runner.cache.ResultCache` (``<root>/<hh>/<digest>.trace``),
with its own LRU size cap since traces are orders of magnitude larger
than result summaries.

The default root is ``<result-cache root>/traces`` so ``--cache-dir``
relocates both stores together, and a trace directory remains
inspectable: each file is self-describing (see
:mod:`repro.system.taptrace`).  Unreadable, truncated, or corrupt
trace files are treated as misses and re-recorded; corrupt ones are
quarantined with a ``RuntimeWarning`` and counted in
:attr:`TraceStore.corrupt_dropped` so disk corruption stays visible.
"""

from __future__ import annotations

import warnings
from pathlib import Path

from repro.runner.cache import default_cache_dir, default_max_bytes
from repro.runner.jobs import JobSpec
from repro.runner.store import ContentStore, CorruptEntry
from repro.system.taptrace import TapTraceSet, TraceError

#: Environment override for the trace-store size cap (in MiB).
TRACE_MAX_MB_ENV = "REPRO_TRACE_MAX_MB"

#: Traces are large; bound the store even when the user sets no cap.
DEFAULT_TRACE_MAX_BYTES = 2 * 1024 * 1024 * 1024  # 2 GiB


def default_trace_dir() -> Path:
    """``traces/`` under the result-cache root."""
    return default_cache_dir() / "traces"


class TraceStore(ContentStore):
    """Content-addressed store of :class:`TapTraceSet` files."""

    store_name = "trace-store"
    suffix = ".trace"
    default_root = staticmethod(default_trace_dir)
    #: Corrupt trace files quarantined by :meth:`get` (per store
    #: object) — disk corruption is recoverable but must never be silent.
    corrupt_dropped = 0

    @staticmethod
    def default_cap() -> int:
        cap = default_max_bytes(TRACE_MAX_MB_ENV)
        return cap if cap is not None else DEFAULT_TRACE_MAX_BYTES

    def key(self, spec: JobSpec) -> str:
        return spec.trace_hash()

    def decode(self, blob: bytes) -> TapTraceSet:
        try:
            return TapTraceSet.from_bytes(blob)
        except TraceError as exc:
            raise CorruptEntry(str(exc)) from exc

    def on_corrupt(self, path: Path, reason: str) -> None:
        # Truncated or corrupt: re-record, loudly — corruption usually
        # means a sick disk or a torn writer.
        self.corrupt_dropped += 1
        from repro.obs.runtime import record_corrupt_trace

        record_corrupt_trace()
        warnings.warn(
            f"dropping corrupt tap trace {path}: {reason}; re-recording",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, spec: JobSpec, traces: TapTraceSet) -> Path:
        """Store one recorded trace; returns the entry's path."""
        return self.write(spec, traces.to_bytes())
