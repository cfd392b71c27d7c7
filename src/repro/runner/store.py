"""One content-addressed, crash-consistent on-disk store policy.

:class:`~repro.runner.cache.ResultCache` (finished summaries) and
:class:`~repro.runner.traces.TraceStore` (recorded tap traces) are two
thin subclasses of :class:`ContentStore`, which owns the whole policy:

* **Layout** — one file per entry at ``<root>/<hh>/<digest><suffix>``,
  where ``digest`` is the subclass's :meth:`~ContentStore.key` of a
  :class:`~repro.runner.jobs.JobSpec` and ``hh`` its first two hex
  digits.
* **Recovery** — before its first read or write, a store object
  quarantines the temp files of writers that died mid-write (once,
  under the store lock; committed entries are never touched).
* **Reads** — lock-free (atomic writes guarantee any visible entry is
  complete).  A hit touches the entry's mtime; an entry the codec
  rejects as corrupt is quarantined — kept as evidence, counted, and
  never consulted again.
* **Writes** — temp file + fsync + ``os.replace``, then, under a size
  cap, a least-recently-used eviction sweep under the store's
  cross-process lock so concurrent writers never double-evict.

A subclass supplies its store name, file suffix, key, codec
(:meth:`~ContentStore.decode` plus a ``put`` that encodes), default
root and default cap, and may react to corruption through
:meth:`~ContentStore.on_corrupt`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.runner.locking import (
    atomic_write_bytes,
    quarantine_file,
    recover_orphans,
    store_lock,
)


class CorruptEntry(ValueError):
    """Raised by a codec for an entry that must be quarantined; the
    message is the quarantine reason."""


class ContentStore:
    """A directory of content-addressed entries under one policy.

    ``max_bytes`` caps the total size of entries; None (the default)
    falls back to the subclass's :meth:`default_cap`, and a None cap
    means unlimited.
    """

    #: Runtime-metrics label + quarantine reason prefix.
    store_name = "store"
    #: File suffix of every entry.
    suffix = ""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root) if root is not None else self.default_root()
        self.max_bytes = max_bytes if max_bytes is not None else self.default_cap()
        self.hits = 0
        self.misses = 0
        #: Corrupt entries / orphaned temp files moved to quarantine.
        self.quarantined = 0
        #: Entries removed by the LRU size cap (this store object).
        self.evictions = 0
        self._recovered = False

    # -- what a subclass supplies ----------------------------------------
    @staticmethod
    def default_root() -> Path:
        raise NotImplementedError

    @staticmethod
    def default_cap() -> Optional[int]:
        return None

    def key(self, spec) -> str:
        """The hex digest naming ``spec``'s entry."""
        raise NotImplementedError

    def decode(self, blob: bytes):
        """The stored value, None for a plain miss, or
        :class:`CorruptEntry` for an entry to quarantine."""
        raise NotImplementedError

    def on_corrupt(self, path: Path, reason: str) -> None:
        """Called before a corrupt entry is quarantined."""

    # ------------------------------------------------------------------
    def path_for(self, spec) -> Path:
        digest = self.key(spec)
        return self.root / digest[:2] / f"{digest}{self.suffix}"

    def _entries(self):
        return self.root.glob(f"*/*{self.suffix}") if self.root.is_dir() else ()

    def recover(self) -> int:
        """Quarantine partial files left by writers that died mid-write.

        Runs once per store object (lazily, before the first read or
        write) under the store lock.  Returns the number of files
        quarantined."""
        self._recovered = True
        if not self.root.is_dir():
            return 0
        with store_lock(self.root):
            recovered = recover_orphans(self.root, self.store_name)
        self.quarantined += recovered
        return recovered

    def get(self, spec):
        """The stored value for ``spec``, or None."""
        if not self._recovered:
            self.recover()
        path = self.path_for(spec)
        try:
            value = self.decode(path.read_bytes())
        except OSError:
            value = None
        except CorruptEntry as exc:
            self.misses += 1
            self.on_corrupt(path, str(exc))
            if quarantine_file(path, self.root, self.store_name, reason=str(exc)):
                self.quarantined += 1
            return None
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # LRU bookkeeping via mtime
        except OSError:
            pass
        return value

    def write(self, spec, blob: bytes) -> Path:
        """Store one encoded entry atomically, then evict down to the
        cap under the store lock; returns the entry's path."""
        if not self._recovered:
            self.recover()
        path = atomic_write_bytes(self.path_for(spec), blob)
        if self.max_bytes is not None:
            with store_lock(self.root):
                self.evictions += self._evict()
        return path

    def _evict(self) -> int:
        """Delete oldest-mtime entries until their total size fits
        ``max_bytes``; returns the number removed.  Concurrent deletion
        by another process is benign (missing files are skipped)."""
        entries = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        excess = sum(size for _, size, _ in entries) - self.max_bytes
        removed = 0
        for _, size, path in sorted(entries):
            if excess <= 0:
                break
            try:
                path.unlink()
            except OSError:
                continue
            excess -= size
            removed += 1
        if removed:
            from repro.obs.runtime import record_eviction

            record_eviction(self.store_name, removed)
        return removed

    def contains(self, spec) -> bool:
        return self.path_for(spec).is_file()

    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """Total size of every entry (the quantity the cap bounds)."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self._entries():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.root}, entries={len(self)})"
