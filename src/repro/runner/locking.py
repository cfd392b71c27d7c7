"""Crash consistency for the cache tier: flock, atomic writes, quarantine.

The ResultCache/TraceStore/manifest stores are shared by
concurrent writers (parallel ``repro`` invocations pointed at one
``--cache-dir``, and the batch runner's forked worker pool), so every
mutation follows one discipline, implemented here:

* **Atomic visibility** — payloads land in a same-directory temp file
  (``.<name>.<pid>.tmp``), are flushed and fsynced, and only then moved
  over the final name with ``os.replace``.  Readers either see the old
  complete entry or the new complete entry, never a torn one, no
  matter when the writer is SIGKILLed.
* **Mutual exclusion** — cross-process critical sections (LRU eviction
  sweeps, orphan recovery) take an ``fcntl.flock`` on a ``.lock`` file
  at the store root.  The kernel drops the lock when the holder dies,
  so a killed process never wedges the store.
* **Quarantine, not deletion** — partial temp files from dead writers
  and entries that fail to parse are *moved* into ``quarantine/`` under
  the store root (names gain a ``.corrupt-<pid>-<hex>`` suffix so no
  store glob ever matches them again).  The evidence survives for
  forensics, committed entries are untouched, and every event is
  counted in the runtime metrics registry.

Deterministic crash injection for the test suite rides the same code
path: when :data:`CRASH_WRITE_ENV` names a substring of the
destination, :func:`atomic_write_bytes` writes *half* the payload to
the temp file and hard-exits with the fault harness's
``CRASH_EXIT_CODE`` — byte-for-byte what a SIGKILL mid-write leaves
behind.
"""

from __future__ import annotations

import errno
import os
import warnings
from pathlib import Path
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None

#: Test hook: a substring of a destination path; an atomic write whose
#: target matches writes half the payload and hard-exits (simulated
#: SIGKILL mid-write, deterministic).
CRASH_WRITE_ENV = "REPRO_CRASH_WRITE"

#: Subdirectory (under a store root) receiving quarantined files.
QUARANTINE_DIR = "quarantine"


class FileLock:
    """An ``fcntl.flock`` advisory lock usable as a context manager.

    Locks a dedicated ``.lock`` file (never a data file, so quarantine
    renames and eviction unlinks can't invalidate the lock).  Reentrant
    within a process is *not* supported — critical sections here are
    short and flat.  On platforms without ``fcntl`` the lock degrades
    to a no-op (single-process semantics, as before this module).
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._handle = None

    def acquire(self) -> "FileLock":
        if fcntl is None:  # pragma: no cover - non-posix
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - exotic filesystems
            handle.close()
            return self
        self._handle = handle
        return self

    def release(self) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def store_lock(root: os.PathLike) -> FileLock:
    """The store-wide lock guarding eviction/recovery under ``root``."""
    return FileLock(Path(root) / ".lock")


def locked_append(handle, data: bytes, fsync: bool = True) -> None:
    """Append ``data`` to an open binary/text append-mode ``handle``
    as one flock-guarded, flushed (and by default fsynced) write.

    ``O_APPEND`` already makes each ``write`` land at the current end
    of file, but a Python-level write may be split across syscalls for
    large payloads; the flock guarantees whole-line granularity across
    concurrent manifest appenders.
    """
    fd = handle.fileno()
    locked = False
    if fcntl is not None:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            locked = True
        except OSError:  # pragma: no cover - exotic filesystems
            pass
    try:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(fd)
    finally:
        if locked:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def tmp_name_for(path: Path) -> Path:
    """The in-flight temp name for ``path`` (same dir, pid-tagged)."""
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def _maybe_crash(path: Path, tmp: Path, data: bytes) -> None:
    """Fire the deterministic mid-write crash hook if armed for ``path``."""
    needle = os.environ.get(CRASH_WRITE_ENV)
    if not needle or needle not in str(path):
        return
    from repro.runner.faults import CRASH_EXIT_CODE

    with open(tmp, "wb") as handle:
        handle.write(data[: max(1, len(data) // 2)])
        handle.flush()
        os.fsync(handle.fileno())
    os._exit(CRASH_EXIT_CODE)


def atomic_write_bytes(path: os.PathLike, data: bytes, fsync: bool = True) -> Path:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    A reader never observes a partial file: the payload becomes visible
    under the final name in one ``os.replace``, and with ``fsync``
    (default) the bytes are on the platter before the rename, so even a
    machine crash cannot leave a short file under the final name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_name_for(path)
    _maybe_crash(path, tmp, data)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def atomic_write_text(path: os.PathLike, text: str, fsync: bool = True) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


# ---------------------------------------------------------------------------
# quarantine + orphan recovery
# ---------------------------------------------------------------------------


def quarantine_file(
    path: os.PathLike,
    root: os.PathLike,
    store: str,
    reason: str = "",
) -> Optional[Path]:
    """Move a suspect file into ``<root>/quarantine/``; None if it
    vanished first (a concurrent process already handled it).

    The destination name appends ``.corrupt-<pid>-<hex>``, so no store
    glob (``*/*.json``, ``*/*.trace``, ``*.jsonl``) ever matches a
    quarantined file, and repeated quarantines never collide.
    """
    path = Path(path)
    dest_dir = Path(root) / QUARANTINE_DIR
    dest = dest_dir / f"{path.name}.corrupt-{os.getpid()}-{os.urandom(3).hex()}"
    try:
        dest_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)
    except OSError as exc:
        if exc.errno not in (errno.ENOENT,):  # pragma: no cover
            warnings.warn(
                f"{store}: could not quarantine {path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    from repro.obs.runtime import record_quarantine

    record_quarantine(store, path=str(path), reason=reason)
    return dest


def _writer_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    except OSError:  # pragma: no cover
        return True
    return True


def recover_orphans(root: os.PathLike, store: str, glob: str = "*/.*.tmp") -> int:
    """Quarantine temp files abandoned by dead writers under ``root``.

    A ``.<name>.<pid>.tmp`` whose writer pid is gone is the debris of a
    SIGKILL (or crash) mid-write; the committed entry it was going to
    replace is intact, so the partial file is moved to quarantine —
    never trusted, never silently deleted.  Temp files of *live* pids
    are in-flight writes and are left alone.  Returns the number of
    files quarantined.
    """
    root = Path(root)
    if not root.is_dir():
        return 0
    recovered = 0
    for tmp in root.glob(glob):
        pieces = tmp.name.rsplit(".", 2)  # [".<name>", "<pid>", "tmp"]
        pid: Optional[int] = None
        if len(pieces) == 3 and pieces[2] == "tmp":
            try:
                pid = int(pieces[1])
            except ValueError:
                pid = None
        if pid is not None and _writer_alive(pid):
            continue
        if quarantine_file(tmp, root, store, reason="partial write (dead writer)"):
            recovered += 1
    return recovered
