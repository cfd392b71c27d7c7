"""Persistent on-disk memoization of finished simulations.

A :class:`~repro.runner.store.ContentStore` (layout, recovery, atomic
writes, quarantine, LRU cap) of one JSON file per job under
``<root>/<hh>/<hash>.json``, where ``hash`` is
:meth:`JobSpec.content_hash` (spec content + package version).  Files
carry the spec's canonical key alongside the summary so a cache
directory is inspectable with nothing but ``jq``.

Invalidation is by construction: any change to the spec *or* a package
version bump produces a different hash, so stale entries are simply
never read again (``clear()`` reclaims the space).  Until then they
take disk space: the cache accepts a size cap (``max_bytes``, CLI
``--cache-max-mb``, env ``$REPRO_CACHE_MAX_MB``) and evicts
least-recently-used entries after every write once the cap is
exceeded; each hit touches the entry's mtime, so recently replayed
grids survive and abandoned configurations age out.  Without a cap the
cache grows unboundedly.

The default root is ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.runner.jobs import JobSpec
from repro.runner.store import ContentStore, CorruptEntry
from repro.runner.summary import RunSummary

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment override for the result-cache size cap (in MiB).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Bumped when the on-disk schema changes shape.
CACHE_FORMAT = 1


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


def default_max_bytes(env_var: str = CACHE_MAX_MB_ENV) -> Optional[int]:
    """The environment's size cap in bytes, or None (unlimited)."""
    raw = os.environ.get(env_var)
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    return int(megabytes * 1024 * 1024) if megabytes > 0 else None


class ResultCache(ContentStore):
    """Content-addressed store of :class:`RunSummary` objects.

    ``max_bytes`` caps the total size of entries; None (the default)
    falls back to ``$REPRO_CACHE_MAX_MB``, and an unset environment
    means unlimited.  An entry of another :data:`CACHE_FORMAT` is a
    plain miss; an unparsable or malformed one is quarantined.
    """

    store_name = "result-cache"
    suffix = ".json"
    default_root = staticmethod(default_cache_dir)
    default_cap = staticmethod(default_max_bytes)

    def key(self, spec: JobSpec) -> str:
        return spec.content_hash()

    def decode(self, blob: bytes) -> Optional[RunSummary]:
        try:
            data = json.loads(blob)
        except ValueError:
            raise CorruptEntry("unparsable JSON") from None
        try:
            if data.get("format") != CACHE_FORMAT:
                return None
            return RunSummary.from_dict(data["summary"])
        except (AttributeError, KeyError, TypeError, ValueError):
            raise CorruptEntry("malformed summary payload") from None

    def put(self, spec: JobSpec, summary: RunSummary, elapsed: Optional[float] = None) -> Path:
        """Store one finished run; returns the entry's path."""
        from repro import __version__

        payload = {
            "format": CACHE_FORMAT,
            "version": __version__,
            "key": spec.key(),
            "elapsed": elapsed,
            "summary": summary.to_dict(),
        }
        return self.write(spec, json.dumps(payload).encode("utf-8"))
