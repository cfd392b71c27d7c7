"""Append-only run manifests: what makes an interrupted sweep resumable.

A manifest is one JSONL file per batch run under ``<cache-root>/runs/``
(``<run_id>.jsonl``).  The first line is a header; every following line
records one landed job — success lines carry the full
:class:`~repro.runner.summary.RunSummary` payload, failure lines the
structured failure.  Lines are flushed as they are written, so whatever
kills the run (SIGINT, SIGKILL, OOM, power loss) the manifest holds
every job that completed.

Resume matches jobs by :meth:`JobSpec.content_hash`, not by position:
a resumed grid may reorder, drop, or extend the original spec list and
still skips exactly the work that already succeeded.  Failure lines are
deliberately *not* restored — a resumed run runs them again.  A torn final
line (the process died mid-write) is skipped, not fatal.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional

#: Bumped when the manifest schema changes shape.
MANIFEST_FORMAT = 1


def default_manifest_dir() -> Path:
    """``runs/`` under the result-cache root."""
    from repro.runner.cache import default_cache_dir

    return default_cache_dir() / "runs"


def new_run_id() -> str:
    """A fresh, filesystem-safe run identifier (time-ordered)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{os.getpid():05d}-{os.urandom(2).hex()}"


def list_runs(root: Optional[os.PathLike] = None):
    """Run ids present under ``root``, oldest first."""
    root = Path(root) if root is not None else default_manifest_dir()
    if not root.is_dir():
        return []
    return sorted(path.stem for path in root.glob("*.jsonl"))


class RunManifest:
    """Append-only JSONL record of one batch run's landed jobs."""

    def __init__(self, root: Optional[os.PathLike] = None, run_id: Optional[str] = None):
        self.root = Path(root) if root is not None else default_manifest_dir()
        self.run_id = run_id or new_run_id()
        self._handle = None
        #: content_hash -> summary dict, loaded by :meth:`load`.
        self.completed: Dict[str, dict] = {}
        #: content_hash -> failure dict (informational; never restored).
        self.failed: Dict[str, dict] = {}

    @property
    def path(self) -> Path:
        return self.root / f"{self.run_id}.jsonl"

    # ------------------------------------------------------------------
    # creation / resumption
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root, total: int, run_id: Optional[str] = None) -> "RunManifest":
        """Start a fresh manifest and write its header line."""
        from repro import __version__

        manifest = cls(root, run_id)
        manifest.root.mkdir(parents=True, exist_ok=True)
        manifest._handle = open(manifest.path, "a")
        manifest._append(
            {
                "manifest": MANIFEST_FORMAT,
                "run": manifest.run_id,
                "version": __version__,
                "total": total,
            }
        )
        return manifest

    @classmethod
    def load(cls, root, run_id: str, total: Optional[int] = None) -> "RunManifest":
        """Open an existing manifest for resumption.

        Reads every completed entry (last status per hash wins), then
        reopens the file for appending so the resumed run extends the
        same record.  Raises ``FileNotFoundError`` for unknown ids.
        """
        manifest = cls(root, run_id)
        with open(manifest.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    # Torn final line from a hard kill mid-append.
                    continue
                if "heartbeat" in entry:
                    continue  # liveness marker, not a landed job
                digest = entry.get("hash")
                if not digest:
                    continue  # header (or foreign) line
                if entry.get("status") == "ok" and entry.get("summary") is not None:
                    manifest.completed[digest] = entry["summary"]
                    manifest.failed.pop(digest, None)
                else:
                    manifest.failed[digest] = entry
                    manifest.completed.pop(digest, None)
        manifest._handle = open(manifest.path, "a")
        if total is not None:
            manifest._append({"resumed": manifest.run_id, "total": total})
        return manifest

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_success(self, spec, summary, elapsed: float = 0.0) -> None:
        self._append(
            {
                "hash": spec.content_hash(),
                "label": spec.describe(),
                "status": "ok",
                "elapsed": elapsed,
                "summary": summary.to_dict(),
            }
        )

    def record_heartbeat(self, spec, workers: Optional[int] = None) -> None:
        """Mark a job dispatched.

        Heartbeats are liveness markers for ``repro status``: they
        carry a wall-clock stamp and the run's worker count.
        :meth:`load` skips them — they are not landed results and never
        affect resumption.
        """
        entry = {
            "heartbeat": "dispatch",
            "hash": spec.content_hash(),
            "label": spec.describe(),
            "at": round(time.time(), 3),
        }
        if workers is not None:
            entry["workers"] = int(workers)
        self._append(entry)

    def record_failure(self, spec, failure) -> None:
        self._append(
            {
                "hash": spec.content_hash(),
                "label": spec.describe(),
                "status": "failed",
                "error_type": failure.error_type,
                "message": failure.message,
            }
        )

    def _append(self, entry: dict) -> None:
        if self._handle is None:
            return
        from repro.runner.locking import locked_append

        # One flock-guarded, flushed+fsynced write per line: the whole
        # point is surviving a hard kill, and concurrent appenders
        # (parent + resumed run) must interleave whole lines only.
        locked_append(self._handle, json.dumps(entry) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RunManifest({self.run_id}, completed={len(self.completed)})"


def read_status(run_id: str, root: Optional[os.PathLike] = None) -> Dict:
    """Aggregate one manifest into a live status view (read-only).

    Replays header, heartbeat, success, and failure lines into a
    per-job state table: a job is ``running`` once a heartbeat lands
    and until a success/failure line supersedes it.  Also derives the
    counts, the average job duration, and a remaining-work ETA
    (``(pending + running) * avg / workers``) the ``repro status``
    subcommand renders.  Raises ``FileNotFoundError`` for unknown ids.
    """
    root = Path(root) if root is not None else default_manifest_dir()
    path = root / f"{run_id}.jsonl"
    header: Dict = {}
    jobs: Dict[str, Dict] = {}
    workers: Optional[int] = None
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn final line
            if "manifest" in entry or "resumed" in entry:
                for field in ("total", "version"):
                    if field in entry:
                        header[field] = entry[field]
                continue
            digest = entry.get("hash")
            if not digest:
                continue
            job = jobs.setdefault(digest, {"label": entry.get("label")})
            if "heartbeat" in entry:
                job.update(state="running", since=entry.get("at"))
                if entry.get("workers"):
                    workers = entry["workers"]
            elif entry.get("status") == "ok":
                job.pop("since", None)
                job.update(state="ok", elapsed=entry.get("elapsed", 0.0))
            else:
                job.pop("since", None)
                job.update(state="failed", error=entry.get("error_type"))

    counts = {"ok": 0, "failed": 0, "running": 0}
    for job in jobs.values():
        counts[job.get("state", "running")] += 1
    total = header.get("total")
    pending = max(0, total - len(jobs)) if total is not None else None

    durations = [
        job["elapsed"]
        for job in jobs.values()
        if job.get("state") == "ok" and job.get("elapsed", 0.0) > 0.0
    ]
    avg = sum(durations) / len(durations) if durations else None
    eta = None
    if avg is not None and pending is not None:
        remaining = pending + counts["running"]
        eta = remaining * avg / max(1, workers or 1)
    return {
        "run": run_id,
        "total": total,
        "version": header.get("version"),
        "jobs": jobs,
        "counts": counts,
        "pending": pending,
        "workers": workers,
        "avg_job_seconds": avg,
        "eta_seconds": eta,
    }
