"""Append-only run-history store with rolling-median regression checks.

The ROADMAP's "fast as the hardware allows" goal needs a perf
*trajectory*, not a single committed snapshot.  :class:`RunHistory`
appends one JSONL line per measured run under the cache root; each
:class:`HistoryEntry` carries a **content-hashed config key** (runs are
only ever compared against runs of the same configuration), a metrics
dict (refs/sec, miss rates, latency percentiles), and free-form
context.

Two consumers:

* :func:`detect_regression` — the rolling-median + tolerance detector:
  the latest value is compared against the median of the preceding
  ``window`` values; a drop (or rise, for lower-is-better metrics like
  slowdowns and latencies) beyond ``tolerance`` flags a regression.
  The median makes single noisy runs in the baseline harmless.
* :meth:`RunHistory.compare` — a direct diff of one entry against a
  baseline entry, metric by metric.

``repro history`` is the CLI surface; ``benchmarks/bench_common`` and
the report's Telemetry section append entries automatically.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from statistics import median
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ConfigurationError

HISTORY_VERSION = 1

#: File name of the store inside its root directory.
HISTORY_FILE = "history.jsonl"


def config_key(config: Dict) -> str:
    """Content hash of a configuration dict (stable across processes)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def metric_direction(name: str) -> str:
    """``"higher"`` or ``"lower"`` — which way is better for a metric.

    Rates and speedups improve upward; slowdowns, latencies, miss
    rates, and wall-clock seconds improve downward.
    """
    lowered = name.lower()
    if any(
        marker in lowered
        for marker in ("slowdown", "latency", "miss_rate", "seconds", "_p5", "_p9")
    ):
        return "lower"
    return "higher"


class HistoryEntry:
    """One measured run: a config key, metrics, and context."""

    __slots__ = ("key", "kind", "recorded_at", "metrics", "context")

    def __init__(
        self,
        key: str,
        metrics: Dict[str, float],
        kind: str = "run",
        context: Optional[Dict] = None,
        recorded_at: Optional[float] = None,
    ) -> None:
        if not key:
            raise ConfigurationError("history entry needs a non-empty config key")
        self.key = str(key)
        self.kind = str(kind)
        self.recorded_at = float(recorded_at if recorded_at is not None else time.time())
        self.metrics = {str(k): float(v) for k, v in metrics.items()}
        self.context = dict(context or {})

    def to_dict(self) -> Dict:
        return {
            "version": HISTORY_VERSION,
            "key": self.key,
            "kind": self.kind,
            "recorded_at": round(self.recorded_at, 3),
            "metrics": dict(sorted(self.metrics.items())),
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "HistoryEntry":
        return cls(
            key=data["key"],
            metrics=data.get("metrics", {}),
            kind=data.get("kind", "run"),
            context=data.get("context"),
            recorded_at=data.get("recorded_at"),
        )

    def __repr__(self) -> str:
        return (
            f"HistoryEntry({self.kind}:{self.key}, "
            f"{len(self.metrics)} metrics)"
        )


def entry_from_summary(
    summary, key: str, wall_seconds: Optional[float] = None, kind: str = "run", **context
) -> HistoryEntry:
    """Build an entry from a finished run summary.

    Simulated-time metrics (miss rate, latency percentiles) always
    land; refs/sec needs the caller's wall-clock measurement (the
    summary deliberately records none).
    """
    metrics: Dict[str, float] = {
        "total_references": float(summary.total_references()),
        "run_time_cycles": float(summary.total_time),
    }
    if wall_seconds and wall_seconds > 0:
        metrics["refs_per_sec"] = round(summary.total_references() / wall_seconds, 1)
        metrics["wall_seconds"] = round(wall_seconds, 3)
    timing = summary.timing_summary()
    if timing is not None:
        metrics["translation_miss_rate"] = round(timing["miss_rate"], 9)
    for direction in ("read", "write"):
        hist = getattr(summary, f"{direction}_latency_histogram")()
        if hist is not None and hist.count:
            metrics[f"{direction}_latency_p50"] = float(hist.percentile(0.50))
            metrics[f"{direction}_latency_p95"] = float(hist.percentile(0.95))
    return HistoryEntry(key, metrics, kind=kind, context=context)


def entry_from_bench(payload: Dict, **context) -> HistoryEntry:
    """Build an entry from a ``BENCH_throughput.json`` payload.

    The config key hashes the bench machine shape *and* the smoke flag,
    so smoke and full runs form separate trajectories and are never
    compared against each other.
    """
    key = config_key(
        {
            "bench": "throughput",
            "params": payload.get("params", {}),
            "smoke": bool(payload.get("smoke")),
        }
    )
    metrics: Dict[str, float] = {}
    serial = payload.get("serial", {})
    for kind in ("sweep", "timing"):
        row = serial.get(kind)
        if row:
            metrics[f"{kind}_refs_per_sec"] = row["refs_per_sec"]
    tracing = payload.get("tracing", {})
    if tracing:
        metrics["tracing_enabled_slowdown"] = tracing["enabled_slowdown"]
        metrics["tracing_disabled_refs_per_sec"] = tracing["disabled_refs_per_sec"]
    for row in payload.get("grid", ()):
        if "speedup_vs_no_replay" in row:
            metrics["grid_speedup_vs_no_replay"] = row["speedup_vs_no_replay"]
    context.setdefault("version", payload.get("version"))
    context.setdefault("smoke", bool(payload.get("smoke")))
    context.setdefault("cpu_count", payload.get("cpu_count"))
    return HistoryEntry(key, metrics, kind="bench", context=context)


def detect_regression(
    values: Iterable[float],
    window: int = 5,
    tolerance: float = 0.1,
    direction: str = "higher",
) -> Dict:
    """Rolling-median regression check over one metric's trajectory.

    The last value is the run under test; its baseline is the median of
    the up-to-``window`` values preceding it.  ``direction`` says which
    way is better for the metric.  With fewer than two values there is
    nothing to compare and the check passes.
    """
    if direction not in ("higher", "lower"):
        raise ConfigurationError(
            f"direction must be 'higher' or 'lower', not {direction!r}"
        )
    if not 0 <= tolerance < 1:
        raise ConfigurationError("tolerance must be in [0, 1)")
    series = [float(v) for v in values]
    if len(series) < 2:
        return {
            "ok": True,
            "reason": "insufficient history",
            "n": len(series),
            "latest": series[-1] if series else None,
            "baseline_median": None,
            "ratio": None,
        }
    latest = series[-1]
    prior = series[-1 - min(window, len(series) - 1) : -1]
    baseline = median(prior)
    if baseline == 0:
        ratio = 1.0 if latest == 0 else float("inf")
    else:
        ratio = latest / baseline
    if direction == "higher":
        ok = latest >= baseline * (1.0 - tolerance)
    else:
        ok = latest <= baseline * (1.0 + tolerance)
    return {
        "ok": ok,
        "n": len(series),
        "window": len(prior),
        "latest": latest,
        "baseline_median": baseline,
        "ratio": round(ratio, 4) if ratio != float("inf") else ratio,
        "tolerance": tolerance,
        "direction": direction,
    }


class RunHistory:
    """Append-only JSONL store of :class:`HistoryEntry` lines.

    ``root`` is a directory (defaults to the shared cache root from
    :func:`repro.runner.cache.default_cache_dir`); the store is a
    single ``history.jsonl`` inside it.  Appends are line-buffered and
    flushed per entry, so concurrent benchmark processes interleave
    whole lines; reads skip lines that fail to parse rather than
    corrupting the whole trajectory.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            from repro.runner.cache import default_cache_dir

            root = default_cache_dir()
        self.root = str(root)
        self.path = os.path.join(self.root, HISTORY_FILE)

    # -- writing -------------------------------------------------------
    def append(self, entry: HistoryEntry) -> HistoryEntry:
        from repro.runner.locking import locked_append

        os.makedirs(self.root, exist_ok=True)
        line = json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":"))
        with open(self.path, "a+b") as handle:
            # A writer hard-killed mid-line leaves no trailing newline;
            # appending straight after it would corrupt THIS entry too.
            # The torn-line repair and the append happen as one
            # flock-guarded write so concurrent benchmark processes
            # interleave whole lines only.
            size = handle.seek(0, os.SEEK_END)
            payload = line.encode("utf-8") + b"\n"
            if size > 0:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    payload = b"\n" + payload
            locked_append(handle, payload)
        return entry

    # -- reading -------------------------------------------------------
    def entries(
        self, key: Optional[str] = None, kind: Optional[str] = None
    ) -> List[HistoryEntry]:
        """Entries in append order, optionally filtered by key/kind."""
        if not os.path.exists(self.path):
            return []
        out: List[HistoryEntry] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    entry = HistoryEntry.from_dict(data)
                except (ValueError, KeyError, TypeError):
                    continue  # torn or foreign line: skip, don't poison
                if key is not None and entry.key != key:
                    continue
                if kind is not None and entry.kind != kind:
                    continue
                out.append(entry)
        return out

    def keys(self) -> List[str]:
        """Distinct config keys present, in first-seen order."""
        seen: Dict[str, None] = {}
        for entry in self.entries():
            seen.setdefault(entry.key, None)
        return list(seen)

    def latest(self, key: str) -> Optional[HistoryEntry]:
        entries = self.entries(key=key)
        return entries[-1] if entries else None

    # -- analysis ------------------------------------------------------
    def series(self, key: str, metric: str) -> List[float]:
        """One metric's trajectory (entries missing it are skipped)."""
        return [
            entry.metrics[metric]
            for entry in self.entries(key=key)
            if metric in entry.metrics
        ]

    def check(
        self,
        key: str,
        metrics: Optional[Iterable[str]] = None,
        window: int = 5,
        tolerance: float = 0.1,
    ) -> List[Dict]:
        """Run the regression detector for each metric of one key.

        ``metrics`` defaults to every metric the latest entry carries;
        each check's direction comes from :func:`metric_direction`.
        Returns one result row per metric (``metric`` added to the
        :func:`detect_regression` dict).
        """
        latest = self.latest(key)
        if latest is None:
            return []
        names = list(metrics) if metrics is not None else sorted(latest.metrics)
        results = []
        for name in names:
            series = self.series(key, name)
            result = detect_regression(
                series,
                window=window,
                tolerance=tolerance,
                direction=metric_direction(name),
            )
            result["metric"] = name
            results.append(result)
        return results

    def compare(
        self,
        baseline: HistoryEntry,
        entry: Optional[HistoryEntry] = None,
        tolerance: float = 0.1,
    ) -> List[Dict]:
        """Diff one entry (default: the latest with the baseline's key)
        against a baseline entry, metric by metric."""
        if entry is None:
            entry = self.latest(baseline.key)
        if entry is None:
            return []
        rows = []
        for name in sorted(set(baseline.metrics) & set(entry.metrics)):
            base, current = baseline.metrics[name], entry.metrics[name]
            direction = metric_direction(name)
            ratio = current / base if base else (1.0 if current == base else float("inf"))
            if direction == "higher":
                ok = current >= base * (1.0 - tolerance)
            else:
                ok = current <= base * (1.0 + tolerance)
            rows.append(
                {
                    "metric": name,
                    "baseline": base,
                    "current": current,
                    "ratio": round(ratio, 4) if ratio != float("inf") else ratio,
                    "direction": direction,
                    "ok": ok,
                }
            )
        return rows

    def __repr__(self) -> str:
        return f"RunHistory({self.path})"
