"""Process-wide runtime health metrics (the degradation ladder's ledger).

The per-run registries (``registry_from_summary``, ``GridStats
.to_metrics``) snapshot *one finished run* and are pinned by golden
files; runtime health events — a compiled run degrading to the scalar
oracle mid-grid, a corrupt cache entry quarantined, a stale ``.so``
moved aside — are process-scoped and cut across runs, so they live in
their own registry here.  ``repro doctor`` and ``GridStats`` read it;
:mod:`repro.core.ladder` and the cache tier write it.

Every recording helper is also a **warn-once** site: the first
occurrence of each distinct event key raises a ``RuntimeWarning`` so
interactive users see the degradation exactly once, while a 10k-job
grid that falls back 10k times doesn't print 10k warnings.  Counters
keep the true totals.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry

_lock = threading.Lock()
_registry = MetricsRegistry()
_warned: Set[Tuple[str, ...]] = set()


def runtime_registry() -> MetricsRegistry:
    """The process-wide runtime health registry (live; not a copy)."""
    return _registry


def reset_runtime_metrics() -> None:
    """Drop all recorded events and re-arm warn-once (test hook)."""
    global _registry
    with _lock:
        _registry = MetricsRegistry()
        _warned.clear()


def warn_once(key: Tuple[str, ...], message: str) -> bool:
    """Emit ``message`` as a RuntimeWarning the first time ``key`` is
    seen in this process; returns True when the warning fired."""
    with _lock:
        if key in _warned:
            return False
        _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    return True


# ---------------------------------------------------------------------------
# degradation-ladder events
# ---------------------------------------------------------------------------


def record_fallback(tier: str, reason: str, quiet: bool = False) -> None:
    """One run degraded off ``tier`` (e.g. ``"compiled"``) for
    ``reason``.  Counted per tier; warned once per (tier, reason)."""
    _registry.counter(
        "repro_backend_fallbacks_total",
        help="runs degraded to a lower ladder tier",
    ).inc(1, tier=tier)
    if not quiet:
        warn_once(
            ("fallback", tier, reason),
            f"degraded off the {tier} engine: {reason} "
            "(results are produced by a lower ladder tier, bit-identically; "
            "`repro doctor` shows backend health)",
        )


def fallback_counts() -> Dict[str, int]:
    """Tier -> degraded-run count recorded so far this process."""
    metric = _registry.get("repro_backend_fallbacks_total")
    if metric is None:
        return {}
    counts: Dict[str, int] = {}
    for labels, value in metric.samples():
        tier = dict(labels).get("tier", "?")
        counts[tier] = counts.get(tier, 0) + int(value)
    return counts


def record_library_quarantine() -> None:
    """A cached fastsim ``.so`` failed verification and was moved aside."""
    _registry.counter(
        "repro_fastsim_quarantined_libraries_total",
        help="cached compiled libraries quarantined (digest/self-test failure)",
    ).inc(1)
    warn_once(
        ("library-quarantine",),
        "quarantined a corrupt or stale compiled fastsim library; "
        "rebuilding from source",
    )


# ---------------------------------------------------------------------------
# cache-tier events
# ---------------------------------------------------------------------------


def record_quarantine(store: str, path: Optional[str] = None, reason: str = "") -> None:
    """A cache-tier file (result entry, tap trace, orphaned temp file)
    was quarantined instead of trusted or silently deleted."""
    _registry.counter(
        "repro_store_quarantined_files_total",
        help="corrupt or partial cache-tier files quarantined",
    ).inc(1, store=store)
    detail = f" ({reason})" if reason else ""
    warn_once(
        ("store-quarantine", store, reason),
        f"{store}: quarantined {path or 'a file'}{detail}; "
        "previously committed entries are unaffected",
    )


def record_eviction(store: str, count: int = 1) -> None:
    """LRU size-cap eviction removed ``count`` files from ``store``."""
    if count <= 0:
        return
    _registry.counter(
        "repro_store_evicted_files_total",
        help="cache-tier files removed by LRU size-cap eviction",
    ).inc(count, store=store)


def record_corrupt_trace() -> None:
    """A stored tap trace failed to parse (``TraceStore.corrupt_dropped``)."""
    _registry.counter(
        "repro_trace_corrupt_dropped_total",
        help="tap traces dropped as corrupt on load",
    ).inc(1)


def counter_value(name: str, **labels) -> int:
    """Convenience read of one counter sample (0 when never recorded)."""
    metric = _registry.get(name)
    if metric is None:
        return 0
    return int(metric.value(**labels))
