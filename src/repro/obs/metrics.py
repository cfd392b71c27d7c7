"""A unified metrics registry: labeled counters, gauges, histograms.

The registry subsumes the ad-hoc statistics containers scattered through
the simulator (:class:`~repro.common.stats.Counters` bags, per-node
:class:`~repro.common.stats.LatencyHistogram`\\ s, runner
:class:`~repro.runner.summary.GridStats`) behind one model:

* a **metric family** has a kind (counter / gauge / histogram), a name,
  and help text;
* each family holds **samples** keyed by a frozen label set
  (``{"node": "3"}``), so per-node, per-scheme, or per-phase series
  live side by side;
* families and whole registries **merge**: counters and histogram
  buckets sum, gauges take the maximum.  Merge is commutative and
  associative (and, for gauges, idempotent), so reducing results from
  worker processes is order-independent — the same property the
  existing ``Counters.merge`` / ``LatencyHistogram.merge`` rely on,
  verified by ``tests/property/test_prop_obs.py``.

Histograms use the same power-of-two bucketing as
:class:`~repro.common.stats.LatencyHistogram` (bucket ``i`` counts
values in ``[2^i, 2^(i+1))``, bucket 0 additionally holds zeros), which
is what makes the ``to_metrics()`` adapters on the legacy containers
lossless.

Exporters live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import re
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Frozen label set: sorted (name, value) pairs, all strings.
LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def freeze_labels(labels: Dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) form of a label dict."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def bucket_of(value: float) -> int:
    """Power-of-two bucket index (shared with LatencyHistogram)."""
    value = int(value)
    return value.bit_length() - 1 if value > 0 else 0


def bucket_upper_bound(bucket: int) -> int:
    """Inclusive upper bound of one power-of-two bucket."""
    return (1 << (bucket + 1)) - 1


class _HistogramValue:
    """Bucketed state of one histogram sample (one label set)."""

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        bucket = bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += int(value)

    def absorb(self, buckets: Dict[int, int], count: int, total: int) -> None:
        """Fold pre-bucketed state in (adapter / merge path)."""
        for bucket, n in buckets.items():
            bucket = int(bucket)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + int(n)
        self.count += int(count)
        self.total += int(total)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """Upper bound of the bucket containing the given quantile;
        0 when the histogram is empty."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if not self.count:
            return 0
        threshold = fraction * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= threshold:
                return bucket_upper_bound(bucket)
        return bucket_upper_bound(max(self.buckets))

    def to_dict(self) -> Dict:
        return {
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
            "count": self.count,
            "sum": self.total,
        }


class Metric:
    """One metric family: a kind, a name, and labeled samples."""

    kind: str = "untyped"

    __slots__ = ("name", "help", "_samples")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._samples: Dict[LabelKey, object] = {}

    def samples(self) -> Iterator[Tuple[LabelKey, object]]:
        """(labels, value) pairs in deterministic (sorted-label) order."""
        for key in sorted(self._samples):
            yield key, self._samples[key]

    def __len__(self) -> int:
        return len(self._samples)


class Counter(Metric):
    """A monotonically accumulating sum per label set."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (amount={amount})"
            )
        key = freeze_labels(labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._samples.get(freeze_labels(labels), 0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._samples.values())


class Gauge(Metric):
    """A point-in-time value per label set.

    Merging two registries keeps the **maximum** per label set — the
    only reduction that is commutative, associative, and idempotent.
    Gauges that must not be reduced this way (e.g. per-worker rates)
    should carry a distinguishing label instead.
    """

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._samples[freeze_labels(labels)] = value

    def value(self, **labels: object) -> float:
        return self._samples.get(freeze_labels(labels), 0)


class Histogram(Metric):
    """A power-of-two-bucketed distribution per label set."""

    kind = "histogram"

    def _state(self, key: LabelKey) -> _HistogramValue:
        state = self._samples.get(key)
        if state is None:
            state = self._samples[key] = _HistogramValue()
        return state

    def observe(self, value: float, **labels: object) -> None:
        self._state(freeze_labels(labels)).observe(value)

    def absorb(
        self,
        buckets: Dict[int, int],
        count: int,
        total: int,
        **labels: object,
    ) -> None:
        """Fold pre-bucketed state (e.g. a LatencyHistogram) in."""
        self._state(freeze_labels(labels)).absorb(buckets, count, total)

    def state(self, **labels: object) -> _HistogramValue:
        return self._state(freeze_labels(labels))


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named collection of metric families.

    >>> reg = MetricsRegistry()
    >>> reg.counter("repro_reads").inc(3, node=0)
    >>> reg.counter("repro_reads").value(node=0)
    3
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help=help)
        elif type(metric) is not cls:
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        elif help and not metric.help:
            metric.help = help
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Metric]:
        """Families in deterministic (name-sorted) order."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry combining both operands.

        Counters and histogram buckets sum; gauges keep the per-label
        maximum.  Commutative and associative, so any reduction tree
        over worker results yields the same registry.
        """
        merged = MetricsRegistry()
        for source in (self, other):
            for metric in source:
                target = merged._get_or_create(
                    type(metric), metric.name, metric.help
                )
                for key, value in metric.samples():
                    if metric.kind == "counter":
                        target._samples[key] = target._samples.get(key, 0) + value
                    elif metric.kind == "gauge":
                        if key in target._samples:
                            target._samples[key] = max(target._samples[key], value)
                        else:
                            target._samples[key] = value
                    else:
                        target._state(key).absorb(
                            value.buckets, value.count, value.total
                        )
        return merged

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Deterministic JSON-serializable form."""
        families = {}
        for metric in self:
            samples = []
            for key, value in metric.samples():
                entry: Dict[str, object] = {"labels": dict(key)}
                if metric.kind == "histogram":
                    entry.update(value.to_dict())
                else:
                    entry["value"] = value
                samples.append(entry)
            families[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": samples,
            }
        return families

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        registry = cls()
        for name, family in data.items():
            kind = family.get("kind", "untyped")
            metric_cls = _KINDS.get(kind)
            if metric_cls is None:
                raise ConfigurationError(f"unknown metric kind {kind!r} for {name!r}")
            metric = registry._get_or_create(
                metric_cls, name, family.get("help", "")
            )
            for sample in family.get("samples", ()):
                key = freeze_labels(sample.get("labels", {}))
                if kind == "histogram":
                    metric._state(key).absorb(
                        {int(b): n for b, n in sample.get("buckets", {}).items()},
                        sample.get("count", 0),
                        sample.get("sum", 0),
                    )
                elif kind == "counter":
                    metric._samples[key] = metric._samples.get(key, 0) + sample["value"]
                else:
                    metric._samples[key] = sample["value"]
        return registry

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} families)"


class PhaseTimer:
    """Wall-clock phase timers feeding a registry.

    Each completed phase records its duration as a
    ``<name>_seconds{phase=...}`` gauge and, when an item count is
    reported, an ``<name>_items_per_sec{phase=...}`` gauge (the
    refs/sec-over-time surface the report appendix renders).
    """

    def __init__(self, registry: MetricsRegistry, name: str = "repro_phase") -> None:
        self._registry = registry
        self._name = name
        self.phases: List[Dict[str, object]] = []

    class _Phase:
        def __init__(self, timer: "PhaseTimer", label: str) -> None:
            self._timer = timer
            self._label = label
            self._started: Optional[float] = None
            self.items: Optional[float] = None

        def add_items(self, count: float) -> None:
            """Report how many items (refs, jobs) this phase processed."""
            self.items = (self.items or 0) + count

        def __enter__(self) -> "PhaseTimer._Phase":
            self._started = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb) -> None:
            elapsed = time.perf_counter() - self._started
            self._timer._finish(self._label, elapsed, self.items)

    def phase(self, label: str) -> "PhaseTimer._Phase":
        return PhaseTimer._Phase(self, label)

    def _finish(self, label: str, seconds: float, items: Optional[float]) -> None:
        entry: Dict[str, object] = {"phase": label, "seconds": seconds}
        self._registry.gauge(
            f"{self._name}_seconds", help="wall-clock seconds per phase"
        ).set(round(seconds, 6), phase=label)
        if items is not None:
            rate = items / seconds if seconds > 0 else 0.0
            entry["items"] = items
            entry["items_per_sec"] = rate
            self._registry.gauge(
                f"{self._name}_items_per_sec", help="items processed per second"
            ).set(round(rate, 3), phase=label)
        self.phases.append(entry)

    def render(self) -> str:
        lines = []
        for entry in self.phases:
            line = f"{entry['phase']:<18} {entry['seconds']:8.2f} s"
            if "items" in entry:
                line += (
                    f"  {entry['items']:>10,.0f} items"
                    f"  ({entry['items_per_sec']:>10,.0f}/s)"
                )
            lines.append(line)
        return "\n".join(lines) if lines else "(no phases)"
