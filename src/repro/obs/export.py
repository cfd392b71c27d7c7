"""Registry exporters and the run → registry bridge.

``registry_from_summary`` converts a finished run's
:class:`~repro.runner.summary.RunSummary` into a
:class:`~repro.obs.metrics.MetricsRegistry`.  A summary made in-process
and one pickled back from a worker produce the same registry, which is
what lets the golden-snapshot suite compare ``--jobs 1`` and ``--jobs
2`` bit for bit.

Two text formats:

* ``to_openmetrics`` — Prometheus/OpenMetrics-style exposition
  (``# TYPE``/``# HELP`` headers, cumulative ``_bucket{le=...}``
  histogram series);
* ``to_json`` — canonical JSON (sorted keys, stable indentation), the
  format the goldens are stored in.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, bucket_upper_bound


# ----------------------------------------------------------------------
# run -> registry
# ----------------------------------------------------------------------
def registry_from_summary(
    summary, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Project a finished run's
    :class:`~repro.runner.summary.RunSummary` onto a metrics registry.
    Only deterministic simulation state is exported — no wall-clock
    values — so identical runs yield identical registries regardless
    of the execution path.
    """
    registry = registry if registry is not None else MetricsRegistry()
    scheme = summary.scheme.value
    workload = summary.workload_name

    registry.gauge(
        "repro_run_info", help="constant 1; run identity carried in labels"
    ).set(1, scheme=scheme, workload=workload)
    registry.gauge(
        "repro_run_time_cycles", help="simulated cycles of the slowest node"
    ).set(summary.total_time)
    registry.counter(
        "repro_run_barriers_total", help="global barrier episodes"
    ).inc(summary.barriers)

    refs = registry.counter(
        "repro_node_refs_total", help="memory references issued per node"
    )
    for node, count in enumerate(summary.refs_per_node):
        refs.inc(count, node=node)

    time_cycles = registry.counter(
        "repro_node_time_cycles_total",
        help="per-node simulated cycles by breakdown component",
    )
    for node, breakdown in enumerate(summary.breakdowns):
        for component, cycles in breakdown.to_dict().items():
            time_cycles.inc(cycles, node=node, component=component)

    events = registry.counter(
        "repro_events_total", help="merged simulator counters by event name"
    )
    for name, value in sorted(summary.counters.items()):
        events.inc(value, event=name)

    timing = summary.timing_summary()
    if timing is not None:
        registry.gauge(
            "repro_translation_entries", help="translation-buffer entries per bank"
        ).set(timing["entries"])
        registry.counter(
            "repro_translation_accesses_total", help="translation lookups"
        ).inc(timing["accesses"])
        registry.counter(
            "repro_translation_misses_total", help="translation misses"
        ).inc(timing["misses"])
        registry.gauge(
            "repro_translation_miss_rate", help="misses / accesses"
        ).set(round(timing["miss_rate"], 9))

    for direction, hist in (("read", summary.read_latency), ("write", summary.write_latency)):
        if hist is not None and hist.count:
            hist.to_metrics(
                registry,
                family=f"repro_{direction}_latency_cycles",
                help=f"{direction} stall latency distribution (cycles)",
            )
    return registry


# ----------------------------------------------------------------------
# text formats
# ----------------------------------------------------------------------
def _format_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _labels_text(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + inner + "}"


def to_openmetrics(registry: MetricsRegistry) -> str:
    """OpenMetrics-style text exposition of a registry."""
    lines = []
    for metric in registry:
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for key, value in metric.samples():
            if metric.kind == "histogram":
                cumulative = 0
                for bucket in sorted(value.buckets):
                    cumulative += value.buckets[bucket]
                    le = (("le", str(bucket_upper_bound(bucket))),)
                    lines.append(
                        f"{metric.name}_bucket{_labels_text(key + le)} {cumulative}"
                    )
                inf = (("le", "+Inf"),)
                lines.append(
                    f"{metric.name}_bucket{_labels_text(key + inf)} {value.count}"
                )
                lines.append(f"{metric.name}_sum{_labels_text(key)} {value.total}")
                lines.append(f"{metric.name}_count{_labels_text(key)} {value.count}")
            else:
                lines.append(
                    f"{metric.name}{_labels_text(key)} {_format_value(value)}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """Canonical JSON form (sorted keys — the golden-snapshot format)."""
    return json.dumps(registry.to_dict(), indent=indent, sort_keys=True) + "\n"


_FORMATS = ("json", "openmetrics")


def write_metrics(registry: MetricsRegistry, path: str, format: str = "auto") -> str:
    """Write a registry to ``path``; returns the format used.

    ``format='auto'`` infers from the extension: ``.prom`` / ``.txt``
    / ``.om`` → openmetrics, anything else → json.
    """
    if format == "auto":
        lowered = str(path).lower()
        format = (
            "openmetrics"
            if lowered.endswith((".prom", ".txt", ".om"))
            else "json"
        )
    if format not in _FORMATS:
        raise ConfigurationError(
            f"unknown metrics format {format!r} (expected one of {_FORMATS})"
        )
    text = to_json(registry) if format == "json" else to_openmetrics(registry)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return format


def diff_registries(expected: Dict, actual: Dict) -> str:
    """Human-readable field-by-field diff of two ``to_dict()`` forms.

    Used by the golden-snapshot suite so a mismatch names the exact
    family/sample that drifted instead of dumping two JSON blobs.
    Accepts :class:`MetricsRegistry` objects or their ``to_dict()``
    forms interchangeably.
    """
    if hasattr(expected, "to_dict"):
        expected = expected.to_dict()
    if hasattr(actual, "to_dict"):
        actual = actual.to_dict()
    lines = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            lines.append(f"- family {name}: missing from actual")
            continue
        if name not in expected:
            lines.append(f"+ family {name}: not in golden")
            continue
        exp, act = expected[name], actual[name]
        for attr in ("kind", "help"):
            if exp.get(attr) != act.get(attr):
                lines.append(
                    f"! {name}.{attr}: golden={exp.get(attr)!r} "
                    f"actual={act.get(attr)!r}"
                )
        exp_samples = {
            tuple(sorted(s.get("labels", {}).items())): s for s in exp.get("samples", [])
        }
        act_samples = {
            tuple(sorted(s.get("labels", {}).items())): s for s in act.get("samples", [])
        }
        for labels in sorted(set(exp_samples) | set(act_samples)):
            label_text = _labels_text(labels) or "{}"
            if labels not in act_samples:
                lines.append(f"- {name}{label_text}: missing from actual")
            elif labels not in exp_samples:
                lines.append(f"+ {name}{label_text}: not in golden")
            elif exp_samples[labels] != act_samples[labels]:
                exp_v = {k: v for k, v in exp_samples[labels].items() if k != "labels"}
                act_v = {k: v for k, v in act_samples[labels].items() if k != "labels"}
                lines.append(
                    f"! {name}{label_text}: golden={exp_v} actual={act_v}"
                )
    return "\n".join(lines)
