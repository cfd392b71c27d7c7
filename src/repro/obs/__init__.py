"""Observability: metrics registry, protocol-event tracing, exporters.

Three pieces, all optional and off by default:

* :mod:`repro.obs.metrics` — a unified registry of labeled counters,
  gauges, and power-of-two-bucketed histograms with commutative,
  associative merge semantics (safe to reduce across worker processes
  in any order).
* :mod:`repro.obs.trace` — structured span/event tracing.  A
  :class:`Tracer` handed to a run on either engine streams one span
  per memory reference and protocol transaction (with parent ids,
  node, latency, outcome) to a JSONL file.  With no tracer attached
  the instrumented hot paths pay a single ``is None`` check.
* :mod:`repro.obs.export` — OpenMetrics-style text exposition and JSON
  export of a registry, plus ``registry_from_summary`` which turns a
  finished run's summary into a metrics registry (the golden-snapshot
  surface).

See ``docs/observability.md`` for the trace schema and workflows.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
)
from repro.obs.trace import Tracer, read_trace
from repro.obs.profile import (
    CostAttribution,
    ReconciliationError,
    TraceProfile,
    attribute_costs,
    profile_trace,
)
from repro.obs.schema import (
    TRACE_FORMAT_VERSION,
    TraceSchemaError,
    scheme_vocabulary,
    validate_trace,
)
from repro.obs.export import (
    registry_from_summary,
    to_json,
    to_openmetrics,
    write_metrics,
)

__all__ = [
    "CostAttribution",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimer",
    "ReconciliationError",
    "TRACE_FORMAT_VERSION",
    "TraceProfile",
    "TraceSchemaError",
    "Tracer",
    "attribute_costs",
    "profile_trace",
    "read_trace",
    "registry_from_summary",
    "scheme_vocabulary",
    "to_json",
    "to_openmetrics",
    "validate_trace",
    "write_metrics",
]
