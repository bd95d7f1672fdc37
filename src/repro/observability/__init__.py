"""repro.observability — the telemetry layer every other layer reports to.

The reproduction stack is engine → api → runner/dynamic → service; this
package is the fifth layer beside them, the one the other four publish
into.  It is stdlib-only and deliberately small:

* :mod:`~repro.observability.metrics` — thread-safe ``Counter`` /
  ``Gauge`` / ``Histogram`` instruments in labeled families, registered
  in a :class:`MetricsRegistry` whose single lock makes compound
  updates and snapshots atomic; Prometheus text exposition
  (:meth:`MetricsRegistry.render`) and a matching
  :func:`parse_exposition` scraper; a process-wide
  :func:`default_registry` plus injectable instances, and a no-op
  :class:`NullRegistry` for overhead baselines; and the
  :class:`RequestStages` ledger, which times a priced request's stage
  once into the stage histogram, its span and its log line.
* :mod:`~repro.observability.logs` — :class:`RequestLogger` structured
  JSON request logs (one line per priced request) and
  :func:`scenario_hash` key digests.
* :mod:`~repro.observability.tracing` — distributed **request spans**
  (distinct from ``repro.traces`` workload traces): the
  :class:`Span`/:class:`SpanContext` model with W3C-traceparent-style
  propagation, the thread-safe bounded :class:`SpanRecorder` (JSONL
  export, :data:`NULL_SPAN_RECORDER` when disabled), and the
  forest-reconstruction/report helpers behind
  ``python -m repro spans report``.
"""

from repro.observability.logs import RequestLogger, scenario_hash
from repro.observability.metrics import (
    BATCH_OCCUPANCY_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    RequestStages,
    default_registry,
    format_value,
    merge_expositions,
    parse_exposition,
    relabel_exposition,
    sample_total,
    stage_histogram,
)
from repro.observability.tracing import (
    NULL_SPAN_RECORDER,
    SPAN_ATTRIBUTE_KEYS,
    NullSpanRecorder,
    Span,
    SpanContext,
    SpanRecorder,
    load_span_logs,
    parse_traceparent,
    render_span_report,
    span_forest,
    span_report,
)

__all__ = [
    "BATCH_OCCUPANCY_BUCKETS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN_RECORDER",
    "NullRegistry",
    "NullSpanRecorder",
    "RequestLogger",
    "RequestStages",
    "SPAN_ATTRIBUTE_KEYS",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "default_registry",
    "format_value",
    "load_span_logs",
    "merge_expositions",
    "parse_exposition",
    "parse_traceparent",
    "relabel_exposition",
    "render_span_report",
    "sample_total",
    "scenario_hash",
    "span_forest",
    "span_report",
    "stage_histogram",
]
