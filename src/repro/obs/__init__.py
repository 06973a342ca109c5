"""Unified observability: wall-clock spans + deterministic metrics.

The paper opens operator black boxes; this package opens *ours*.  A
:class:`Tracer` threads through the optimizer (enumeration,
per-alternative costing, memo invalidation), the engine (per-stage and
per-partition execution, fork workers shipping span primitives back on
their own timeline lanes), and the feedback loop (ingest/sync/
conflict-retry, mid-query boundary decisions).  The default
is the shared :data:`NOOP_TRACER` with near-zero overhead, and tracing
reads wall clock only — modeled records/metrics/seconds are bit-identical
on or off.

Exporters: JSONL span log, Chrome trace-event JSON (Perfetto-loadable),
Prometheus-style metrics text.  ``repro trace summarize`` renders the
self-time breakdown.
"""

from .export import (
    chrome_events,
    render_prometheus,
    span_rows,
    write_chrome,
    write_jsonl,
    write_prometheus,
    write_trace,
)
from .summarize import (
    SpanAggregate,
    TraceSpan,
    load_trace,
    render_summary,
    self_times,
    summarize,
)
from .tracer import NOOP_TRACER, MetricsRegistry, NoopTracer, Span, Tracer, clock

__all__ = [
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "SpanAggregate",
    "TraceSpan",
    "Tracer",
    "chrome_events",
    "clock",
    "load_trace",
    "render_prometheus",
    "render_summary",
    "self_times",
    "span_rows",
    "summarize",
    "write_chrome",
    "write_jsonl",
    "write_prometheus",
    "write_trace",
]
