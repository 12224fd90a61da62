"""Unified observability: spans, metrics, Perfetto export.

The cross-cutting tracing/metrics substrate the paper's porting teams
had and the reproduction lacked: nested spans on simulated clocks
(:mod:`.tracer`), counters/gauges/histograms (:mod:`.metrics`), one
merged Chrome-trace/Perfetto JSON unifying subsystem spans with GPU
launch records (:mod:`.export`).

Instrumented substrates (``SimComm``, ``ResilientRunner``,
``BatchedBdfIntegrator``, the GEMM-tally engine, the experiment
drivers) all accept an optional ``tracer``; passing ``None`` (the
default) keeps every call site a single pointer test — tracing off is
free, and tracing on is observation-only (bit-effect-free).
"""

from repro.observability.export import (
    SpanSummary,
    TraceFormatError,
    export_chrome_trace,
    hot_spans_report,
    merged_trace_events,
    metrics_report,
    subsystems_in_trace,
    summarize_spans,
    validate_chrome_trace,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.observability.tracer import (
    NULL_TRACER,
    Instant,
    NullTracer,
    Span,
    TraceError,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsError",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanSummary",
    "TraceError",
    "TraceFormatError",
    "Tracer",
    "export_chrome_trace",
    "hot_spans_report",
    "merged_trace_events",
    "metrics_report",
    "subsystems_in_trace",
    "summarize_spans",
    "validate_chrome_trace",
]
