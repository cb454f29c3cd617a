"""Runtime observability: counters, histograms, spans, exporters.

A dependency-free telemetry layer for the scanning runtime.  Call sites
instrument through the module facade::

    from repro import obs

    obs.counter("software_scans_total", backend="dense").inc()
    with obs.span("engine.run", engine="CSE"):
        ...

By default nothing is recorded: every helper degrades to a shared no-op
singleton (one global load + one ``is None`` test), so instrumented code
is near-free until someone opts in with :func:`enable` (or scoped
:func:`using`).  Enabled, events land in a :class:`MetricRegistry` whose
plain-dict :meth:`~MetricRegistry.snapshot` crosses process boundaries
and merges exactly (:meth:`~MetricRegistry.merge`) — this is how
``segment_pool`` workers report back to the parent.

Exporters (:mod:`repro.obs.exporters`) render a snapshot as JSON,
JSON-lines, Prometheus text, or Chrome trace-event JSON (Perfetto).

The live plane (:mod:`repro.obs.live`) keeps the registry observable
while a deployment runs: :func:`serve` exposes ``/metrics`` +
``/snapshot.json`` over HTTP, :func:`enable_flight` arms a bounded
flight recorder with dump-on-exception postmortems, :func:`profile`
samples wall-clock folded stacks, and ``repro top`` renders snapshot
deltas live.  :func:`trace` scopes a ``trace_id`` over one logical scan
so spans from every pool worker reassemble into one Chrome trace.
"""

from repro.obs.exporters import (
    METRIC_HELP,
    chrome_trace,
    load_snapshot,
    prometheus_text,
    to_json,
    to_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.live import (
    FlightRecorder,
    ObsServer,
    SamplingProfiler,
    active_flight,
    disable_flight,
    enable_flight,
    format_tail,
    install_excepthook,
    profile,
    record_scan,
    serve,
    top,
)
from repro.obs.recorder import (
    NOOP_METRIC,
    NOOP_SPAN,
    active,
    counter,
    current_trace_id,
    disable,
    enable,
    gauge,
    histogram,
    is_enabled,
    new_trace_id,
    record_span,
    span,
    trace,
    using,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    SpanEvent,
)

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "SpanEvent",
    "DEFAULT_BUCKETS",
    # recorder
    "enable",
    "disable",
    "active",
    "is_enabled",
    "using",
    "counter",
    "gauge",
    "histogram",
    "span",
    "record_span",
    "new_trace_id",
    "current_trace_id",
    "trace",
    "NOOP_METRIC",
    "NOOP_SPAN",
    # exporters
    "to_json",
    "to_jsonl",
    "prometheus_text",
    "chrome_trace",
    "write_metrics",
    "write_trace",
    "load_snapshot",
    "METRIC_HELP",
    # live plane
    "FlightRecorder",
    "ObsServer",
    "SamplingProfiler",
    "active_flight",
    "disable_flight",
    "enable_flight",
    "format_tail",
    "install_excepthook",
    "profile",
    "record_scan",
    "serve",
    "top",
]
