"""Telemetry: counters, histograms, gauges, and sim-clock-aware tracing.

The observability spine of the reproduction.  One :class:`TelemetryHub`
per run (owned by the :class:`~repro.sim.kernel.Kernel`) collects

* **metrics** — named instruments following the ``layer.component.name``
  convention (``net.rpc.latency``, ``core.server.executed``, ...);
* **spans** — timed operations linked into traces whose context
  propagates across RPC hops in ``RpcRequest.trace``, so one MS-PSDS
  step decomposes end-to-end into integrate → propose → execute → commit
  (the paper's Figure-5 step-time breakdown);
* **records** — the structured events subsystems emit through
  ``Kernel.emit``, streamed to the sinks that take them and kept by none
  of the hub's own structures;
* **exports** — a JSONL trace/metrics dump validated by
  :mod:`repro.telemetry.schema` and rendered by
  :mod:`repro.telemetry.report`.
"""

from repro.telemetry.hub import (
    InMemorySink,
    JsonlSink,
    ScopedTelemetry,
    TelemetryHub,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
)
from repro.telemetry.schema import (
    SCHEMA_ID,
    SchemaError,
    validate_jsonl_export,
    validate_metric_name,
    validate_metrics_payload,
)
from repro.telemetry.spans import LogRecord, Span, TraceContext, Tracer

__all__ = [
    "TelemetryHub",
    "ScopedTelemetry",
    "InMemorySink",
    "JsonlSink",
    "MetricRegistry",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "LogRecord",
    "TraceContext",
    "SCHEMA_ID",
    "SchemaError",
    "validate_metric_name",
    "validate_metrics_payload",
    "validate_jsonl_export",
]
