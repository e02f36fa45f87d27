"""Schema validation for ``repro.monitor/v1`` payloads.

Everything the operations console moves over the wire — health SDEs,
streamed metric snapshots, alerts — is a plain dict carrying
``schema: "repro.monitor/v1"`` and a ``kind`` discriminator: health and
alert payloads are validated where they are published, a metrics sample
by each receiver it lands in (its producer is pinned by test instead,
see :mod:`repro.monitor.streamer`).  Each kind is a shape value
built from the :mod:`repro.util.schema` kit (the metric records reuse
:func:`repro.telemetry.schema.metric_record`), compiled once at import.

Payload kinds:

* ``health`` — one service's liveness snapshot, published as the
  ``health`` SDE (status, open-transaction backlog, last committed step);
* ``metrics`` — one :class:`~repro.monitor.streamer.TelemetryStreamer`
  flush: counter deltas + cumulative totals, gauge values, histogram
  summaries (with the operator-facing p95), sequenced per source;
* ``alert`` — one typed anomaly record (stall / slow_site /
  stream_health / breaker_open / slo_burn) raised by the monitor's
  deterministic detectors or by the observatory's SLO burn-rate rules.
"""

from __future__ import annotations

from repro.telemetry.schema import metric_record
from repro.util.errors import SchemaError
from repro.util.schema import (
    array,
    document,
    integer,
    nullable,
    number,
    obj,
    one_of,
    rule,
    string,
    validator,
)

SCHEMA_ID = "repro.monitor/v1"

HEALTH_STATUSES = ("starting", "running", "degraded", "stopped")
ALERT_KINDS = ("stall", "slow_site", "stream_health", "breaker_open",
               "slo_burn")
ALERT_SEVERITIES = ("info", "warning", "critical")

#: the stats of :meth:`Histogram.summary` a streamed record carries: p95
#: (the slow-site detector's budget input) instead of the exporter's p90
SUMMARY_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")


class MonitorSchemaError(SchemaError):
    """A monitor payload does not match the ``repro.monitor/v1`` shape."""


_ENVELOPE = {"source": string(), "time": number()}

#: A ``health`` SDE value.
#:
#: Shape::
#:
#:     {"schema": "repro.monitor/v1", "kind": "health",
#:      "source": "ntcp-uiuc", "time": 42.0, "status": "running",
#:      "backlog": 0, "step"?: 17, "plugin"?: "matlab", "detail": {...}}
validate_health_payload = validator(MonitorSchemaError, document(
    SCHEMA_ID, {**_ENVELOPE, "status": one_of(*HEALTH_STATUSES),
                "backlog": integer(0)},
    {"step": integer(-1), "plugin": string(empty=True), "detail": obj({})},
    kind="health"))

#: One streamed metrics snapshot (an NSDS sample value).
#:
#: Shape::
#:
#:     {"schema": "repro.monitor/v1", "kind": "metrics",
#:      "source": "coord", "time": 120.0, "seq": 4, "metrics": [...]}
#:
#: Counters carry the delta since the previous flush in ``value`` plus
#: the cumulative ``total`` (so a consumer behind a lossy stream can
#: resynchronise); histograms carry a cumulative summary.
validate_metrics_sample = validator(MonitorSchemaError, document(
    SCHEMA_ID, {
        **_ENVELOPE, "seq": integer(1),
        "metrics": array(metric_record(SUMMARY_KEYS, counter=obj(
            {"value": number(), "total": number()}, None,
            rule(".total", "cumulative total below the delta",
                 lambda rec: rec["total"] + 1e-9 >= rec["value"])))),
    }, kind="metrics"))

#: One typed alert record.
#:
#: Shape::
#:
#:     {"schema": "repro.monitor/v1", "kind": "alert",
#:      "source": "monitor-console", "time": 310.0,
#:      "alert_id": "monitor-console-0001", "alert": "stall",
#:      "severity": "critical", "step": 24, "site": null,
#:      "message": "...", "detail": {...}}
validate_alert_payload = validator(MonitorSchemaError, document(
    SCHEMA_ID, {
        **_ENVELOPE, "alert_id": string(), "alert": one_of(*ALERT_KINDS),
        "severity": one_of(*ALERT_SEVERITIES), "step": integer(-1),
        "message": string(),
    }, {"site": nullable(string()), "detail": obj({})}, kind="alert"))
