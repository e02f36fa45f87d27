"""Schema validation for ``repro.monitor/v1`` payloads.

Everything the operations console moves over the wire — health SDEs,
streamed metric snapshots, alerts — is a plain dict carrying
``schema: "repro.monitor/v1"`` and a ``kind`` discriminator, validated at
both the publishing and the consuming end.  Hand-rolled in the style of
:mod:`repro.telemetry.schema`: stdlib only, JSON-path error messages.

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

from typing import Any

from repro.telemetry.schema import validate_metric_record
from repro.util.errors import SchemaError
from repro.util.schema import schema_checks

SCHEMA_ID = "repro.monitor/v1"

HEALTH_STATUSES = ("starting", "running", "degraded", "stopped")
ALERT_KINDS = ("stall", "slow_site", "stream_health", "breaker_open",
               "slo_burn", "queue_redelivery")
ALERT_SEVERITIES = ("info", "warning", "critical")

# Streamed summaries carry p95 (the slow-site detector's budget input)
# instead of the exporter's p90.
_SUMMARY_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")


class MonitorSchemaError(SchemaError):
    """A monitor payload does not match the ``repro.monitor/v1`` shape."""


_CHECKS = schema_checks(MonitorSchemaError)
_, _require, _check_number, _check_int, _check_document = _CHECKS


def _check_envelope(payload: Any, kind: str) -> None:
    _check_document(payload, SCHEMA_ID, kind)
    source = payload.get("source")
    _require(isinstance(source, str) and bool(source), "$.source",
             "source must be a non-empty string")
    _check_number(payload.get("time"), "$.time")


def validate_health_payload(payload: Any) -> None:
    """A ``health`` SDE value.

    Shape::

        {"schema": "repro.monitor/v1", "kind": "health",
         "source": "ntcp-uiuc", "time": 42.0, "status": "running",
         "backlog": 0, "step"?: 17, "plugin"?: "matlab", "detail": {...}}
    """
    _check_envelope(payload, "health")
    status = payload.get("status")
    _require(status in HEALTH_STATUSES, "$.status",
             f"status must be one of {HEALTH_STATUSES}, got {status!r}")
    _check_int(payload.get("backlog"), "$.backlog", minimum=0)
    if "step" in payload:
        _check_int(payload["step"], "$.step", minimum=-1)
    if "plugin" in payload:
        _require(isinstance(payload["plugin"], str), "$.plugin",
                 "plugin must be a string")
    _require(isinstance(payload.get("detail", {}), dict), "$.detail",
             "detail must be an object")


def _check_metric_record(record: Any, path: str) -> None:
    validate_metric_record(record, path, summary_keys=_SUMMARY_KEYS,
                           checks=_CHECKS)
    if record["type"] == "counter":
        _check_number(record.get("total"), f"{path}.total")
        _require(record["total"] + 1e-9 >= record["value"],
                 f"{path}.total", "cumulative total below the delta")


def validate_metrics_sample(payload: Any) -> None:
    """One streamed metrics snapshot (an NSDS sample value).

    Shape::

        {"schema": "repro.monitor/v1", "kind": "metrics",
         "source": "coord", "time": 120.0, "seq": 4, "metrics": [...]}

    Counters carry the delta since the previous flush in ``value`` plus
    the cumulative ``total`` (so a consumer behind a lossy stream can
    resynchronise); histograms carry a cumulative summary.
    """
    _check_envelope(payload, "metrics")
    _check_int(payload.get("seq"), "$.seq", minimum=1)
    metrics = payload.get("metrics")
    _require(isinstance(metrics, list), "$.metrics", "metrics must be a list")
    for i, record in enumerate(metrics):
        _check_metric_record(record, f"$.metrics[{i}]")


def validate_alert_payload(payload: Any) -> None:
    """One typed alert record.

    Shape::

        {"schema": "repro.monitor/v1", "kind": "alert",
         "source": "monitor-console", "time": 310.0,
         "alert_id": "monitor-console-0001", "alert": "stall",
         "severity": "critical", "step": 24, "site": null,
         "message": "...", "detail": {...}}
    """
    _check_envelope(payload, "alert")
    alert_id = payload.get("alert_id")
    _require(isinstance(alert_id, str) and bool(alert_id), "$.alert_id",
             "alert_id must be a non-empty string")
    taxonomy = payload.get("alert")
    _require(taxonomy in ALERT_KINDS, "$.alert",
             f"alert must be one of {ALERT_KINDS}, got {taxonomy!r}")
    severity = payload.get("severity")
    _require(severity in ALERT_SEVERITIES, "$.severity",
             f"severity must be one of {ALERT_SEVERITIES}, got {severity!r}")
    _check_int(payload.get("step"), "$.step", minimum=-1)
    site = payload.get("site")
    _require(site is None or (isinstance(site, str) and bool(site)),
             "$.site", "site must be a non-empty string or null")
    message = payload.get("message")
    _require(isinstance(message, str) and bool(message), "$.message",
             "message must be a non-empty string")
    _require(isinstance(payload.get("detail", {}), dict), "$.detail",
             "detail must be an object")
