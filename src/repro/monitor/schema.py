"""Schema validation for ``repro.monitor/v1`` payloads.

Everything the operations console moves over the wire — health SDEs,
streamed metric snapshots, alerts — is a plain dict carrying
``schema: "repro.monitor/v1"`` and a ``kind`` discriminator: health and
alert payloads are validated where they are published, a metrics sample
once, by the store the console's one receiver lands it in (its producer
is pinned by test instead, see :mod:`repro.monitor.streamer`).  Each kind is a shape value
built from the :mod:`repro.util.schema` kit (the metric records reuse
:func:`repro.telemetry.schema.metric_record`), compiled once at import.

The store does not walk every record of every flush: it holds a
:func:`metrics_sample_checker`, which checks each sample's envelope,
computes each record's identity once, looks it up in one table from
identity to the store's own route (the series the record feeds), and
checks only the numbers of a record whose identity an accepted sample
proved.  Whatever it cannot prove that way goes through the stateless
:func:`validate_metrics_sample`, the only code that words a refusal, so
the errors are the validator's, byte for byte.  The store then uses
the routes the checker hands back and makes no lookup of its own.

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

import math
from typing import Any, Callable

from repro.telemetry.schema import metric_record
from repro.util.errors import SchemaError
from repro.util.schema import (
    anything,
    array,
    document,
    integer,
    nullable,
    number,
    obj,
    one_of,
    rule,
    string,
    switch,
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


def _covers_delta(record: dict[str, Any]) -> bool:
    try:
        return record["total"] + 1e-9 >= record["value"]
    except OverflowError:
        # a total too large for a float: the finiteness rule refuses it
        return True


#: the numbers a metrics sample must carry finite — the console turns
#: the step counter's total into an int, the store orders points by
#: time — as a rule checked after the whole shape, so every document
#: refused before finiteness was required keeps its refusal text
_FINITE = obj({"time": number(finite=True), "metrics": array(switch(
    "type", counter=obj({"value": number(finite=True),
                         "total": number(finite=True)}),
    gauge=anything, histogram=anything))})

#: One streamed metrics snapshot (an NSDS sample value).
#:
#: Shape::
#:
#:     {"schema": "repro.monitor/v1", "kind": "metrics",
#:      "source": "coord", "time": 120.0, "seq": 4, "metrics": [...]}
#:
#: Counters carry the delta since the previous flush in ``value`` plus
#: the cumulative ``total`` (so a consumer behind a lossy stream can
#: resynchronise); histograms carry a cumulative summary.  The sample's
#: ``time`` and a counter's ``value`` and ``total`` are finite.
validate_metrics_sample = validator(MonitorSchemaError, document(
    SCHEMA_ID, {
        **_ENVELOPE, "seq": integer(1),
        "metrics": array(metric_record(SUMMARY_KEYS, counter=obj(
            {"value": number(), "total": number()}, None,
            rule(".total", "cumulative total below the delta",
                 _covers_delta)))),
    }, None, _FINITE, kind="metrics"))

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


#: what :func:`metrics_sample_checker` checks of every sample but its
#: records
_check_envelope = document(SCHEMA_ID, {
    "source": string(), "time": number(finite=True), "seq": integer(1)},
    kind="metrics")
#: ``labels`` not handed at all (``"labels": None`` is another identity)
_NO_LABELS = object()


def _identity(record: dict[str, Any]) -> tuple | None:
    """``(name, type, label items as handed)``, or None when ``labels``
    is not an object; unhashable when a part is."""
    labels = record.get("labels", _NO_LABELS)
    if labels is not _NO_LABELS:
        if not isinstance(labels, dict):
            return None
        labels = tuple(labels.items())
    return record.get("name"), record.get("type"), labels


def _fits(record: dict[str, Any]) -> bool:
    """Whether the numbers of ``record``, of an identity an accepted
    sample proved, fit as the kit judges them: exact ``int`` / ``float``
    leaves, and a counter's finite ``value`` and ``total`` under the
    delta rule.  Raises on a missing leaf or an int too large for a
    float."""
    kind = record["type"]
    if kind == "counter":
        value, total = record["value"], record["total"]
        return ((type(value) is int or type(value) is float)
                and (type(total) is int or type(total) is float)
                and math.isfinite(value) and math.isfinite(total)
                and total + 1e-9 >= value)
    if kind == "gauge":
        value = record["value"]
        return type(value) is int or type(value) is float
    summary = record["summary"]
    if type(summary) is not dict:
        return False
    for key in SUMMARY_KEYS:
        value = summary[key]
        if not (type(value) is int or type(value) is float):
            return False
    return True


def metrics_sample_checker(
        route: Callable[[dict[str, Any]], Any]) -> Callable[[Any], list]:
    """A :func:`validate_metrics_sample` that resolves each series once.

    The store builds its own, handing it ``route``: what it does with
    a record of a new series (the series the record feeds).  The
    checker keeps one table, from ``(name, type, label items as
    handed)`` to that route, so what it remembers lives exactly as long
    as the store.  The envelope is
    checked on every sample, each record's identity is computed once,
    and a record of an identity in the table has only its numbers
    checked.  Anything else — an unknown identity, a bool or
    float-subclass leaf, an unhashable label value, a number that does
    not fit — sends the whole sample through
    :func:`validate_metrics_sample`, which alone accepts it or words the
    refusal: a checker refuses exactly what the stateless validator
    refuses, with the same text.  An accepted sample returns each
    record's route, in order.
    """
    table: dict[tuple, Any] = {}

    def check(payload: Any) -> list:
        idents: list = []
        routes: list = []
        if _check_envelope(payload) is None:
            metrics = payload.get("metrics")
            try:
                if type(metrics) is list:
                    for record in metrics:
                        if type(record) is not dict:
                            break
                        idents.append(_identity(record))
                        known = table[idents[-1]]  # KeyError: a new series
                        if not _fits(record):
                            break
                        routes.append(known)
                    else:
                        return routes
            except (KeyError, TypeError, OverflowError):
                pass
        validate_metrics_sample(payload)
        metrics = payload["metrics"]
        idents += map(_identity, metrics[len(idents):])
        for ident, record in zip(idents[len(routes):], metrics[len(routes):]):
            if ident not in table:
                table[ident] = route(record)
            routes.append(table[ident])
        return routes

    return check
