"""Schema validation for ``repro.observatory/v1`` documents.

Everything the grid observatory hands out — query results, store dumps,
flight-recorder snapshots — is a plain dict carrying
``schema: "repro.observatory/v1"`` and a ``kind`` discriminator,
validated at the producing end so a malformed document fails the run
instead of rotting in an archive.  Hand-rolled in the style of
:mod:`repro.telemetry.schema`: stdlib only, JSON-path error messages.

Document kinds:

* ``query_result`` — one :func:`repro.observatory.query.run_query`
  answer: the matched series page plus per-series and combined
  aggregates;
* ``dump`` — a whole :class:`~repro.observatory.tsdb.TimeSeriesStore`
  serialized for offline querying (the ``repro observatory`` CLI reads
  these), including SLO statuses and flight snapshots;
* ``flight`` — one :class:`~repro.observatory.recorder.FlightRecorder`
  snapshot: the bounded per-source event rings frozen at escalation or
  abort time.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.schema import validate_metric_name
from repro.util.errors import SchemaError
from repro.util.schema import schema_checks

SCHEMA_ID = "repro.observatory/v1"

#: aggregation operators the query engine understands
AGGREGATIONS = ("count", "sum", "avg", "min", "max", "rate", "quantile")
#: downsampling tiers, finest first (``raw`` -> 10-step -> 100-step)
TIERS = ("raw", "r10", "r100")
#: the per-bucket statistics a finalized rollup carries
BUCKET_KEYS = ("start", "end", "count", "sum", "min", "max", "first",
               "last")
#: event record types a flight snapshot may carry
EVENT_TYPES = ("span", "log")


class ObservatorySchemaError(SchemaError):
    """A document does not match the ``repro.observatory/v1`` shape."""


_fail, _require, _check_number, _check_int, _check_document = \
    schema_checks(ObservatorySchemaError)


def _check_labels(labels: Any, path: str) -> None:
    _require(isinstance(labels, dict), path, "labels must be an object")
    for key, value in labels.items():
        _require(isinstance(key, str) and isinstance(value, str),
                 f"{path}.{key}", "labels must map strings to strings")


def _check_envelope(payload: Any, kind: str) -> None:
    _check_document(payload, SCHEMA_ID, kind)
    _check_number(payload.get("time"), "$.time")


def _check_points(points: Any, path: str) -> None:
    _require(isinstance(points, list), path, "points must be a list")
    for i, point in enumerate(points):
        _require(isinstance(point, list) and len(point) == 2,
                 f"{path}[{i}]", "each point is a [time, value] pair")
        _check_number(point[0], f"{path}[{i}][0]")
        _check_number(point[1], f"{path}[{i}][1]")


def _check_bucket(bucket: Any, path: str) -> None:
    _require(isinstance(bucket, dict), path, "bucket must be an object")
    for key in BUCKET_KEYS:
        _require(key in bucket, f"{path}.{key}", "missing")
        _check_number(bucket[key], f"{path}.{key}")
    _require(bucket["end"] >= bucket["start"], f"{path}.end",
             "bucket must close at or after its start")
    _require(isinstance(bucket["count"], int) and bucket["count"] >= 1,
             f"{path}.count", "bucket count must be a positive integer")


def _check_aggregate(agg: Any, path: str) -> None:
    if agg is None:
        return
    _require(isinstance(agg, dict), path, "aggregate must be an object")
    _require(agg.get("op") in AGGREGATIONS, f"{path}.op",
             f"op must be one of {AGGREGATIONS}, got {agg.get('op')!r}")
    _check_number(agg.get("value"), f"{path}.value")
    _check_int(agg.get("count"), f"{path}.count", minimum=0)


def validate_query_result(payload: Any) -> None:
    """One query-engine answer.

    Shape::

        {"schema": "repro.observatory/v1", "kind": "query_result",
         "time": 512.0,
         "query": {"metric": "...", "selector": {...}, "start": 0.0,
                   "end": 512.0, "agg": "avg"|null, "quantile": 95.0|null,
                   "tier": "auto", "page": 1, "page_size": 10},
         "tier": "raw", "total_series": 3, "page": 1, "pages": 1,
         "series": [{"name": "...", "labels": {...},
                     "points": [[t, v], ...], "truncated": false,
                     "aggregate": {...}|null}],
         "aggregate": {"op": "avg", "value": 1.0, "count": 40}|null}
    """
    _check_envelope(payload, "query_result")
    query = payload.get("query")
    _require(isinstance(query, dict), "$.query", "query must be an object")
    validate_metric_name(query.get("metric"), "$.query.metric")
    _check_labels(query.get("selector", {}), "$.query.selector")
    _check_number(query.get("start"), "$.query.start")
    _check_number(query.get("end"), "$.query.end")
    agg = query.get("agg")
    _require(agg is None or agg in AGGREGATIONS, "$.query.agg",
             f"agg must be null or one of {AGGREGATIONS}, got {agg!r}")
    tier = payload.get("tier")
    _require(tier in TIERS, "$.tier",
             f"tier must be one of {TIERS}, got {tier!r}")
    _check_int(payload.get("total_series"), "$.total_series", minimum=0)
    _check_int(payload.get("page"), "$.page", minimum=1)
    _check_int(payload.get("pages"), "$.pages", minimum=1)
    series = payload.get("series")
    _require(isinstance(series, list), "$.series", "series must be a list")
    for i, entry in enumerate(series):
        path = f"$.series[{i}]"
        _require(isinstance(entry, dict), path,
                 "series entry must be an object")
        validate_metric_name(entry.get("name"), f"{path}.name")
        _check_labels(entry.get("labels", {}), f"{path}.labels")
        _check_points(entry.get("points"), f"{path}.points")
        _require(isinstance(entry.get("truncated"), bool),
                 f"{path}.truncated", "must be a boolean")
        _check_aggregate(entry.get("aggregate"), f"{path}.aggregate")
    _check_aggregate(payload.get("aggregate"), "$.aggregate")


def validate_flight_snapshot(payload: Any) -> None:
    """One flight-recorder snapshot.

    Shape::

        {"schema": "repro.observatory/v1", "kind": "flight",
         "run_id": "most-obs", "reason": "abort", "time": 481.0,
         "step": 39, "site": "uiuc",
         "sources": {"ntcp-uiuc": [{"time": 470.1, "type": "log",
                                    "what": "transaction.proposed",
                                    "step": 39, "detail": {...}}, ...]}}
    """
    _check_envelope(payload, "flight")
    run_id = payload.get("run_id")
    _require(isinstance(run_id, str) and bool(run_id), "$.run_id",
             "run_id must be a non-empty string")
    reason = payload.get("reason")
    _require(isinstance(reason, str) and bool(reason), "$.reason",
             "reason must be a non-empty string")
    _check_int(payload.get("step"), "$.step", minimum=-1)
    site = payload.get("site")
    _require(site is None or (isinstance(site, str) and bool(site)),
             "$.site", "site must be a non-empty string or null")
    sources = payload.get("sources")
    _require(isinstance(sources, dict), "$.sources",
             "sources must be an object")
    for source, events in sources.items():
        path = f"$.sources.{source}"
        _require(isinstance(source, str) and bool(source), path,
                 "source must be a non-empty string")
        _require(isinstance(events, list), path, "events must be a list")
        for i, event in enumerate(events):
            epath = f"{path}[{i}]"
            _require(isinstance(event, dict), epath,
                     "event must be an object")
            _check_number(event.get("time"), f"{epath}.time")
            _require(event.get("type") in EVENT_TYPES, f"{epath}.type",
                     f"type must be one of {EVENT_TYPES}")
            what = event.get("what")
            _require(isinstance(what, str) and bool(what), f"{epath}.what",
                     "what must be a non-empty string")
            step = event.get("step")
            _require(step is None
                     or (isinstance(step, int)
                         and not isinstance(step, bool)),
                     f"{epath}.step", "step must be an integer or null")
            _require(isinstance(event.get("detail", {}), dict),
                     f"{epath}.detail", "detail must be an object")


def validate_dump(payload: Any) -> None:
    """A whole-store dump for offline querying.

    Shape::

        {"schema": "repro.observatory/v1", "kind": "dump",
         "run_id": "most-obs", "time": 512.0,
         "series": [{"name": "...", "labels": {...}, "appended": 40,
                     "raw": [[t, v], ...], "r10": [bucket, ...],
                     "r100": [bucket, ...]}],
         "slo": [{"name": "...", ...}, ...],
         "snapshots": [<flight doc>, ...]}
    """
    _check_envelope(payload, "dump")
    run_id = payload.get("run_id")
    _require(isinstance(run_id, str) and bool(run_id), "$.run_id",
             "run_id must be a non-empty string")
    series = payload.get("series")
    _require(isinstance(series, list), "$.series", "series must be a list")
    for i, entry in enumerate(series):
        path = f"$.series[{i}]"
        _require(isinstance(entry, dict), path,
                 "series entry must be an object")
        validate_metric_name(entry.get("name"), f"{path}.name")
        _check_labels(entry.get("labels", {}), f"{path}.labels")
        _check_int(entry.get("appended"), f"{path}.appended", minimum=0)
        _check_points(entry.get("raw"), f"{path}.raw")
        for tier in ("r10", "r100"):
            buckets = entry.get(tier)
            _require(isinstance(buckets, list), f"{path}.{tier}",
                     "rollup tier must be a list")
            for j, bucket in enumerate(buckets):
                _check_bucket(bucket, f"{path}.{tier}[{j}]")
    slo = payload.get("slo")
    _require(isinstance(slo, list), "$.slo", "slo must be a list")
    for i, status in enumerate(slo):
        path = f"$.slo[{i}]"
        _require(isinstance(status, dict), path,
                 "SLO status must be an object")
        name = status.get("name")
        _require(isinstance(name, str) and bool(name), f"{path}.name",
                 "name must be a non-empty string")
        _check_number(status.get("budget_remaining"),
                      f"{path}.budget_remaining")
    snapshots = payload.get("snapshots")
    _require(isinstance(snapshots, list), "$.snapshots",
             "snapshots must be a list")
    for i, snapshot in enumerate(snapshots):
        try:
            validate_flight_snapshot(snapshot)
        except ObservatorySchemaError as exc:
            _fail(f"$.snapshots[{i}]", str(exc))
