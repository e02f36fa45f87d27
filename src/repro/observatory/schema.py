"""Schema validation for ``repro.observatory/v1`` documents.

Everything the grid observatory hands out — query results, store dumps,
flight-recorder snapshots — is a plain dict carrying
``schema: "repro.observatory/v1"`` and a ``kind`` discriminator,
validated at the producing end so a malformed document fails the run
instead of rotting in an archive.  Each kind is a shape value built
from the :mod:`repro.util.schema` kit, compiled once at import.

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

from repro.telemetry.schema import LABELS, metric_name
from repro.util.errors import SchemaError
from repro.util.schema import (
    array,
    boolean,
    document,
    integer,
    mapping,
    nullable,
    number,
    obj,
    one_of,
    rule,
    string,
    validator,
)

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


_POINTS = array(array(number(), rule(
    "", "each point is a [time, value] pair", lambda point: len(point) == 2)))

_BUCKET = obj({**dict.fromkeys(BUCKET_KEYS, number()), "count": integer(1)},
              None, rule(".end", "bucket must close at or after its start",
                         lambda bucket: bucket["end"] >= bucket["start"]))

_AGGREGATE = nullable(obj({"op": one_of(*AGGREGATIONS), "value": number(),
                           "count": integer(0)}))

#: One query-engine answer.
#:
#: Shape::
#:
#:     {"schema": "repro.observatory/v1", "kind": "query_result",
#:      "time": 512.0,
#:      "query": {"metric": "...", "selector": {...}, "start": 0.0,
#:                "end": 512.0, "agg": "avg"|null, "quantile": 95.0|null,
#:                "tier": "auto", "page": 1, "page_size": 10},
#:      "tier": "raw", "total_series": 3, "page": 1, "pages": 1,
#:      "series": [{"name": "...", "labels": {...},
#:                  "points": [[t, v], ...], "truncated": false,
#:                  "aggregate": {...}|null}],
#:      "aggregate": {"op": "avg", "value": 1.0, "count": 40}|null}
validate_query_result = validator(ObservatorySchemaError, document(
    SCHEMA_ID, {
        "time": number(),
        "query": obj({"metric": metric_name, "start": number(),
                      "end": number()},
                     {"selector": LABELS,
                      "agg": nullable(one_of(*AGGREGATIONS))}),
        "tier": one_of(*TIERS),
        "total_series": integer(0), "page": integer(1), "pages": integer(1),
        "series": array(obj({"name": metric_name, "points": _POINTS,
                             "truncated": boolean()},
                            {"labels": LABELS, "aggregate": _AGGREGATE})),
    }, {"aggregate": _AGGREGATE}, kind="query_result"))

#: One flight-recorder snapshot.
#:
#: Shape::
#:
#:     {"schema": "repro.observatory/v1", "kind": "flight",
#:      "run_id": "most-obs", "reason": "abort", "time": 481.0,
#:      "step": 39, "site": "uiuc",
#:      "sources": {"ntcp-uiuc": [{"time": 470.1, "type": "log",
#:                                 "what": "transaction.proposed",
#:                                 "step": 39, "detail": {...}}, ...]}}
_FLIGHT = document(SCHEMA_ID, {
    "time": number(), "run_id": string(), "reason": string(),
    "step": integer(-1),
    "sources": mapping(array(obj(
        {"time": number(), "type": one_of(*EVENT_TYPES), "what": string()},
        {"step": nullable(integer()), "detail": obj({})})), key=string()),
}, {"site": nullable(string())}, kind="flight")
validate_flight_snapshot = validator(ObservatorySchemaError, _FLIGHT)

#: A whole-store dump for offline querying.
#:
#: Shape::
#:
#:     {"schema": "repro.observatory/v1", "kind": "dump",
#:      "run_id": "most-obs", "time": 512.0,
#:      "series": [{"name": "...", "labels": {...}, "appended": 40,
#:                  "raw": [[t, v], ...], "r10": [bucket, ...],
#:                  "r100": [bucket, ...]}],
#:      "slo": [{"name": "...", ...}, ...],
#:      "snapshots": [<flight doc>, ...]}
validate_dump = validator(ObservatorySchemaError, document(
    SCHEMA_ID, {
        "time": number(), "run_id": string(),
        "series": array(obj({"name": metric_name, "appended": integer(0),
                             "raw": _POINTS, "r10": array(_BUCKET),
                             "r100": array(_BUCKET)}, {"labels": LABELS})),
        "slo": array(obj({"name": string(), "budget_remaining": number()})),
        "snapshots": array(_FLIGHT),
    }, kind="dump"))
