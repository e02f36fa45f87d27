"""Schema validation for exported telemetry documents.

Each ``repro.telemetry/v1`` shape is a value built from the
:mod:`repro.util.schema` kit and compiled once, at import, into its
``validate_*`` function; errors carry a JSON-path to the offending field.
Benchmarks and the CI smoke target validate every metrics document they
emit through :func:`validate_metrics_payload`, so a malformed export
fails the run instead of silently rotting in ``benchmarks/out/``.

Conventions enforced:

* metric names are dotted ``layer.component.name`` (>= 3 non-empty parts);
* counters/gauges carry a numeric ``value``; histograms carry a
  ``summary`` with exact-percentile fields;
* spans are closed (``end >= start``) and id-complete.
"""

from __future__ import annotations

from typing import Any

from repro.util import errors
from repro.util.schema import (
    Check,
    Failure,
    array,
    document,
    mapping,
    nullable,
    number,
    obj,
    rule,
    string,
    switch,
    validator,
)

SCHEMA_ID = "repro.telemetry/v1"

#: the stats of :meth:`Histogram.summary` an exported record carries
SUMMARY_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")


class SchemaError(errors.SchemaError):
    """A telemetry document does not match the expected shape."""


def metric_name(name: Any) -> Failure:
    """The ``layer.component.name`` naming convention (a kit leaf)."""
    if not isinstance(name, str):
        return "", "metric name must be a string"
    parts = name.split(".")
    if len(parts) < 3 or not all(parts):
        return "", f"metric name {name!r} must be dotted layer.component.name"
    return None


validate_metric_name = validator(SchemaError, metric_name)

#: ``{"site": "uiuc", ...}`` — label values may be empty, never non-strings
LABELS = mapping(string(empty=True))


def metric_record(summary_keys: tuple[str, ...] = SUMMARY_KEYS,
                  counter: Check | None = None) -> Check:
    """One entry of a ``metrics`` list.

    Shape::

        {"name": "net.rpc.latency", "type": "counter" | "gauge", "value": 3,
         "labels"?: {...}}
        {"name": "...", "type": "histogram", "summary": {"count": 2, ...}}

    A sibling schema with the same record shape passes its own
    ``summary_keys`` (``repro.monitor/v1``: p95 in place of p90) and the
    fields its ``counter`` records carry.
    """
    value = obj({"value": number()})
    summary = obj({"summary": obj(dict.fromkeys(summary_keys, number()))})
    return obj({"name": metric_name}, {"labels": LABELS},
               switch("type", counter=counter or value, gauge=value,
                      histogram=summary))


_METRIC = metric_record()

#: one span record (from ``Span.to_dict`` or a JSONL line)
_SPAN = obj({
    "name": string(), "trace_id": string(), "span_id": string(),
    "parent_id": nullable(string(empty=True)),
    "start": number(), "end": number(), "duration": number(),
    "attrs": obj({}),
}, None, rule(".end", "span must close at or after its start",
              lambda span: span["end"] >= span["start"]))

#: A full metrics document as emitted by benchmarks / the smoke target.
#:
#: Shape::
#:
#:     {"schema": "repro.telemetry/v1", "experiment": "...",
#:      "metrics": [...], "spans": [...]?}
validate_metrics_payload = validator(SchemaError, document(
    SCHEMA_ID, {"experiment": string(), "metrics": array(_METRIC)},
    {"spans": array(_SPAN)}))

#: The dict :meth:`TelemetryHub.load_jsonl` assembles from an export.
#:
#: Shape::
#:
#:     {"meta": {"schema": "repro.telemetry/v1", "experiment": "..."},
#:      "metrics": [...]?, "spans": [...]?}
validate_jsonl_export = validator(SchemaError, obj(
    {"meta": document(SCHEMA_ID, {})},
    {"metrics": array(_METRIC), "spans": array(_SPAN)}))
