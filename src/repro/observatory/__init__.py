"""The grid observatory: durable operational history over the fleet.

PR 4 made telemetry *live* (streamed deltas, console alerts) and PR 8
made the grid *shared* (100 tenant experiments over one site pool) —
but everything still evaporated with the kernel.  This package is the
history plane over the operations console's time-series store — the
one store the console's one NSDS receiver feeds from the
:class:`~repro.monitor.streamer.TelemetryStreamer`, so each metrics
sample is shipped, checked and kept once — with

* a TSDB core of bounded per-series rings and 10-/100-step rollup
  tiers (:mod:`repro.observatory.tsdb`), which the console builds;
* a label-selector query engine with sum/avg/max/rate/quantile
  aggregation and pagination (:mod:`repro.observatory.query`);
* declarative SLOs with fast/slow burn-rate alerting through the
  existing console (:mod:`repro.observatory.slo`);
* a black-box flight recorder snapshotted on escalation or abort, and
  the step-1493-style postmortem renderer
  (:mod:`repro.observatory.recorder`);
* the OGSI service front end, deployed beside the console on the
  portal, and the deployment wiring (:mod:`repro.observatory.service`,
  :mod:`repro.observatory.wiring`).

Documents cross the wire as schema-validated ``repro.observatory/v1``
dicts (:mod:`repro.observatory.schema`); everything runs on the sim
clock, so repeated campaigns produce byte-identical query results and
postmortems.
"""

from repro.observatory.query import QueryError, run_query
from repro.observatory.recorder import FlightRecorder, postmortem_timeline
from repro.observatory.schema import (
    AGGREGATIONS,
    SCHEMA_ID,
    TIERS,
    ObservatorySchemaError,
    validate_dump,
    validate_flight_snapshot,
    validate_query_result,
)
from repro.observatory.service import ObservatoryService
from repro.observatory.slo import (
    BurnRateRule,
    SLOEvaluator,
    SLOSpec,
    default_slos,
)
from repro.observatory.tsdb import Series, TimeSeriesStore
from repro.observatory.wiring import ObservatoryKit, attach_observatory

__all__ = [
    "AGGREGATIONS",
    "BurnRateRule",
    "FlightRecorder",
    "ObservatoryKit",
    "ObservatorySchemaError",
    "ObservatoryService",
    "QueryError",
    "SCHEMA_ID",
    "SLOEvaluator",
    "SLOSpec",
    "Series",
    "TIERS",
    "TimeSeriesStore",
    "attach_observatory",
    "default_slos",
    "postmortem_timeline",
    "run_query",
    "validate_dump",
    "validate_flight_snapshot",
    "validate_query_result",
]
