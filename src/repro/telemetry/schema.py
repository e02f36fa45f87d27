"""Schema validation for exported telemetry documents.

Hand-rolled on purpose: the validator is ~100 lines, has no dependency
beyond the standard library, and produces errors with a JSON-path to the
offending field.  Benchmarks and the CI smoke target validate every
metrics document they emit through :func:`validate_metrics_payload`, so a
malformed export fails the run instead of silently rotting in
``benchmarks/out/``.

Conventions enforced:

* metric names are dotted ``layer.component.name`` (>= 3 non-empty parts);
* counters/gauges carry a numeric ``value``; histograms carry a
  ``summary`` with exact-percentile fields;
* spans are closed (``end >= start``) and id-complete.
"""

from __future__ import annotations

from typing import Any

from repro.util import errors
from repro.util.schema import SchemaChecks, schema_checks

SCHEMA_ID = "repro.telemetry/v1"

_METRIC_TYPES = ("counter", "gauge", "histogram")
_SUMMARY_KEYS = ("count", "sum", "mean", "min", "max", "p50", "p90", "p99")
_SPAN_KEYS = ("name", "trace_id", "span_id", "parent_id", "start", "end",
              "duration", "attrs")


class SchemaError(errors.SchemaError):
    """A telemetry document does not match the expected shape."""


_CHECKS = schema_checks(SchemaError)
_, _require, _check_number, _, _check_document = _CHECKS


def validate_metric_name(name: Any, path: str = "name") -> None:
    """Enforce the ``layer.component.name`` naming convention."""
    _require(isinstance(name, str), path, "metric name must be a string")
    parts = name.split(".")
    _require(len(parts) >= 3 and all(parts), path,
             f"metric name {name!r} must be dotted layer.component.name")


def validate_metric_record(record: Any, path: str = "metric", *,
                           summary_keys: tuple[str, ...] = _SUMMARY_KEYS,
                           checks: SchemaChecks = _CHECKS) -> None:
    """One entry of a ``metrics`` list.

    ``summary_keys`` and ``checks`` let a sibling schema with the same
    record shape (``repro.monitor/v1``: p95 in place of p90, its own
    error class) validate through this one implementation.
    """
    require, number = checks.require, checks.number
    require(isinstance(record, dict), path, "metric record must be an object")
    validate_metric_name(record.get("name"), f"{path}.name")
    mtype = record.get("type")
    require(mtype in _METRIC_TYPES, f"{path}.type",
            f"metric type must be one of {_METRIC_TYPES}, got {mtype!r}")
    labels = record.get("labels", {})
    require(isinstance(labels, dict), f"{path}.labels", "labels must be an object")
    for key, value in labels.items():
        require(isinstance(key, str) and isinstance(value, str),
                f"{path}.labels.{key}", "labels must map strings to strings")
    if mtype == "histogram":
        summary = record.get("summary")
        require(isinstance(summary, dict), f"{path}.summary",
                "histogram requires a summary object")
        for key in summary_keys:
            require(key in summary, f"{path}.summary.{key}", "missing")
            number(summary[key], f"{path}.summary.{key}")
    else:
        require("value" in record, f"{path}.value",
                f"{mtype} requires a value")
        number(record["value"], f"{path}.value")


def validate_span_record(record: Any, path: str = "span") -> None:
    """One span record (from ``Span.to_dict`` or a JSONL line)."""
    _require(isinstance(record, dict), path, "span record must be an object")
    for key in _SPAN_KEYS:
        _require(key in record, f"{path}.{key}", "missing")
    for key in ("name", "trace_id", "span_id"):
        _require(isinstance(record[key], str) and record[key],
                 f"{path}.{key}", "must be a non-empty string")
    _require(record["parent_id"] is None or isinstance(record["parent_id"], str),
             f"{path}.parent_id", "must be a string or null")
    _check_number(record["start"], f"{path}.start")
    _check_number(record["end"], f"{path}.end")
    _require(record["end"] >= record["start"], f"{path}.end",
             "span must close at or after its start")
    _require(isinstance(record["attrs"], dict), f"{path}.attrs",
             "attrs must be an object")


def validate_metrics_payload(payload: Any) -> None:
    """A full metrics document as emitted by benchmarks / the smoke target.

    Shape::

        {"schema": "repro.telemetry/v1", "experiment": "...",
         "metrics": [...], "spans": [...]?}
    """
    _check_document(payload, SCHEMA_ID)
    experiment = payload.get("experiment")
    _require(isinstance(experiment, str) and experiment, "$.experiment",
             "experiment must be a non-empty string")
    metrics = payload.get("metrics")
    _require(isinstance(metrics, list), "$.metrics", "metrics must be a list")
    for i, record in enumerate(metrics):
        validate_metric_record(record, f"$.metrics[{i}]")
    if "spans" in payload:
        spans = payload["spans"]
        _require(isinstance(spans, list), "$.spans", "spans must be a list")
        for i, record in enumerate(spans):
            validate_span_record(record, f"$.spans[{i}]")


def validate_jsonl_export(loaded: dict[str, Any]) -> None:
    """Validate the dict returned by :meth:`TelemetryHub.load_jsonl`."""
    _require(loaded.get("meta", {}).get("schema") == SCHEMA_ID, "$.meta.schema",
             f"expected {SCHEMA_ID!r}")
    for i, record in enumerate(loaded.get("metrics", [])):
        validate_metric_record(record, f"$.metrics[{i}]")
    for i, record in enumerate(loaded.get("spans", [])):
        validate_span_record(record, f"$.spans[{i}]")


def validate_step_report_payload(payload: Any) -> None:
    """A JSON step-latency report (``repro.telemetry.report --format json``).

    Shape::

        {"schema": "repro.telemetry/v1", "kind": "step_report",
         "experiment": "...", "count": 40,
         "rows": [{"step": 1, "run_id": "...", "total": 0.21,
                   "phases": {"propose": 0.1, ...}}, ...],
         "means": {"total": 0.2, "phases": {"propose": 0.09, ...}}}
    """
    _check_document(payload, SCHEMA_ID, "step_report")
    experiment = payload.get("experiment")
    _require(isinstance(experiment, str) and experiment, "$.experiment",
             "experiment must be a non-empty string")
    rows = payload.get("rows")
    _require(isinstance(rows, list), "$.rows", "rows must be a list")
    _require(payload.get("count") == len(rows), "$.count",
             "count must equal len(rows)")
    for i, row in enumerate(rows):
        path = f"$.rows[{i}]"
        _require(isinstance(row, dict), path, "row must be an object")
        _require(isinstance(row.get("step"), int)
                 and not isinstance(row.get("step"), bool),
                 f"{path}.step", "step must be an integer")
        _require(isinstance(row.get("run_id"), str), f"{path}.run_id",
                 "run_id must be a string")
        _check_number(row.get("total"), f"{path}.total")
        phases = row.get("phases")
        _require(isinstance(phases, dict), f"{path}.phases",
                 "phases must be an object")
        for phase, duration in phases.items():
            _check_number(duration, f"{path}.phases.{phase}")
    means = payload.get("means")
    _require(isinstance(means, dict), "$.means", "means must be an object")
    _check_number(means.get("total"), "$.means.total")
    _require(isinstance(means.get("phases"), dict), "$.means.phases",
             "means.phases must be an object")
    for phase, duration in means["phases"].items():
        _check_number(duration, f"$.means.phases.{phase}")


# ---------------------------------------------------------------------------
# Benchmark comparison documents (repo-root BENCH_*.json)
# ---------------------------------------------------------------------------

BENCH_SCHEMA_ID = "repro.bench/v1"

#: every stepping mode must report these (all in *simulated* seconds, so
#: the committed document is deterministic run-to-run).
_BENCH_MODE_KEYS = ("steps", "variants", "wall_time", "median_step_latency",
                    "aggregate_steps_per_s", "aggregate_variant_steps_per_s")


def validate_bench_mode(record: Any, path: str = "mode") -> None:
    """One stepping-mode record of a benchmark comparison document."""
    _require(isinstance(record, dict), path, "mode record must be an object")
    for key in _BENCH_MODE_KEYS:
        _require(key in record, f"{path}.{key}", "missing")
        _check_number(record[key], f"{path}.{key}")
    for key in ("steps", "variants"):
        _require(isinstance(record[key], int) and record[key] >= 1,
                 f"{path}.{key}", "must be a positive integer")
    for key in ("wall_time", "median_step_latency", "aggregate_steps_per_s",
                "aggregate_variant_steps_per_s"):
        _require(record[key] > 0, f"{path}.{key}", "must be positive")


def validate_bench_payload(payload: Any) -> None:
    """A benchmark comparison document (repo-root ``BENCH_*.json``).

    Dispatches on ``$.experiment``: ``"tfleet"`` documents follow the
    fleet shape (:func:`validate_fleet_bench_payload`), ``"tobs"``
    documents the observatory shape (:func:`validate_obs_bench_payload`),
    ``"tqueue"`` documents the durable-queue shape
    (:func:`validate_queue_bench_payload`); everything else follows the
    stepping-mode comparison shape
    (:func:`validate_stepping_bench_payload`).
    """
    _check_document(payload, BENCH_SCHEMA_ID)
    experiment = payload.get("experiment")
    _require(isinstance(experiment, str) and experiment, "$.experiment",
             "experiment must be a non-empty string")
    if experiment == "tfleet":
        validate_fleet_bench_payload(payload)
    elif experiment == "tobs":
        validate_obs_bench_payload(payload)
    elif experiment == "tqueue":
        validate_queue_bench_payload(payload)
    else:
        validate_stepping_bench_payload(payload)


def validate_stepping_bench_payload(payload: Any) -> None:
    """A stepping-mode comparison document (``BENCH_tperf_ntcp.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "...",
         "config": {"n_steps": int, "n_variants": int},
         "modes": {"sequential": {...}, "pipelined": {...},
                   "ensemble": {...}},
         "speedups": {"pipelined_aggregate_steps_per_s": float,
                      "ensemble_aggregate_variant_steps_per_s": float},
         "bit_exact": {"pipelined": bool, "ensemble_base_variant": bool}}
    """
    _check_document(payload, BENCH_SCHEMA_ID)
    experiment = payload.get("experiment")
    _require(isinstance(experiment, str) and experiment, "$.experiment",
             "experiment must be a non-empty string")
    config = payload.get("config")
    _require(isinstance(config, dict), "$.config", "config must be an object")
    for key in ("n_steps", "n_variants"):
        _require(isinstance(config.get(key), int) and config[key] >= 1,
                 f"$.config.{key}", "must be a positive integer")
    modes = payload.get("modes")
    _require(isinstance(modes, dict), "$.modes", "modes must be an object")
    for name in ("sequential", "pipelined", "ensemble"):
        _require(name in modes, f"$.modes.{name}", "missing")
        validate_bench_mode(modes[name], f"$.modes.{name}")
    speedups = payload.get("speedups")
    _require(isinstance(speedups, dict), "$.speedups",
             "speedups must be an object")
    for key in ("pipelined_aggregate_steps_per_s",
                "ensemble_aggregate_variant_steps_per_s"):
        _require(key in speedups, f"$.speedups.{key}", "missing")
        _check_number(speedups[key], f"$.speedups.{key}")
    bit_exact = payload.get("bit_exact")
    _require(isinstance(bit_exact, dict), "$.bit_exact",
             "bit_exact must be an object")
    for key in ("pipelined", "ensemble_base_variant"):
        _require(isinstance(bit_exact.get(key), bool), f"$.bit_exact.{key}",
                 "must be a boolean")


def validate_obs_bench_payload(payload: Any) -> None:
    """A grid-observatory document (``BENCH_tobs.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "tobs",
         "config": {"n_steps": int, "slo_interval": float},
         "overhead": {"median_step_off": float, "median_step_on": float,
                      "overhead_fraction": float, "bound": float,
                      "within_bound": bool},
         "rollups": {"series_checked": int, "consistent": bool},
         "determinism": {"query_identical": bool,
                         "postmortem_identical": bool},
         "flight": {"aborted_step": int, "faulted_site": str,
                    "snapshot_events": int,
                    "timeline_names_site_and_step": bool}}
    """
    _check_document(payload, BENCH_SCHEMA_ID)
    _require(payload.get("experiment") == "tobs", "$.experiment",
             "observatory bench documents use experiment 'tobs'")
    config = payload.get("config")
    _require(isinstance(config, dict), "$.config", "config must be an object")
    _require(isinstance(config.get("n_steps"), int)
             and config["n_steps"] >= 1,
             "$.config.n_steps", "must be a positive integer")
    _check_number(config.get("slo_interval"), "$.config.slo_interval")
    overhead = payload.get("overhead")
    _require(isinstance(overhead, dict), "$.overhead",
             "overhead must be an object")
    for key in ("median_step_off", "median_step_on", "bound"):
        _require(key in overhead, f"$.overhead.{key}", "missing")
        _check_number(overhead[key], f"$.overhead.{key}")
        _require(overhead[key] > 0, f"$.overhead.{key}", "must be positive")
    _check_number(overhead.get("overhead_fraction"),
                  "$.overhead.overhead_fraction")
    _require(isinstance(overhead.get("within_bound"), bool),
             "$.overhead.within_bound", "must be a boolean")
    rollups = payload.get("rollups")
    _require(isinstance(rollups, dict), "$.rollups",
             "rollups must be an object")
    _require(isinstance(rollups.get("series_checked"), int)
             and rollups["series_checked"] >= 1,
             "$.rollups.series_checked", "must be a positive integer")
    _require(isinstance(rollups.get("consistent"), bool),
             "$.rollups.consistent", "must be a boolean")
    determinism = payload.get("determinism")
    _require(isinstance(determinism, dict), "$.determinism",
             "determinism must be an object")
    for key in ("query_identical", "postmortem_identical"):
        _require(isinstance(determinism.get(key), bool),
                 f"$.determinism.{key}", "must be a boolean")
    flight = payload.get("flight")
    _require(isinstance(flight, dict), "$.flight",
             "flight must be an object")
    _require(isinstance(flight.get("aborted_step"), int)
             and flight["aborted_step"] >= 0,
             "$.flight.aborted_step", "must be a non-negative integer")
    _require(isinstance(flight.get("faulted_site"), str)
             and flight["faulted_site"],
             "$.flight.faulted_site", "must be a non-empty string")
    _require(isinstance(flight.get("snapshot_events"), int)
             and flight["snapshot_events"] >= 1,
             "$.flight.snapshot_events", "must be a positive integer")
    _require(isinstance(flight.get("timeline_names_site_and_step"), bool),
             "$.flight.timeline_names_site_and_step", "must be a boolean")


#: per-tenant record keys in a fleet bench document
_FLEET_TENANT_KEYS = ("runs", "steps", "completion_time", "lease_wait_max",
                      "duplicate_executes")


def validate_fleet_bench_payload(payload: Any) -> None:
    """A multi-tenant fleet document (``BENCH_tfleet.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "tfleet",
         "config": {"n_sites": int, "n_tenants": int,
                    "runs_per_tenant": int, "n_experiments": int,
                    "n_steps": int, "sites_per_lease": int},
         "fleet": {"duration": float, "completed": int,
                   "peak_queue_depth": int, "lease_wait_max": float,
                   "lease_wait_mean": float, "duplicate_executes": int},
         "fairness": {"completion_ratio": float, "bound": float,
                      "within_bound": bool},
         "tenants": {"<tenant>": {"runs": int, "steps": int,
                                  "completion_time": float,
                                  "lease_wait_max": float,
                                  "duplicate_executes": int}, ...},
         "bit_exact": {"solo_vs_fleet": bool, "tenants_checked": int},
         "security": {"unauthorized_rejected": bool}}
    """
    _check_document(payload, BENCH_SCHEMA_ID)
    _require(payload.get("experiment") == "tfleet", "$.experiment",
             "fleet bench documents use experiment 'tfleet'")
    config = payload.get("config")
    _require(isinstance(config, dict), "$.config", "config must be an object")
    for key in ("n_sites", "n_tenants", "runs_per_tenant", "n_experiments",
                "n_steps", "sites_per_lease"):
        _require(isinstance(config.get(key), int) and config[key] >= 1,
                 f"$.config.{key}", "must be a positive integer")
    _require(config["n_experiments"]
             == config["n_tenants"] * config["runs_per_tenant"],
             "$.config.n_experiments",
             "must equal n_tenants * runs_per_tenant")
    fleet = payload.get("fleet")
    _require(isinstance(fleet, dict), "$.fleet", "fleet must be an object")
    for key in ("duration", "lease_wait_max", "lease_wait_mean"):
        _require(key in fleet, f"$.fleet.{key}", "missing")
        _check_number(fleet[key], f"$.fleet.{key}")
        _require(fleet[key] >= 0, f"$.fleet.{key}", "must be non-negative")
    for key in ("completed", "peak_queue_depth", "duplicate_executes"):
        _require(isinstance(fleet.get(key), int) and fleet[key] >= 0,
                 f"$.fleet.{key}", "must be a non-negative integer")
    fairness = payload.get("fairness")
    _require(isinstance(fairness, dict), "$.fairness",
             "fairness must be an object")
    for key in ("completion_ratio", "bound"):
        _require(key in fairness, f"$.fairness.{key}", "missing")
        _check_number(fairness[key], f"$.fairness.{key}")
        _require(fairness[key] >= 1.0, f"$.fairness.{key}",
                 "ratios are >= 1")
    _require(isinstance(fairness.get("within_bound"), bool),
             "$.fairness.within_bound", "must be a boolean")
    tenants = payload.get("tenants")
    _require(isinstance(tenants, dict) and tenants, "$.tenants",
             "tenants must be a non-empty object")
    for tenant, record in tenants.items():
        path = f"$.tenants.{tenant}"
        _require(isinstance(record, dict), path,
                 "tenant record must be an object")
        for key in _FLEET_TENANT_KEYS:
            _require(key in record, f"{path}.{key}", "missing")
            _check_number(record[key], f"{path}.{key}")
        for key in ("runs", "steps"):
            _require(isinstance(record[key], int) and record[key] >= 1,
                     f"{path}.{key}", "must be a positive integer")
        _require(isinstance(record["duplicate_executes"], int)
                 and record["duplicate_executes"] >= 0,
                 f"{path}.duplicate_executes",
                 "must be a non-negative integer")
    bit_exact = payload.get("bit_exact")
    _require(isinstance(bit_exact, dict), "$.bit_exact",
             "bit_exact must be an object")
    _require(isinstance(bit_exact.get("solo_vs_fleet"), bool),
             "$.bit_exact.solo_vs_fleet", "must be a boolean")
    _require(isinstance(bit_exact.get("tenants_checked"), int)
             and bit_exact["tenants_checked"] >= 1,
             "$.bit_exact.tenants_checked", "must be a positive integer")
    security = payload.get("security")
    _require(isinstance(security, dict), "$.security",
             "security must be an object")
    _require(isinstance(security.get("unauthorized_rejected"), bool),
             "$.security.unauthorized_rejected", "must be a boolean")


def validate_queue_bench_payload(payload: Any) -> None:
    """A durable-queue crash-recovery document (``BENCH_tqueue.json``).

    Shape::

        {"schema": "repro.bench/v1", "experiment": "tqueue",
         "config": {"n_sites": int, "n_tenants": int,
                    "runs_per_tenant": int, "n_submissions": int,
                    "n_steps": int, "checkpoint_every": int, "seed": int,
                    "crash_times": [float, ...], "takeover_delay": float},
         "campaign": {"completed": int, "failed": int, "outstanding": int,
                      "redeliveries": int, "voided": int,
                      "incarnations": int, "final_epoch": int,
                      "journal_entries": int, "duration": float},
         "fencing": {"refusals": int, "stale_accepts": int,
                     "refusals_by_epoch": {"<epoch>": int, ...},
                     "refusal_paths": [str, ...],
                     "every_crash_epoch_refused": bool},
         "exactness": {"duplicate_executes": int, "runs_checked": int,
                       "resubmit_deduped": bool,
                       "bit_exact_vs_uncrashed": bool}}
    """
    _check_document(payload, BENCH_SCHEMA_ID)
    _require(payload.get("experiment") == "tqueue", "$.experiment",
             "durable-queue bench documents use experiment 'tqueue'")
    config = payload.get("config")
    _require(isinstance(config, dict), "$.config", "config must be an object")
    for key in ("n_sites", "n_tenants", "runs_per_tenant", "n_submissions",
                "n_steps", "checkpoint_every"):
        _require(isinstance(config.get(key), int) and config[key] >= 1,
                 f"$.config.{key}", "must be a positive integer")
    _require(config["n_submissions"]
             == config["n_tenants"] * config["runs_per_tenant"],
             "$.config.n_submissions",
             "must equal n_tenants * runs_per_tenant")
    _require(isinstance(config.get("seed"), int), "$.config.seed",
             "must be an integer")
    crash_times = config.get("crash_times")
    _require(isinstance(crash_times, list) and crash_times,
             "$.config.crash_times", "must be a non-empty list")
    for i, value in enumerate(crash_times):
        _check_number(value, f"$.config.crash_times[{i}]")
        _require(value > 0, f"$.config.crash_times[{i}]",
                 "must be positive")
    _check_number(config.get("takeover_delay"), "$.config.takeover_delay")
    campaign = payload.get("campaign")
    _require(isinstance(campaign, dict), "$.campaign",
             "campaign must be an object")
    for key in ("completed", "failed", "outstanding", "redeliveries",
                "voided", "journal_entries"):
        _require(isinstance(campaign.get(key), int) and campaign[key] >= 0,
                 f"$.campaign.{key}", "must be a non-negative integer")
    for key in ("incarnations", "final_epoch"):
        _require(isinstance(campaign.get(key), int) and campaign[key] >= 1,
                 f"$.campaign.{key}", "must be a positive integer")
    _require(campaign["incarnations"] == len(crash_times) + 1,
             "$.campaign.incarnations",
             "must equal len(crash_times) + 1")
    _check_number(campaign.get("duration"), "$.campaign.duration")
    fencing = payload.get("fencing")
    _require(isinstance(fencing, dict), "$.fencing",
             "fencing must be an object")
    for key in ("refusals", "stale_accepts"):
        _require(isinstance(fencing.get(key), int) and fencing[key] >= 0,
                 f"$.fencing.{key}", "must be a non-negative integer")
    by_epoch = fencing.get("refusals_by_epoch")
    _require(isinstance(by_epoch, dict), "$.fencing.refusals_by_epoch",
             "must be an object keyed by refused epoch")
    for epoch, count in by_epoch.items():
        path = f"$.fencing.refusals_by_epoch.{epoch}"
        _require(isinstance(epoch, str) and epoch.isdigit(), path,
                 "epoch keys must be decimal strings (JSON object keys)")
        _require(isinstance(count, int) and count >= 1, path,
                 "refusal counts must be positive integers")
    paths = fencing.get("refusal_paths")
    _require(isinstance(paths, list), "$.fencing.refusal_paths",
             "must be a list of write-path names")
    for i, name in enumerate(paths):
        _require(isinstance(name, str) and bool(name),
                 f"$.fencing.refusal_paths[{i}]",
                 "must be a non-empty string")
    _require(isinstance(fencing.get("every_crash_epoch_refused"), bool),
             "$.fencing.every_crash_epoch_refused", "must be a boolean")
    exactness = payload.get("exactness")
    _require(isinstance(exactness, dict), "$.exactness",
             "exactness must be an object")
    _require(isinstance(exactness.get("duplicate_executes"), int)
             and exactness["duplicate_executes"] >= 0,
             "$.exactness.duplicate_executes",
             "must be a non-negative integer")
    _require(isinstance(exactness.get("runs_checked"), int)
             and exactness["runs_checked"] >= 1,
             "$.exactness.runs_checked", "must be a positive integer")
    for key in ("resubmit_deduped", "bit_exact_vs_uncrashed"):
        _require(isinstance(exactness.get(key), bool),
                 f"$.exactness.{key}", "must be a boolean")
