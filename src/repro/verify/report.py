"""``repro.verify/v1`` report documents: build + schema validation.

The verifier emits one JSON document per run summarizing every bounded
exploration (states explored, traces run, violations), the mutation
regression (which seeded protocol breaks the checker caught), and the
conformance replay (traces replayed through the live coordinator,
divergences).  Like the benchmark documents (``repro.bench/v1``), the
schema is hand-rolled and validated on emission, so a malformed report
fails the run instead of rotting on disk.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.schema import SchemaError
from repro.util.schema import schema_checks
from repro.verify.explorer import ExplorationResult

__all__ = [
    "VERIFY_SCHEMA_ID",
    "build_report",
    "validate_verify_payload",
]

VERIFY_SCHEMA_ID = "repro.verify/v1"

_EXPLORATION_KEYS = ("sites", "n_steps", "pipeline_depth", "max_faults",
                     "traces", "states_explored", "violations")
_VIOLATION_KEYS = ("invariant", "step", "site", "detail", "schedule")
_MUTATION_KEYS = ("rule", "caught", "violations")
_CONFORMANCE_KEYS = ("traces_replayed", "divergences")

_, _require, _check_number, _, _check_document = schema_checks(SchemaError)


def _exploration_record(result: ExplorationResult) -> dict[str, Any]:
    cfg = result.config
    return {
        "sites": list(cfg.sites),
        "n_steps": cfg.n_steps,
        "pipeline_depth": cfg.pipeline_depth,
        "max_faults": cfg.max_faults,
        "traces": len(result.traces),
        "states_explored": result.states_explored,
        "violations": [
            {
                "invariant": violation.invariant,
                "step": violation.step,
                "site": violation.site,
                "detail": violation.detail,
                "schedule": [
                    {"step": ev.step, "kind": ev.kind, "site": ev.site}
                    for ev in schedule
                ],
            }
            for schedule, violation in result.violations
        ],
    }


def build_report(explorations: list[ExplorationResult],
                 mutations: list[dict[str, Any]] | None = None,
                 conformance: dict[str, Any] | None = None,
                 ) -> dict[str, Any]:
    """Assemble a ``repro.verify/v1`` document from a verifier run.

    ``mutations`` entries carry ``{"rule", "caught", "violations"}`` from
    the mutation regression; ``conformance`` carries
    ``{"traces_replayed", "divergences"}`` from the live replay.  The
    document's top-level ``ok`` is True only when every exploration is
    violation-free, every mutation was caught, and no replay diverged.
    """
    records = [_exploration_record(result) for result in explorations]
    ok = all(not record["violations"] for record in records)
    if mutations is not None:
        ok = ok and all(mutation["caught"] for mutation in mutations)
    if conformance is not None:
        ok = ok and not conformance["divergences"]
    report: dict[str, Any] = {
        "schema": VERIFY_SCHEMA_ID,
        "explorations": records,
        "ok": ok,
    }
    if mutations is not None:
        report["mutations"] = mutations
    if conformance is not None:
        report["conformance"] = conformance
    return report


def _validate_violation(record: Any, path: str) -> None:
    _require(isinstance(record, dict), path, "violation must be an object")
    for key in _VIOLATION_KEYS:
        _require(key in record, f"{path}.{key}", "missing")
    _require(isinstance(record["invariant"], str) and record["invariant"],
             f"{path}.invariant", "must be a non-empty string")
    _require(isinstance(record["step"], int), f"{path}.step",
             "must be an integer")
    _require(record["site"] is None or isinstance(record["site"], str),
             f"{path}.site", "must be a string or null")
    _require(isinstance(record["detail"], str), f"{path}.detail",
             "must be a string")
    _require(isinstance(record["schedule"], list), f"{path}.schedule",
             "must be a list")
    for i, event in enumerate(record["schedule"]):
        event_path = f"{path}.schedule[{i}]"
        _require(isinstance(event, dict), event_path,
                 "fault event must be an object")
        for key in ("step", "kind", "site"):
            _require(key in event, f"{event_path}.{key}", "missing")


def _validate_exploration(record: Any, path: str) -> None:
    _require(isinstance(record, dict), path,
             "exploration record must be an object")
    for key in _EXPLORATION_KEYS:
        _require(key in record, f"{path}.{key}", "missing")
    sites = record["sites"]
    _require(isinstance(sites, list) and sites
             and all(isinstance(site, str) for site in sites),
             f"{path}.sites", "must be a non-empty list of strings")
    for key in ("n_steps", "max_faults", "traces", "states_explored"):
        _check_number(record[key], f"{path}.{key}")
        _require(isinstance(record[key], int) and record[key] >= 0,
                 f"{path}.{key}", "must be a non-negative integer")
    _require(record["n_steps"] >= 1, f"{path}.n_steps", "must be >= 1")
    _require(record["traces"] >= 1, f"{path}.traces", "must be >= 1")
    _require(isinstance(record["pipeline_depth"], int)
             and record["pipeline_depth"] in (0, 1),
             f"{path}.pipeline_depth", "must be 0 or 1")
    _require(isinstance(record["violations"], list), f"{path}.violations",
             "must be a list")
    for i, violation in enumerate(record["violations"]):
        _validate_violation(violation, f"{path}.violations[{i}]")


def validate_verify_payload(payload: Any) -> None:
    """Validate a full ``repro.verify/v1`` document.

    Raises :class:`~repro.telemetry.schema.SchemaError` with a JSON path
    to the offending field on any mismatch.

    Shape::

        {"schema": "repro.verify/v1", "ok": bool,
         "explorations": [{"sites": [...], "n_steps": int,
                           "pipeline_depth": 0 | 1, "max_faults": int,
                           "traces": int, "states_explored": int,
                           "violations": [...]}],
         "mutations": [{"rule": str, "caught": bool,
                        "violations": [str, ...]}]?,
         "conformance": {"traces_replayed": int, "divergences": [...]}?}
    """
    _check_document(payload, VERIFY_SCHEMA_ID)
    _require(isinstance(payload.get("ok"), bool), "$.ok",
             "must be a boolean")
    explorations = payload.get("explorations")
    _require(isinstance(explorations, list) and explorations,
             "$.explorations", "must be a non-empty list")
    for i, record in enumerate(explorations):
        _validate_exploration(record, f"$.explorations[{i}]")
    if "mutations" in payload:
        mutations = payload["mutations"]
        _require(isinstance(mutations, list), "$.mutations",
                 "must be a list")
        for i, record in enumerate(mutations):
            path = f"$.mutations[{i}]"
            _require(isinstance(record, dict), path,
                     "mutation record must be an object")
            for key in _MUTATION_KEYS:
                _require(key in record, f"{path}.{key}", "missing")
            _require(isinstance(record["rule"], str) and record["rule"],
                     f"{path}.rule", "must be a non-empty string")
            _require(isinstance(record["caught"], bool), f"{path}.caught",
                     "must be a boolean")
            _require(isinstance(record["violations"], list),
                     f"{path}.violations", "must be a list")
    if "conformance" in payload:
        conformance = payload["conformance"]
        path = "$.conformance"
        _require(isinstance(conformance, dict), path,
                 "conformance must be an object")
        for key in _CONFORMANCE_KEYS:
            _require(key in conformance, f"{path}.{key}", "missing")
        _require(isinstance(conformance["traces_replayed"], int)
                 and conformance["traces_replayed"] >= 0,
                 f"{path}.traces_replayed",
                 "must be a non-negative integer")
        _require(isinstance(conformance["divergences"], list),
                 f"{path}.divergences", "must be a list")
    # Cross-field consistency: ok must reflect the violation lists.
    derived_ok = all(not record["violations"] for record in explorations)
    if "mutations" in payload:
        derived_ok = derived_ok and all(record["caught"]
                                        for record in payload["mutations"])
    if "conformance" in payload:
        derived_ok = derived_ok and not payload["conformance"]["divergences"]
    _require(payload["ok"] == derived_ok, "$.ok",
             "must equal the conjunction of clean explorations, caught "
             "mutations, and divergence-free conformance")


def ensure_valid(payload: dict[str, Any]) -> dict[str, Any]:
    """Validate ``payload`` and return it (emission-time guard)."""
    validate_verify_payload(payload)
    return payload


# Re-exported so callers need not import the telemetry module to catch
# validation failures.
VerifyReportError = SchemaError
