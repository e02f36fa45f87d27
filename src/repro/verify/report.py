"""``repro.verify/v1`` report documents: build + schema validation.

The verifier emits one JSON document per run summarizing every bounded
exploration (states explored, traces run, violations), the mutation
regression (which seeded protocol breaks the checker caught), and the
conformance replay (traces replayed through the live coordinator,
divergences).  Like the benchmark documents (``repro.bench/v1``), the
shape is a :mod:`repro.util.schema` value validated on emission, so a
malformed report fails the run instead of rotting on disk.
"""

from __future__ import annotations

from typing import Any

from repro.util.errors import SchemaError
from repro.util.schema import (
    anything,
    array,
    boolean,
    document,
    integer,
    nullable,
    obj,
    one_of,
    rule,
    string,
    validator,
)
from repro.verify.explorer import ExplorationResult

__all__ = [
    "VERIFY_SCHEMA_ID",
    "build_report",
    "validate_verify_payload",
]

VERIFY_SCHEMA_ID = "repro.verify/v1"


class VerifyReportError(SchemaError):
    """A report does not match the ``repro.verify/v1`` shape."""


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


_VIOLATION = obj({
    "invariant": string(), "step": integer(),
    "site": nullable(string(empty=True)), "detail": string(empty=True),
    "schedule": array(obj(dict.fromkeys(("step", "kind", "site"), anything))),
})

_EXPLORATION = obj({
    "sites": array(string(empty=True), nonempty=True),
    "n_steps": integer(1), "pipeline_depth": one_of(0, 1),
    "max_faults": integer(0), "traces": integer(1),
    "states_explored": integer(0), "violations": array(_VIOLATION),
})


def _derived_ok(doc: dict) -> bool:
    return (all(not record["violations"] for record in doc["explorations"])
            and all(record["caught"] for record in doc.get("mutations", ()))
            and not doc.get("conformance", {}).get("divergences"))


#: A full ``repro.verify/v1`` document.
#:
#: Shape::
#:
#:     {"schema": "repro.verify/v1", "ok": bool,
#:      "explorations": [{"sites": [...], "n_steps": int,
#:                        "pipeline_depth": 0 | 1, "max_faults": int,
#:                        "traces": int, "states_explored": int,
#:                        "violations": [...]}],
#:      "mutations": [{"rule": str, "caught": bool,
#:                     "violations": [str, ...]}]?,
#:      "conformance": {"traces_replayed": int, "divergences": [...]}?}
validate_verify_payload = validator(VerifyReportError, document(
    VERIFY_SCHEMA_ID,
    {"ok": boolean(), "explorations": array(_EXPLORATION, nonempty=True)},
    {"mutations": array(obj({"rule": string(), "caught": boolean(),
                             "violations": array(anything)})),
     "conformance": obj({"traces_replayed": integer(0),
                         "divergences": array(anything)})},
    rule(".ok", "must equal the conjunction of clean explorations, caught "
                "mutations, and divergence-free conformance",
         lambda doc: doc["ok"] == _derived_ok(doc))))


def ensure_valid(payload: dict[str, Any]) -> dict[str, Any]:
    """Validate ``payload`` and return it (emission-time guard)."""
    validate_verify_payload(payload)
    return payload
