"""Reporters for analysis runs: text for terminals, JSON for tooling.

The JSON document is schema-stamped (``repro.analysis/v1``) and validated
against a :mod:`repro.util.schema` shape, the same discipline as
:mod:`repro.telemetry.schema`: a malformed report fails the producer, not
the downstream consumer.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.engine import AnalysisResult, Finding
from repro.util.errors import SchemaError
from repro.util.schema import (
    array,
    document,
    integer,
    mapping,
    obj,
    rule,
    string,
    validator,
)

SCHEMA_ID = "repro.analysis/v1"


class ReportError(SchemaError):
    """An analysis report does not match the expected shape."""


def render_text(result: AnalysisResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    if result.findings:
        counts = ", ".join(f"{code}: {n}" for code, n in
                           result.counts().items())
        lines.append(f"analysis: {len(result.findings)} finding(s) "
                     f"in {result.files} file(s) ({counts}); "
                     f"{result.suppressed} suppressed")
    else:
        lines.append(f"analysis: OK ({result.files} file(s), "
                     f"{result.suppressed} suppressed)")
    return "\n".join(lines)


def build_report(result: AnalysisResult) -> dict[str, Any]:
    """The JSON-ready report document for one analysis run."""
    report = {
        "schema": SCHEMA_ID,
        "files": result.files,
        "suppressed": result.suppressed,
        "counts": result.counts(),
        "findings": [finding.to_dict() for finding in result.findings],
    }
    validate_report(report)
    return report


def render_json(result: AnalysisResult) -> str:
    """The schema-stamped JSON report as a string."""
    return json.dumps(build_report(result), indent=2, sort_keys=True)


#: An analysis report document.
#:
#: Shape::
#:
#:     {"schema": "repro.analysis/v1", "files": 12, "suppressed": 0,
#:      "counts": {"RPR001": 2, ...},
#:      "findings": [{"path": "src/x.py", "line": 3, "col": 0,
#:                    "code": "RPR001", "message": "..."}, ...]}
validate_report = validator(ReportError, document(
    SCHEMA_ID, {
        "files": integer(0), "suppressed": integer(0),
        "counts": mapping(integer(0)),
        "findings": array(obj({
            "path": string(empty=True), "line": integer(),
            "col": integer(), "code": string(empty=True),
            "message": string(empty=True)})),
    }, None, rule(".counts", "counts must sum to the number of findings",
                  lambda doc: (sum(doc["counts"].values())
                               == len(doc["findings"])))))


def load_report(text: str) -> AnalysisResult:
    """Parse a JSON report back into an :class:`AnalysisResult`."""
    payload = json.loads(text)
    validate_report(payload)
    return AnalysisResult(
        findings=[Finding.from_dict(f) for f in payload["findings"]],
        files=payload["files"],
        suppressed=payload["suppressed"])
