"""Every versioned-document validator survives arbitrary damage.

One table, ``(validate, a minimal valid document)`` per family, and one
test: replace or delete every node of the document with a handful of
hostile JSON values and require that the validator either accepts the
mutant or raises its family's :class:`~repro.util.errors.SchemaError`
with a ``$``-rooted JSON path — never an ``AttributeError``/``TypeError``
from walking a value of the wrong type (ROADMAP item 4c).
"""

import copy
import json
import pathlib
import sys

import pytest

from repro.monitor.schema import (
    validate_alert_payload,
    validate_health_payload,
    validate_metrics_sample,
)
from repro.observatory.schema import (
    validate_dump,
    validate_flight_snapshot,
    validate_query_result,
)
from repro.queue.journal import validate_queue_entry
from repro.repository.checkpoint import (
    validate_checkpoint_payload,
    validate_manifest_payload,
)
from repro.telemetry.schema import validate_jsonl_export, validate_metrics_payload
from repro.util.errors import SchemaError

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from _report import validate_bench_payload  # noqa: E402

HOSTILE = (None, [], {}, "", "x", 0, -1, 1.5, True, [1], {"a": 1},
           10**400, -10**400, float("inf"), float("-inf"), float("nan"))

HEX = (0.25).hex()
SUMMARY = {"count": 2, "sum": 1.0, "mean": 0.5, "min": 0.1, "max": 0.9,
           "p50": 0.5, "p90": 0.8, "p95": 0.85, "p99": 0.9}
METRICS = [
    {"name": "a.b.count", "type": "counter", "labels": {"site": "uiuc"},
     "value": 2, "total": 5},
    {"name": "a.b.depth", "type": "gauge", "value": 1.5},
    {"name": "a.b.latency", "type": "histogram", "labels": {},
     "summary": SUMMARY},
]
SPAN = {"name": "a.b.op", "trace_id": "t1", "span_id": "s1",
        "parent_id": None, "start": 1.0, "end": 2.0, "duration": 1.0,
        "attrs": {"step": 3}}
MONITOR = {"schema": "repro.monitor/v1", "source": "coord", "time": 4.0}
OBSERVATORY = {"schema": "repro.observatory/v1", "time": 9.0}
AGGREGATE = {"op": "avg", "value": 1.0, "count": 2}
BUCKET = {"start": 0.0, "end": 9.0, "count": 10, "sum": 5.0, "min": 0.0,
          "max": 1.0, "first": 0.0, "last": 1.0}
FLIGHT = {**OBSERVATORY, "kind": "flight", "run_id": "run",
          "reason": "abort", "step": 39, "site": "uiuc",
          "sources": {"ntcp-uiuc": [
              {"time": 1.0, "type": "log", "what": "transaction.proposed",
               "step": 39, "detail": {"k": 1}},
              {"time": 2.0, "type": "span", "what": "core.server.execute",
               "step": None}]}}
RECORD = {"step": 1, "model_time": 0.02, "displacement": [HEX],
          "restoring_force": {"shape": [1, 2], "data": [HEX, HEX]},
          "site_forces": {"uiuc": {"0": HEX, "1": [HEX, HEX]}},
          "attempts": 1, "wall_started": 0.0, "wall_finished": 1.0}
CHECKPOINT = {
    "schema": "repro.checkpoint/v1", "run_id": "run", "seq": 2,
    "wall_time": 12.0, "reason": "policy",
    "state": {"run_id": "run", "target_steps": 10, "step": 2,
              "generation": 0, "checkpoint_seq": 1, "dt": 0.02,
              "wall_started": 0.0, "phase": "execute",
              "pending": {"uiuc": "run-2-uiuc"},
              "speculative": {"uiuc": "run-3-uiuc"}, "speculative_step": 3,
              "integrator": {"kind": "central-difference", "step_index": 2,
                             "arrays": {"d_curr": [HEX]}}},
    "records": [RECORD, {**RECORD, "step": 2}]}
JOURNAL = {"schema": "repro.queue/v1", "seq": 1, "time": 0.0}

FAMILIES = {
    "monitor.metrics": (validate_metrics_sample, {
        **MONITOR, "kind": "metrics", "seq": 1, "metrics": METRICS}),
    "monitor.health": (validate_health_payload, {
        **MONITOR, "kind": "health", "status": "running", "backlog": 0,
        "step": 17, "plugin": "simulation", "detail": {}}),
    "monitor.alert": (validate_alert_payload, {
        **MONITOR, "kind": "alert", "alert_id": "console-0001",
        "alert": "stall", "severity": "critical", "step": 3,
        "site": "ntcp-uiuc", "message": "no committed step", "detail": {}}),
    "telemetry.metrics": (validate_metrics_payload, {
        "schema": "repro.telemetry/v1", "experiment": "unit",
        "metrics": METRICS, "spans": [SPAN]}),
    "telemetry.jsonl": (validate_jsonl_export, {
        "meta": {"schema": "repro.telemetry/v1", "experiment": "unit"},
        "metrics": METRICS, "spans": [SPAN]}),
    "observatory.query_result": (validate_query_result, {
        **OBSERVATORY, "kind": "query_result",
        "query": {"metric": "a.b.latency", "selector": {"stat": "p95"},
                  "start": 0.0, "end": 9.0, "agg": "avg"},
        "tier": "raw", "total_series": 1, "page": 1, "pages": 1,
        "series": [{"name": "a.b.latency", "labels": {"stat": "p95"},
                    "points": [[0.0, 1.0], [1.0, 2.0]], "truncated": False,
                    "aggregate": AGGREGATE}],
        "aggregate": AGGREGATE}),
    "observatory.flight": (validate_flight_snapshot, FLIGHT),
    "observatory.dump": (validate_dump, {
        **OBSERVATORY, "kind": "dump", "run_id": "run",
        "series": [{"name": "a.b.latency", "labels": {}, "appended": 10,
                    "raw": [[0.0, 1.0]], "r10": [BUCKET], "r100": []}],
        "slo": [{"name": "step-latency-p95", "budget_remaining": 1.0}],
        "snapshots": [FLIGHT]}),
    "checkpoint": (validate_checkpoint_payload, CHECKPOINT),
    "checkpoint.manifest": (validate_manifest_payload, {
        "schema": "repro.checkpoint-manifest/v1", "run_id": "run", "seq": 2,
        "seqs": [1, 2], "latest": CHECKPOINT,
        "records": CHECKPOINT["records"]}),
    "journal.submit": (validate_queue_entry, {
        **JOURNAL, "kind": "submit",
        "body": {"submission_id": "s-0", "tenant": "t1", "run_id": "r-0",
                 "n_steps": 6, "n_sites": 1, "motion_scale": 1.0,
                 "checkpoint_every": 0}}),
    "journal.epoch": (validate_queue_entry, {
        **JOURNAL, "kind": "epoch",
        "body": {"epoch": 1, "scheduler_id": "sched-1"}}),
    "journal.claim": (validate_queue_entry, {
        **JOURNAL, "kind": "claim",
        "body": {"submission_id": "s-0", "epoch": 1, "attempt": 1,
                 "sites": ["uiuc"]}}),
    "journal.terminal": (validate_queue_entry, {
        **JOURNAL, "kind": "terminal",
        "body": {"submission_id": "s-0", "epoch": 1, "status": "completed",
                 "steps": 6}}),
    **{path.name: (validate_bench_payload, json.loads(path.read_text()))
       for path in sorted(ROOT.glob("BENCH_*.json"))},
}


def nodes(value, path=()):
    """Every ``(key path from the root, node)`` of a JSON value."""
    yield path, value
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutated(document, path, replacement):
    """A copy with the node at ``path`` replaced (``...``: deleted)."""
    if not path:
        return replacement
    mutant = copy.deepcopy(document)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    if replacement is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return mutant


@pytest.mark.parametrize("family", FAMILIES)
def test_damaged_documents_are_accepted_or_typed_errors(family):
    validate, document = FAMILIES[family]
    validate(document)  # the table's own entry is valid
    rejected = 0
    for path, _ in nodes(document):
        for replacement in (..., *HOSTILE):
            mutant = mutated(document, path, replacement)
            try:
                validate(mutant)
            except SchemaError as exc:
                assert str(exc).startswith("$"), (mutant, exc)
                rejected += 1
    assert rejected  # the validator is not vacuous


BENCH_DOCS = [name for name in FAMILIES if name.startswith("BENCH_")]


def test_the_table_covers_the_committed_bench_documents():
    assert len(BENCH_DOCS) == 4


@pytest.mark.parametrize("name", BENCH_DOCS)
def test_bench_documents_take_no_boolean_for_a_number(name):
    validate, document = FAMILIES[name]
    for path, node in nodes(document):
        if type(node) in (int, float):
            with pytest.raises(SchemaError, match="got bool"):
                validate(mutated(document, path, True))
