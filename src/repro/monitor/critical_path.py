"""Critical-path analysis over ``coordinator.step`` trace trees.

The paper's Figure 5 explains a step's wall time by splitting it into
phases; this module goes one level deeper and assigns the parallel
phases (propose, execute) to the *site that dominated them*.  Each
committed step's round is reconstructed — the per-site
``core.client.propose`` / ``core.client.execute`` legs under its phase
spans, under its ``round`` child (a verified pipelined round), or under
the root ``speculate`` span of the speculation it adopted — into a
per-step record and, aggregated, a per-site blame table:

* how many steps each site's execute dominated;
* its execute mean / p95 across the run;
* the slack — how long the other sites sat finished, waiting for it.

Accepts live spans or JSONL export records, like
:mod:`repro.telemetry.report`, and is exposed on its CLI via
``python -m repro.telemetry.report --critical-path``.
"""

from __future__ import annotations

import pathlib
from typing import Any

from repro.telemetry.metrics import percentile

# ``repro.telemetry.report`` is imported where it is used: importing
# ``repro`` reaches this module, and a module-level import would load the
# report CLI before ``python -m repro.telemetry.report`` runs it.

#: client-side leaf spans carrying the ``service`` label, by phase
CLIENT_SPANS = {"core.client.propose": "propose",
                "core.client.execute": "execute"}


def step_traces(spans: list[Any]) -> list[dict[str, Any]]:
    """One record per step with the per-site propose/execute split.

    Each row extends :func:`repro.telemetry.report.step_rows` with the
    client legs at any depth under the step's span, plus — for a
    pipelined step with no ``round`` child — those under the root
    ``speculate`` span it adopted: the last one of its step number to
    start before it.  A rolled-back speculation's step runs a ``round``
    of its own, so the speculation's legs count for no step.  ``sites``
    holds whole legs; ``critical`` counts only the part of each leg
    inside the step's own span (an adopted speculation ran mostly
    during the step before)::

        {"sites": {"ntcp-uiuc": {"propose": 0.1, "execute": 11.9}, ...},
         "dominant": "ntcp-uiuc",   # site with the longest execute
         "slack": 10.2,             # dominant execute minus runner-up
         "critical": 12.3}          # serial phases + slowest client legs
    """
    from repro.telemetry.report import CORE_PHASES, _as_record, rows_by_span

    records = [_as_record(s) for s in spans]
    by_id = {rec["span_id"]: rec for rec in records}
    legs: dict[str, list[dict[str, Any]]] = {}  # root span id -> its legs
    for rec in records:
        if rec["name"] in CLIENT_SPANS and rec.get("duration") is not None:
            root = rec
            while root.get("parent_id") in by_id:
                root = by_id[root["parent_id"]]
            legs.setdefault(root["span_id"], []).append(rec)
    verified = {rec["parent_id"] for rec in records
                if rec["name"] == "coordinator.step.round"}
    speculations = sorted((rec for rec in records
                           if rec["name"] == "coordinator.step.speculate"),
                          key=lambda rec: rec["start"])
    rows = rows_by_span(records)
    for span_id, row in rows.items():
        step = by_id[span_id]
        sites: dict[str, dict[str, float]] = {}
        inside: dict[str, dict[str, float]] = {}  # legs clipped to the step
        adopted = [] if "attempts" not in row or span_id in verified else [
            rec for rec in speculations
            if rec["attrs"].get("step") == row["step"]
            and rec["start"] <= step["start"]][-1:]
        for leaf in [leg for root in [step, *adopted]
                     for leg in legs.get(root["span_id"], ())]:
            site = leaf["attrs"].get("service", "?")
            phase = CLIENT_SPANS[leaf["name"]]
            whole = sites.setdefault(site, {"propose": 0.0, "execute": 0.0})
            whole[phase] += leaf["duration"]
            clipped = inside.setdefault(site, {"propose": 0.0,
                                               "execute": 0.0})
            clipped[phase] += max(0.0, min(leaf["end"], step["end"])
                                  - max(leaf["start"], step["start"]))
        row["sites"] = sites
        if sites:
            executes = sorted((per["execute"], site)
                              for site, per in sites.items())
            row["dominant"] = executes[-1][1]
            row["slack"] = (executes[-1][0] - executes[-2][0]
                            if len(executes) > 1 else 0.0)
            serial = sum(row["phases"].get(p, 0.0)
                         for p in ("integrate", "commit", "retry_wait"))
            row["critical"] = (
                serial + max(per["execute"] for per in inside.values())
                + max(per["propose"] for per in inside.values()))
        else:
            row["dominant"] = None
            row["slack"] = 0.0
            row["critical"] = sum(row["phases"].get(p, 0.0)
                                  for p in CORE_PHASES)
    return sorted(rows.values(), key=lambda r: (r["run_id"], r["step"]))


def blame_table(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Aggregate step traces into one record per site, sorted by blame."""
    per_site: dict[str, dict[str, Any]] = {}
    dominated_steps = 0
    for row in rows:
        if row.get("dominant") is not None:
            dominated_steps += 1
        for site, split in row.get("sites", {}).items():
            agg = per_site.setdefault(site, {
                "site": site, "steps": 0, "dominated": 0,
                "propose_total": 0.0, "execute_total": 0.0,
                "_executes": []})
            agg["steps"] += 1
            agg["propose_total"] += split["propose"]
            agg["execute_total"] += split["execute"]
            agg["_executes"].append(split["execute"])
        dominant = row.get("dominant")
        if dominant is not None:
            per_site[dominant]["dominated"] += 1
            per_site[dominant].setdefault("slack_total", 0.0)
            per_site[dominant]["slack_total"] = (
                per_site[dominant].get("slack_total", 0.0)
                + row.get("slack", 0.0))
    table = []
    for site in sorted(per_site):
        agg = per_site[site]
        executes = sorted(agg.pop("_executes"))
        agg.setdefault("slack_total", 0.0)
        agg["execute_mean"] = agg["execute_total"] / agg["steps"]
        agg["execute_p95"] = percentile(executes, 95.0)
        agg["dominated_share"] = (agg["dominated"] / dominated_steps
                                  if dominated_steps else 0.0)
        table.append(agg)
    table.sort(key=lambda a: (-a["dominated"], -a["execute_total"],
                              a["site"]))
    return table


def render_blame_table(table: list[dict[str, Any]]) -> str:
    """The per-site blame table as an aligned text block."""
    if not table:
        return "no per-site client spans in trace"
    header = (f"{'site':<14}{'steps':>7}{'dominated':>11}{'share':>8}"
              f"{'exec mean':>11}{'exec p95':>10}{'slack [s]':>11}")
    lines = [header, "-" * len(header)]
    for agg in table:
        lines.append(
            f"{agg['site']:<14}{agg['steps']:>7}{agg['dominated']:>11}"
            f"{agg['dominated_share']:>8.0%}{agg['execute_mean']:>11.3f}"
            f"{agg['execute_p95']:>10.3f}{agg['slack_total']:>11.2f}")
    return "\n".join(lines)


def critical_path_report(spans: list[Any]) -> str:
    """Blame table plus a one-line summary, from live or loaded spans."""
    from repro.telemetry.report import PIPELINED_NOTE

    rows = step_traces(spans)
    if not rows:
        return "no coordinator.step spans in trace"
    n = len(rows)
    mean_total = sum(r["total"] for r in rows) / n
    mean_critical = sum(r.get("critical", 0.0) for r in rows) / n
    mean_slack = sum(r.get("slack", 0.0) for r in rows) / n
    lines = [f"critical path — {n} steps, mean step {mean_total:.3f}s, "
             f"mean critical path {mean_critical:.3f}s, "
             f"mean slack {mean_slack:.3f}s",
             render_blame_table(blame_table(rows))]
    if any("attempts" in r for r in rows):
        lines.append(PIPELINED_NOTE)
    return "\n".join(lines)


def report_from_jsonl(path: str | pathlib.Path) -> str:
    """Load a JSONL trace export and render the blame table."""
    from repro.telemetry.hub import TelemetryHub

    loaded = TelemetryHub.load_jsonl(path)
    title = loaded["meta"].get("experiment", str(path))
    return (f"per-site blame table — {title}\n"
            f"{critical_path_report(loaded['spans'])}")
