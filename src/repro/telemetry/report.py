"""Render the MOST step-latency breakdown from a trace.

The coordinator emits one ``coordinator.step`` span per MS-PSDS step with
child spans for each phase (``integrate`` / ``propose`` / ``execute`` /
``commit``, plus ``retry_wait`` when a fault policy back-off ran).  Both
stepping modes run through one loop, so a pipelined step is the same span
with ``speculated`` / ``adopted`` attrs: its propose/execute round runs in
the background (a ``round`` child at a clean boundary, or the
``speculate`` round issued during the step before), overlapping the
neighbouring steps', so its row splits only integrate and commit and
carries an attempt count.  This module turns those spans — live from a
:class:`TelemetryHub` or loaded back from a JSONL export — into the
paper's Figure-5-style step-time decomposition table.

Usage::

    python -m repro.telemetry.report benchmarks/out/tperf_ntcp.trace.jsonl
    python -m repro.telemetry.report --critical-path trace.jsonl

With ``--critical-path`` the per-step phase table is replaced by the
:mod:`repro.monitor.critical_path` blame analysis: which site's execute
leg dominated each step, and how the idle slack distributes.  Any other
``-…`` argument prints the usage line and exits 2.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Any

from repro.util.errors import SchemaError

STEP_SPAN = "coordinator.step"
PHASES = ("integrate", "propose", "execute", "commit", "retry_wait",
          "propose_execute")
#: the contiguous phases of a clean barrier-mode step (their durations
#: sum to the step wall time — asserted by the integration tests)
CORE_PHASES = ("integrate", "propose", "execute", "commit")
PIPELINED_NOTE = ("pipelined steps (those with attempts) split only "
                  "integrate and commit: their rounds overlap the "
                  "neighbouring steps' by design")


def _as_record(span: Any) -> dict[str, Any]:
    return span if isinstance(span, dict) else span.to_dict()


def rows_by_span(records: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """``{span_id: row}`` for every finished step span, phases folded in.

    A pipelined step's row (its span has a ``speculated`` attr) also
    carries ``attempts``; its ``phases`` hold no propose or execute unless
    a fault sent the step down the fault-policy fallback.
    """
    steps: dict[str, dict[str, Any]] = {}
    for rec in records:
        if rec["name"] == STEP_SPAN and rec.get("duration") is not None:
            attrs = rec["attrs"]
            row = steps[rec["span_id"]] = {
                "step": int(attrs.get("step", -1)),
                "run_id": attrs.get("run_id", ""),
                "total": rec["duration"],
                "phases": {},
            }
            if "speculated" in attrs:
                row["attempts"] = int(attrs.get("attempts", 1))
    for rec in records:
        row = steps.get(rec.get("parent_id"))
        if row is None or rec.get("duration") is None:
            continue
        phase = rec["name"].rsplit(".", 1)[-1]
        if phase in PHASES:
            row["phases"][phase] = (row["phases"].get(phase, 0.0)
                                    + rec["duration"])
    return steps


def step_rows(spans: list[Any]) -> list[dict[str, Any]]:
    """Fold a span list into one row per step.

    Accepts live :class:`~repro.telemetry.spans.Span` objects or the dict
    records of a JSONL export.  Returns rows sorted by step number::

        {"step": 3, "run_id": "most", "total": 0.21,
         "phases": {"integrate": 0.0, "propose": 0.1, ...}}
    """
    rows = rows_by_span([_as_record(s) for s in spans])
    return sorted(rows.values(), key=lambda r: r["step"])


def render_step_table(rows: list[dict[str, Any]], *,
                      max_rows: int | None = 20) -> str:
    """The step-latency breakdown as an aligned text table."""
    if not rows:
        return "no coordinator.step spans in trace"
    phases = [p for p in PHASES
              if any(p in r["phases"] for r in rows)]
    pipelined = any("attempts" in r for r in rows)
    header = f"{'step':>6}" + "".join(f"{p:>16}" for p in phases) \
        + f"{'total [s]':>12}" + (f"{'attempts':>10}" if pipelined else "")
    lines = [header, "-" * len(header)]
    shown = rows if max_rows is None else rows[:max_rows]
    for row in shown:
        cells = "".join(f"{row['phases'].get(p, 0.0):>16.4f}" for p in phases)
        attempts = f"{row['attempts']:>10}" if "attempts" in row else ""
        lines.append(f"{row['step']:>6}{cells}{row['total']:>12.4f}{attempts}")
    if max_rows is not None and len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more steps)")
    n = len(rows)
    mean_total = sum(r["total"] for r in rows) / n
    means = "".join(
        f"{sum(r['phases'].get(p, 0.0) for r in rows) / n:>16.4f}"
        for p in phases)
    lines.append("-" * len(header))
    lines.append(f"{'mean':>6}{means}{mean_total:>12.4f}")
    if pipelined:
        lines.append(PIPELINED_NOTE)
    return "\n".join(lines)


def report_from_spans(spans: list[Any], **kwargs: Any) -> str:
    return render_step_table(step_rows(spans), **kwargs)


def report_from_jsonl(path: str | pathlib.Path, **kwargs: Any) -> str:
    """Load a :meth:`TelemetryHub.export_jsonl` file and render the table."""
    from repro.telemetry.hub import TelemetryHub

    loaded = TelemetryHub.load_jsonl(path)
    title = loaded["meta"].get("experiment", str(path))
    table = render_step_table(step_rows(loaded["spans"]), **kwargs)
    return f"step-latency breakdown — {title}\n{table}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    critical_path = "--critical-path" in argv
    argv = [a for a in argv if a != "--critical-path"]
    if not argv or any(a.startswith("-") for a in argv):
        print("usage: python -m repro.telemetry.report "
              "[--critical-path] <trace.jsonl> [...]", file=sys.stderr)
        return 2
    for path in argv:
        if not pathlib.Path(path).exists():
            print(f"error: no such trace file: {path}", file=sys.stderr)
            return 2
        try:
            if critical_path:
                from repro.monitor.critical_path import (
                    report_from_jsonl as cp_report)

                print(cp_report(path))
            else:
                print(report_from_jsonl(path))
        except BrokenPipeError:  # e.g. piped into head
            return 0
        except (SchemaError, ValueError, KeyError, TypeError) as exc:
            # a malformed trace: wrong shape, or step-span attrs the
            # renderers cannot read (attrs are free-form in the schema)
            print(f"error: not a telemetry trace: {path} ({exc})",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
