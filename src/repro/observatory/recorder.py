"""The black-box flight recorder.

A bounded per-source ring of recent activity — finished spans, protocol
verb results, and state-machine transitions — kept hot in memory and
frozen into a ``repro.observatory/v1`` flight snapshot the moment an
alert escalates or a run aborts.  The recorder is one telemetry sink: a
ring holds the ``LogRecord`` / finished ``Span`` it was handed (either
lives only as long as some ring keeps it: the tracer keeps a finished
span as a row, not the object); coercing detail to JSON, recovering the step and building
the event dict all happen in :meth:`FlightRecorder.snapshot`, at the
incident, so a run that has none pays one ``deque.append`` per event.
The snapshot is what the MOST team did not have at step 1493: one
document saying what every site saw in the last N steps before the
failure, renderable as an incident timeline by ``repro observatory
postmortem``.

Sources are derived from where the event came from: NTCP servers record
under ``ntcp-<site>`` (their OGSI subsystem), coordinator events under
``coordinator``, fleet events under ``fleet``, and coordinator step
spans under their ``site`` attribute when they carry one.  Steps are
recovered from event detail or from transaction names
(``<run>-step<NNNNN>-<site>``), so the timeline can be filtered to the
last N steps before the incident.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Any

from repro.observatory.schema import validate_flight_snapshot
from repro.telemetry import LogRecord

#: record subsystems the recorder keeps (prefix match)
RECORDED_SUBSYSTEMS = ("ogsi.", "coordinator.", "fleet.")
#: step number embedded in NTCP transaction names
_STEP_RE = re.compile(r"step(\d+)")


def _jsonable(value: Any) -> Any:
    """Coerce arbitrary event detail into JSON-serializable data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def extract_step(what: str, detail: dict[str, Any]) -> int | None:
    """Recover a step number from event detail or a transaction name."""
    step = detail.get("step")
    if isinstance(step, int) and not isinstance(step, bool):
        return step
    for key in ("txn", "transaction", "name"):
        candidate = detail.get(key)
        if isinstance(candidate, str):
            found = _STEP_RE.search(candidate)
            if found:
                return int(found.group(1))
    found = _STEP_RE.search(what)
    if found:
        return int(found.group(1))
    return None


class FlightRecorder:
    """Bounded per-source rings of recent spans and protocol events."""

    def __init__(self, kernel, *, capacity: int = 256):
        self.kernel = kernel
        self.capacity = capacity
        self._rings: dict[str, deque] = {}
        self.snapshots: list[dict[str, Any]] = []
        kernel.telemetry.add_sink(self)

    # -- ingestion ------------------------------------------------------------
    def _ring(self, source: str) -> deque:
        ring = self._rings.get(source)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[source] = ring
        return ring

    def on_record(self, record: LogRecord) -> None:
        """Telemetry sink hook: keep protocol/coordinator/fleet records."""
        subsystem = record.subsystem
        if not subsystem.startswith(RECORDED_SUBSYSTEMS):
            return
        if subsystem.startswith("ogsi."):
            source = subsystem[len("ogsi."):]
        elif subsystem.startswith("coordinator."):
            source = "coordinator"
        else:
            source = "fleet"
        self._ring(source).append(record)

    def on_span(self, span) -> None:
        """Telemetry sink hook: keep coordinator and per-site spans."""
        site = (span.attrs or {}).get("site")
        if span.name.startswith("coordinator."):
            source = "coordinator"
        elif isinstance(site, str) and site:
            source = site
        else:
            return
        self._ring(source).append(span)

    # -- snapshots ------------------------------------------------------------
    @staticmethod
    def _event(entry) -> dict[str, Any]:
        """Render one kept ``LogRecord`` or finished ``Span``."""
        if isinstance(entry, LogRecord):
            time, kind, what = entry.time, "log", entry.kind
            detail = _jsonable(entry.detail)
        else:
            time, kind, what = entry.end_time, "span", entry.name
            detail = _jsonable(dict(entry.attrs or {}))
            detail["duration"] = entry.end_time - entry.start
        return {"time": time, "type": kind, "what": what,
                "step": extract_step(what, detail), "detail": detail}

    def snapshot(self, *, run_id: str, reason: str, step: int = -1,
                 site: str | None = None) -> dict[str, Any]:
        """Render and freeze every ring into a validated flight document."""
        payload = {"schema": "repro.observatory/v1", "kind": "flight",
                   "run_id": run_id, "reason": reason,
                   "time": self.kernel.now, "step": step, "site": site,
                   "sources": {source: [self._event(entry)
                                        for entry in self._rings[source]]
                               for source in sorted(self._rings)}}
        validate_flight_snapshot(payload)
        self.snapshots.append(payload)
        return payload

    def stats(self) -> dict[str, Any]:
        """Recorder accounting for the service's SDE."""
        return {"sources": len(self._rings),
                "events": sum(len(r) for r in self._rings.values()),
                "snapshots": len(self.snapshots),
                "capacity": self.capacity}


def postmortem_timeline(snapshot: dict[str, Any], *,
                        last_steps: int = 5) -> str:
    """Render a flight snapshot as a step-1493-style incident timeline.

    Merges every source's events into one time-ordered listing, filtered
    to the last ``last_steps`` steps before the incident step (events
    with no recoverable step are kept — they are usually the failure
    itself).
    """
    validate_flight_snapshot(snapshot)
    incident_step = snapshot["step"]
    cutoff = incident_step - last_steps + 1 if incident_step >= 0 else None
    merged = []
    for source, events in snapshot["sources"].items():
        for event in events:
            step = event.get("step")
            if (cutoff is not None and step is not None
                    and not cutoff <= step <= incident_step):
                continue
            merged.append((event["time"], source, event))
    merged.sort(key=lambda item: (item[0], item[1]))

    site = snapshot["site"] or "unknown"
    lines = [f"POSTMORTEM  run={snapshot['run_id']}  "
             f"reason={snapshot['reason']}",
             f"incident    step={incident_step}  site={site}  "
             f"t={snapshot['time']:.3f}",
             f"window      last {last_steps} steps, "
             f"{len(merged)} events from "
             f"{len(snapshot['sources'])} sources", ""]
    header = f"{'time':>10}  {'source':<14} {'step':>5}  event"
    lines.append(header)
    lines.append("-" * len(header))
    for time, source, event in merged:
        step = event.get("step")
        step_text = f"{step:>5}" if step is not None else "    -"
        what = event["what"]
        if event["type"] == "span":
            duration = event["detail"].get("duration")
            if isinstance(duration, (int, float)):
                what = f"{what} ({duration:.3f}s)"
        lines.append(f"{time:>10.3f}  {source:<14} {step_text}  {what}")
    return "\n".join(lines)
