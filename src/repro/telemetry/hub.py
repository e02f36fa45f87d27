"""The telemetry hub: one registry + tracer + pluggable sinks per run.

Every :class:`~repro.sim.kernel.Kernel` owns a hub wired to the simulation
clock, so all layers reach telemetry as ``kernel.telemetry`` without extra
plumbing.  Sinks observe finished spans as they close and the records
subsystems emit (``Kernel.emit``) as they happen; nothing else keeps a
record.  The in-memory sink is what tests assert against, the JSONL sink
streams spans for offline analysis (``benchmarks/out/``).
:meth:`TelemetryHub.export_jsonl` writes the whole run — metrics
snapshot plus trace — in one pass.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Callable

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.telemetry.schema import (
    SCHEMA_ID,
    SchemaError,
    validate_jsonl_export,
    validate_metrics_payload,
)
from repro.telemetry.spans import LogRecord, Span, Tracer
from repro.util.schema import obj, validator

_validate_jsonl_line = validator(SchemaError, obj({}))


class InMemorySink:
    """Collects finished spans and emitted records in lists (the test sink)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.records: list[LogRecord] = []

    def on_span(self, span: Span) -> None:
        self.spans.append(span)

    def on_record(self, record: LogRecord) -> None:
        self.records.append(record)


class JsonlSink:
    """Streams each finished span as one JSON line to a file."""

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def on_span(self, span: Span) -> None:
        record = {"kind": "span", **span.to_dict()}
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class ScopedTelemetry:
    """A label-scoped view of a hub: same registry, fixed extra labels.

    Returned by :meth:`TelemetryHub.scoped`.  Instruments created through
    the view carry the scope's labels in addition to any call-site labels
    — this is how concurrent runs multiplexed on one kernel (fleet
    tenants, parallel sessions) keep their metric series apart.  On a key
    collision the scope's label wins, so a scoped component can never
    accidentally shed its namespace.  Spans and exports are not scoped:
    take them from ``.hub``.
    """

    def __init__(self, hub: "TelemetryHub", labels: dict[str, str]):
        self.hub = hub
        self.labels = dict(labels)

    def counter(self, name: str, **labels: Any) -> Counter:
        """A counter carrying the scope's labels plus ``labels``."""
        return self.hub.counter(name, **{**labels, **self.labels})


class TelemetryHub:
    """The one observability surface of a run.

    Args:
        clock: returns the current time for spans/metrics; the kernel
            injects its simulation clock, standalone use defaults to
            :func:`time.monotonic`.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.monotonic
        self.registry = MetricRegistry()
        self.tracer = Tracer(self._clock, on_finish=self._span_finished)
        self._span_sinks: list[Any] = []
        self._record_sinks: list[Any] = []

    # -- instruments ---------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.registry.histogram(name, **labels)

    def scoped(self, **labels: Any) -> ScopedTelemetry:
        """A view of this hub whose instruments all carry ``labels``.

        Concurrently constructed deployments sharing one kernel must each
        take a scope (e.g. ``hub.scoped(tenant="t03")``) so their metric
        series cannot collide in the shared registry.
        """
        return ScopedTelemetry(self, labels)

    # -- spans ---------------------------------------------------------------
    def start_span(self, name: str, **kwargs: Any) -> Span:
        """Shorthand for ``hub.tracer.start_span``."""
        return self.tracer.start_span(name, **kwargs)

    def spans(self, name: str | None = None, *,
              trace_id: str | None = None) -> list[Span]:
        return self.tracer.spans(name, trace_id=trace_id)

    def _span_finished(self, span: Span) -> None:
        for sink in self._span_sinks:
            sink.on_span(span)

    # -- records -------------------------------------------------------------
    def record(self, time: float, subsystem: str, kind: str,
               detail: dict[str, Any]) -> None:
        """Hand one :class:`LogRecord` to each sink with ``on_record``.

        Builds nothing when no sink takes records, and keeps nothing.
        """
        if self._record_sinks:
            record = LogRecord(time, subsystem, kind, detail)
            for sink in self._record_sinks:
                sink.on_record(record)

    # -- sinks ---------------------------------------------------------------
    def add_sink(self, sink: Any) -> Any:
        """Register an object with ``on_span(span)`` and/or
        ``on_record(record)``; it sees what finishes or is emitted from
        now on.  Returns it."""
        if hasattr(sink, "on_span"):
            self._span_sinks.append(sink)
        if hasattr(sink, "on_record"):
            self._record_sinks.append(sink)
        return sink

    # -- export --------------------------------------------------------------
    def metrics_snapshot(self) -> list[dict[str, Any]]:
        return self.registry.snapshot()

    def metrics_payload(self, experiment: str) -> dict[str, Any]:
        """A schema-valid metrics document for one experiment."""
        payload = {
            "schema": SCHEMA_ID,
            "experiment": experiment,
            "metrics": self.metrics_snapshot(),
        }
        validate_metrics_payload(payload)
        return payload

    def export_jsonl(self, path: str | pathlib.Path, *,
                     experiment: str = "run") -> pathlib.Path:
        """Write the whole run as JSONL: one meta line, then metrics, then spans."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The line discriminator is "kind", NOT "type": metric records
        # carry their own "type" field (counter/gauge/histogram).
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "meta", "schema": SCHEMA_ID,
                                 "experiment": experiment}) + "\n")
            for record in self.metrics_snapshot():
                fh.write(json.dumps({"kind": "metric", **record}) + "\n")
            for span in self.tracer.finished:
                fh.write(json.dumps({"kind": "span", **span.to_dict()}) + "\n")
        return path

    @staticmethod
    def load_jsonl(path: str | pathlib.Path) -> dict[str, Any]:
        """Parse an export back into ``{"meta", "metrics", "spans"}``.

        Validated on the way in: a line that is not a JSON object, or a
        record of the wrong shape, is a :class:`SchemaError`.
        """
        meta: dict[str, Any] = {}
        metrics: list[dict[str, Any]] = []
        spans: list[dict[str, Any]] = []
        lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"corrupt trace line {lineno}: {exc}") from exc
            _validate_jsonl_line(record)
            kind = record.pop("kind", None)
            if kind == "meta":
                meta = record
            elif kind == "metric":
                metrics.append(record)
            elif kind == "span":
                spans.append(record)
        loaded = {"meta": meta, "metrics": metrics, "spans": spans}
        validate_jsonl_export(loaded)
        return loaded
