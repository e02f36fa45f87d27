"""Stream telemetry deltas over NSDS, next to the sensor data.

The paper's operators read site metrics over the same best-effort
streaming fabric that carried DAQ channels; :class:`TelemetryStreamer`
reproduces that: every ``interval`` simulated seconds it snapshots the
kernel's :class:`~repro.telemetry.metrics.MetricRegistry`, packages the
delta as a ``repro.monitor/v1`` ``metrics`` payload, and ingests it into
an :class:`~repro.nsds.service.NSDSService` channel.
Downstream, the payload inherits NSDS semantics wholesale — sequence
numbers, ring-buffer history, drops, gaps, reordering — which is exactly
what the monitor's stream-health detector then measures.

Counters are shipped as (delta, cumulative total) pairs so a consumer
that missed flushes can resynchronise from the totals; histograms ship
cumulative summaries including the operator-facing p95.

A flush costs one pass over the matching instruments, and builds a
record only for an instrument that changed since this streamer's last
record of it.  An unchanged one — a counter whose delta and total are
the previous record's to the type and the bit, a gauge whose value is,
a histogram whose ``count`` is — is re-sent as that very record object,
so the NSDS ring holds one record across every sample that carries it.
A shipped record is never mutated: its readers copy before they change
anything.  ("Unchanged" is not read from a histogram's cached summary,
which another reader may have refreshed after an ``observe``.)  The
list of matching instruments is rebuilt only when the registry has
grown since the last flush (it never shrinks); the registry is already
in key order, so nothing is sorted.  The payload is not walked again
here — it is validated where it lands (the console's one receiver,
behind a sink that counts a bad datagram, by the console's store, which
resolves a record once:
:func:`~repro.monitor.schema.metrics_sample_checker`), not where it is
built, so a producer bug is a counted ``subscriber_errors`` rather than
an exception inside the ``streamer.<source>`` kernel process.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.monitor.schema import SCHEMA_ID, SUMMARY_KEYS
from repro.sim.kernel import Kernel
from repro.telemetry.metrics import Counter, Gauge, Metric


def _same(a: Any, b: Any) -> bool:
    """Whether two numbers are of one type and print alike (0.0 and -0.0
    do not; a NaN is never the same)."""
    return type(a) is type(b) and a == b and (a != 0 or str(a) == str(b))


class TelemetryStreamer:
    """Periodically publish metric snapshots as NSDS samples."""

    #: the NSDS channel all metric samples ride on
    CHANNEL = "monitor-metrics"

    def __init__(self, kernel: Kernel, nsds, *, source: str,
                 interval: float = 30.0,
                 prefixes: Iterable[str] | None = None):
        self.kernel = kernel
        self.nsds = nsds
        self.source = source
        self.interval = interval
        self.prefixes = tuple(prefixes) if prefixes is not None else None
        self.running = False
        self.seq = 0
        # instrument -> the record last shipped for it
        self._last: dict[Metric, dict[str, Any]] = {}
        # the matching instruments in key order, as of a registry of
        # ``_registered`` instruments (a registry only grows)
        self._instruments: list = []
        self._registered = 0

    def snapshot_records(self) -> list[dict[str, Any]]:
        """Describe every matching instrument, in the registry's key
        order; counters as deltas.  ``labels`` is the instrument's own
        frozen dict (as in ``Metric.describe``), and an unchanged
        instrument's record is the one shipped before: readers copy
        before they change anything."""
        registry = self.kernel.telemetry.registry
        if len(registry) != self._registered:
            self._registered = len(registry)
            self._instruments = [
                metric for metric in registry if self.prefixes is None
                or metric.name.startswith(self.prefixes)]
        last = self._last
        records: list[dict[str, Any]] = []
        for metric in self._instruments:
            record = last.get(metric)
            if isinstance(metric, Counter):
                total = metric.value
                delta = total - (record["total"] if record else 0)
                if not (record and _same(delta, record["value"])
                        and _same(total, record["total"])):
                    record = last[metric] = {
                        "name": metric.name, "type": "counter",
                        "labels": metric.labels,
                        "value": delta, "total": total}
            elif isinstance(metric, Gauge):
                if not (record and _same(metric.value, record["value"])):
                    record = last[metric] = {
                        "name": metric.name, "type": "gauge",
                        "labels": metric.labels, "value": metric.value}
            elif not (record and metric.count == record["summary"]["count"]):
                summary = metric.summary()
                record = last[metric] = {
                    "name": metric.name, "type": "histogram",
                    "labels": metric.labels,
                    "summary": {key: summary[key] for key in SUMMARY_KEYS}}
            records.append(record)
        return records

    def flush(self) -> dict[str, Any]:
        """Build and ingest one metrics sample; returns it (validated
        where it lands, see the module docstring)."""
        self.seq += 1
        payload = {"schema": SCHEMA_ID, "kind": "metrics",
                   "source": self.source, "time": self.kernel.now,
                   "seq": self.seq, "metrics": self.snapshot_records()}
        self.nsds.ingest(self.kernel.now, {self.CHANNEL: payload})
        return payload

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.kernel.process(self._run(), name=f"streamer.{self.source}")

    def stop(self) -> None:
        """Stop the loop, pushing one last snapshot first."""
        was_running = self.running
        self.running = False
        if was_running:
            self.flush()

    def _run(self):
        # First flush one interval in, not immediately: a flush issued
        # before the console's subscribe RPC lands reaches no subscriber
        # (a receiver counts loss from the first sequence it sees, so the
        # sample would be unseen, not a gap).
        while self.running:
            yield self.kernel.timeout(self.interval)
            if self.running:
                self.flush()
