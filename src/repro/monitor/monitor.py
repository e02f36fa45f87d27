"""The experiment monitor: rollups plus deterministic anomaly detectors.

:class:`ExperimentMonitor` is the operator console of the reproduction.
It is a grid service hosted on the portal, fed by two subscriptions:

* streamed ``repro.monitor/v1`` metrics samples arriving through an
  :class:`~repro.nsds.subscriber.NSDSReceiver` (best-effort, may gap),
  each checked once and kept in the console's
  :class:`~repro.observatory.tsdb.TimeSeriesStore` — the one store the
  observatory queries too;
* ``health`` SDE change notifications arriving through a
  :class:`~repro.ogsi.notification.NotificationSink`.

From those it maintains rollups (committed-step progress and rate and
per-site execute latency summaries and retry/timeout counts, read off
the store's latest points, plus stream health) and runs its detectors
on the simulation clock, so a given run raises the same alerts at the
same sim times every time:

* **stall** — no committed step for :data:`STALL_AFTER` sim-seconds
  (the §3.4 "experiment exited prematurely" signature, seen live);
* **slow_site** — a site's execute p95 over budget, or the dominant
  site shifting (the paper's NCSA-simulation-suddenly-dominates story);
* **stream_health** — the metrics stream itself losing or reordering
  more than a tolerated fraction of samples;
* **breaker_open** — a site's circuit breaker left ``closed`` (warning),
  escalating to critical when the coordinator fails the site over to its
  numerical surrogate (the health SDE reports ``degraded``).

Alerts are frozen :class:`Alert` records; each one is also published as
the ``lastAlert`` SDE, so remote sinks receive it through the standard
OGSI notification path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.monitor.schema import ALERT_KINDS, SCHEMA_ID, validate_alert_payload
from repro.nsds.stream import StreamSample
from repro.observatory.tsdb import TimeSeriesStore
from repro.ogsi.service import GridService

#: metric whose per-site summaries drive the slow-site detector
EXECUTE_METRIC = "core.server.execute_time"
#: counter whose total is the committed-step count
STEPS_METRIC = "coordinator.mspsds.steps"

# Detector tuning, fit to the MOST step cadence (~12 s/step).
#: sim-seconds between detector sweeps
SWEEP_INTERVAL = 15.0
#: sim-seconds without a committed step before a stall fires
STALL_AFTER = 120.0
#: per-site execute p95 budget, sim-seconds
EXECUTE_BUDGET = 30.0
#: execute observations required before the p95 is trusted
MIN_EXECUTE_SAMPLES = 5
#: factor by which a new dominant site must exceed the old one
DOMINANCE_MARGIN = 1.5
#: tolerated net-loss fraction of the metrics stream
STREAM_LOSS_RATE = 0.05
#: tolerated out-of-order fraction of the metrics stream
STREAM_OUT_OF_ORDER_RATE = 0.25
#: stream samples required before stream health is judged
MIN_STREAM_SAMPLES = 20


@dataclass(frozen=True)
class Alert:
    """One typed anomaly record."""

    alert_id: str
    kind: str          # one of schema.ALERT_KINDS
    severity: str      # one of schema.ALERT_SEVERITIES
    time: float        # sim time raised
    step: int          # last committed step when raised (-1: none yet)
    site: str | None   # offending site, if the alert names one
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_payload(self, source: str) -> dict[str, Any]:
        """The validated ``repro.monitor/v1`` alert payload."""
        payload = {"schema": SCHEMA_ID, "kind": "alert", "source": source,
                   "time": self.time, "alert_id": self.alert_id,
                   "alert": self.kind, "severity": self.severity,
                   "step": self.step, "site": self.site,
                   "message": self.message, "detail": dict(self.detail)}
        validate_alert_payload(payload)
        return payload


class ExperimentMonitor(GridService):
    """Live rollups + anomaly detection over streamed telemetry."""

    def __init__(self, service_id: str = "monitor-console", *,
                 on_alert: Callable[[Alert], None] | None = None):
        super().__init__(service_id)
        self.on_alert = on_alert
        self.alerts: list[Alert] = []
        self.receiver = None
        self.store: TimeSeriesStore | None = None  # built on attach
        self.health: dict[str, dict[str, Any]] = {}
        self.running = False
        self._last_commit_step = -1
        self._last_progress_time: float | None = None
        self._started_watch: float | None = None
        self._finished = False
        self._stall_open = False
        self._stall_span = None
        self._slow_sites: set[str] = set()
        self._dominant: str | None = None
        self._stream_alerted = False
        self._breaker_alerted: set[str] = set()
        self._degraded_alerted: set[str] = set()

    def on_attach(self) -> None:
        self.service_data.set("alerts", 0)
        self.service_data.set("lastAlert", None)
        self.expose("getAlerts",
                    lambda caller: [a.to_payload(self.service_id)
                                    for a in self.alerts])
        self.expose("getRollups", lambda caller: self.rollups())
        telemetry = self.kernel.telemetry
        self._tm_alerts = {kind: telemetry.counter("monitor.alerts.raised",
                                                   kind=kind,
                                                   service=self.service_id)
                           for kind in ALERT_KINDS}
        self.store = TimeSeriesStore(self.kernel)
        self._tm_health = telemetry.counter("monitor.console.health_updates",
                                            service=self.service_id)

    @property
    def samples_seen(self) -> int:
        """Streamed metrics samples absorbed into the store (0 before the
        console is deployed)."""
        return self.store.samples_ingested if self.store is not None else 0

    def bind_receiver(self, receiver) -> None:
        """Point the stream-health detector at the NSDS receiver."""
        self.receiver = receiver

    # -- ingest ---------------------------------------------------------------
    def on_stream_sample(self, sample: StreamSample) -> None:
        """NSDSReceiver callback: absorb one streamed metrics payload
        into the store (which checks it) and note the committed steps.

        A malformed sample raises
        :class:`~repro.monitor.schema.MonitorSchemaError`; arriving
        over the wire, that is the receiver's guard's to count
        (``subscriber_errors``), not the experiment's to die of.
        """
        payload = sample.value
        if not isinstance(payload, dict) or payload.get("kind") != "metrics":
            return
        self.store.ingest_metrics_payload(payload)
        steps = int(self.counter_total(STEPS_METRIC))
        if steps > 0:
            self._note_progress(steps)

    def on_notification(self, payload: dict[str, Any]) -> None:
        """NotificationSink callback: absorb one health SDE change."""
        if payload.get("sde_name") != "health":
            return
        value = payload.get("value")
        if not isinstance(value, dict) or value.get("kind") != "health":
            return
        source = value["source"]
        self.health[source] = value
        self._tm_health.inc()
        if "step" in value:
            self._note_progress(int(value["step"]))
        if value.get("status") == "stopped" and source == "coordinator":
            self._finished = True

    def counter_total(self, name: str) -> float:
        """Streamed cumulative total of a counter, summed over labels: the
        latest point of each of that counter's series in the store."""
        return sum(series.values[-1] for series in self.store.match(name))

    def _execute_summaries(self) -> dict[str, dict[str, float]]:
        """Each site's latest streamed execute summary, ``stat -> value``
        (count, mean, p50, p95, p99), read off the store."""
        summaries: dict[str, dict[str, float]] = {}
        for series in self.store.match(EXECUTE_METRIC):
            site = series.labels.get("site")
            if site:
                summaries.setdefault(site, {})[series.labels["stat"]] = \
                    series.values[-1]
        return summaries

    def _note_progress(self, step: int) -> None:
        if step <= self._last_commit_step:
            return
        self._last_commit_step = step
        self._last_progress_time = self.kernel.now
        if self._stall_open:
            self._stall_open = False
            if self._stall_span is not None:
                self._stall_span.end(recovered_step=step)
                self._stall_span = None

    # -- detectors ------------------------------------------------------------
    def check(self) -> None:
        """Run every detector once against current state."""
        now = self.kernel.now
        self._check_stall(now)
        self._check_slow_sites()
        self._check_stream_health()
        self._check_breakers()

    def _check_stall(self, now: float) -> None:
        if self._finished or self._stall_open:
            return
        base = self._last_progress_time
        if base is None:
            base = self._started_watch
        if base is None:
            return
        silent = now - base
        if silent < STALL_AFTER:
            return
        self._stall_open = True
        # Stashed on the instance so the episode spans detection to
        # recovery; _note_progress / stop() close it.
        self._stall_span = self.kernel.telemetry.start_span(
            "monitor.stall.episode", parent=None,
            step=self._last_commit_step)
        self.raise_alert(
            "stall", "critical",
            f"no committed step for {silent:.0f}s "
            f"(last committed step {self._last_commit_step})",
            detail={"silent_for": silent})

    def _check_slow_sites(self) -> None:
        # cumulative execute time per site: count x mean
        sums: dict[str, float] = {}
        for site, summary in sorted(self._execute_summaries().items()):
            if summary["count"] < MIN_EXECUTE_SAMPLES:
                return  # judge dominance only once every site qualifies
            sums[site] = summary["count"] * summary["mean"]
            p95 = summary["p95"]
            if site not in self._slow_sites and p95 > EXECUTE_BUDGET:
                self._slow_sites.add(site)
                self.raise_alert(
                    "slow_site", "warning",
                    f"site {site} execute p95 {p95:.1f}s over the "
                    f"{EXECUTE_BUDGET:.1f}s budget",
                    site=site,
                    detail={"p95": p95, "mean": summary["mean"],
                            "count": int(summary["count"])})
        if not sums:
            return
        top_sum, top_site = max((total, site) for site, total in sums.items())
        if self._dominant is None:
            self._dominant = top_site
            return
        if top_site == self._dominant:
            return
        prev_sum = sums[self._dominant]
        if top_sum > DOMINANCE_MARGIN * prev_sum:
            previous = self._dominant
            self._dominant = top_site
            self.raise_alert(
                "slow_site", "warning",
                f"dominant site shifted from {previous} to {top_site} "
                f"(cumulative execute {top_sum:.0f}s vs {prev_sum:.0f}s)",
                site=top_site,
                detail={"previous": previous, "sum": top_sum,
                        "previous_sum": prev_sum})

    def _check_stream_health(self) -> None:
        stats = self.stream_stats()
        if self._stream_alerted or stats is None:
            return
        if stats["received"] < MIN_STREAM_SAMPLES:
            return
        reasons = []
        if stats["loss_rate"] > STREAM_LOSS_RATE:
            reasons.append(f"loss rate {stats['loss_rate']:.1%}")
        if stats["out_of_order_rate"] > STREAM_OUT_OF_ORDER_RATE:
            reasons.append(f"out-of-order rate "
                           f"{stats['out_of_order_rate']:.1%}")
        if not reasons:
            return
        self._stream_alerted = True
        self.raise_alert(
            "stream_health", "warning",
            "metrics stream degraded: " + ", ".join(reasons),
            detail=stats)

    def _check_breakers(self) -> None:
        """Alert on breaker trips and surrogate failovers, once per episode.

        Reads the breaker snapshots the coordinator's health probe embeds
        in its ``detail`` — the monitor never touches the breakers
        directly, so it works across the (simulated) wire like every
        other console view.
        """
        for source, value in sorted(self.health.items()):
            detail = value.get("detail") or {}
            breakers = detail.get("breakers")
            if not isinstance(breakers, dict):
                continue
            for site, snap in sorted(breakers.items()):
                state = snap.get("state")
                if state == "closed":
                    # Episode over — re-arm so a later trip alerts again.
                    self._breaker_alerted.discard(site)
                    continue
                if site not in self._breaker_alerted:
                    self._breaker_alerted.add(site)
                    self.raise_alert(
                        "breaker_open", "warning",
                        f"circuit breaker for site {site} is {state} "
                        f"(trip #{snap.get('trips', 0)}, open for "
                        f"{snap.get('open_duration', 0.0):.0f}s)",
                        site=site, detail=dict(snap))
            degraded = set(detail.get("degraded_sites", ()))
            for site in sorted(degraded):
                if site not in self._degraded_alerted:
                    self._degraded_alerted.add(site)
                    self.raise_alert(
                        "breaker_open", "critical",
                        f"site {site} failed over to its numerical "
                        "surrogate; run continuing in degraded mode",
                        site=site,
                        detail={"degraded_sites": sorted(degraded),
                                "source": source})
            for site in list(self._degraded_alerted):
                if site not in degraded:
                    self._degraded_alerted.discard(site)

    def stream_stats(self) -> dict[str, Any] | None:
        """Gap/out-of-order rates, read from the receiver's hub counters.

        Alongside the receiver-wide rates, ``channels`` breaks the
        counters down per subscribed channel (received, highest sequence
        number seen, sequence-gap losses), so a ``stream_health`` alert
        payload names which stream is actually gapping.
        """
        receiver = self.receiver
        if receiver is None:
            return None
        received = receiver.accepted
        gaps, out_of_order = receiver.gap_count, receiver.out_of_order
        lost = max(gaps - out_of_order, 0)
        channels = {channel: {"received": receiver.received_count(channel),
                              "highest_seq": highest,
                              "lost": receiver.loss_count(channel)}
                    for channel, highest in sorted(
                        receiver.highest_seq.items())}
        return {"received": received, "gaps": gaps,
                "out_of_order": out_of_order, "lost": lost,
                "loss_rate": lost / received if received else 0.0,
                "out_of_order_rate": (out_of_order / received
                                      if received else 0.0),
                "channels": channels}

    # -- alerting -------------------------------------------------------------
    def raise_alert(self, kind: str, severity: str, message: str, *,
                    site: str | None = None,
                    detail: dict[str, Any] | None = None) -> Alert:
        """Raise a typed alert: SDEs, counter, log record, ``on_alert``.

        The built-in detectors and external ones alike — the
        observatory's SLO burn-rate evaluator routes its ``slo_burn``
        alerts through here, the console's one channel.
        """
        alert = Alert(alert_id=f"{self.service_id}-{len(self.alerts) + 1:04d}",
                      kind=kind, severity=severity, time=self.kernel.now,
                      step=self._last_commit_step, site=site,
                      message=message, detail=dict(detail or {}))
        self.alerts.append(alert)
        self.service_data.set("lastAlert", alert.to_payload(self.service_id))
        self.service_data.set("alerts", len(self.alerts))
        self._tm_alerts[kind].inc()
        self.emit("alert." + kind, severity=severity, site=site,
                  message=message)
        if self.on_alert is not None:
            self.on_alert(alert)
        return alert

    # -- rollups --------------------------------------------------------------
    def rollups(self) -> dict[str, Any]:
        """The console's summary board."""
        now = self.kernel.now
        watched = (now - self._started_watch
                   if self._started_watch is not None else 0.0)
        steps = max(self._last_commit_step, 0)
        per_site = {site: {"execute_p95": summary["p95"],
                           "execute_mean": summary["mean"],
                           "executed": int(summary["count"])}
                    for site, summary in sorted(
                        self._execute_summaries().items())}
        return {"watched_for": watched,
                "last_committed_step": self._last_commit_step,
                "step_rate": steps / watched if watched > 0 else 0.0,
                "per_site": per_site,
                "retries": self.counter_total("coordinator.mspsds.retries"),
                "rpc_timeouts": self.counter_total("net.rpc.timeouts"),
                "rpc_retries": self.counter_total("net.rpc.retries"),
                "stream": self.stream_stats(),
                "dominant_site": self._dominant,
                "alerts": len(self.alerts),
                "health": {source: value.get("status")
                           for source, value in sorted(self.health.items())}}

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic detector sweep (requires attachment)."""
        if self.running:
            return
        self.running = True
        self._started_watch = self.kernel.now
        self.kernel.process(self._watch(), name=f"monitor.{self.service_id}")

    def stop(self) -> None:
        self.running = False
        if self._stall_span is not None:
            self._stall_span.end(recovered=False)
            self._stall_span = None

    def _watch(self):
        while self.running:
            self.check()
            yield self.kernel.timeout(SWEEP_INTERVAL)
