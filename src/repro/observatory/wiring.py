"""Wire the grid observatory into an assembled MOST deployment.

:func:`attach_observatory` stands the whole history plane up on the
repository host — where the paper's data archive already lives — and
rides the monitoring kit's existing NSDS metrics stream:

* a :class:`~repro.observatory.tsdb.TimeSeriesStore` fed by its own
  :class:`~repro.nsds.subscriber.NSDSReceiver` subscribed to the same
  ``monitor-metrics`` channel the console watches (a second best-effort
  subscriber; the streamer fans out);
* an :class:`~repro.observatory.service.ObservatoryService` in its own
  container on the repo host, so any grid client can run range queries;
* an :class:`~repro.observatory.slo.SLOEvaluator` sweeping the store and
  raising ``slo_burn`` alerts through the console's standard channel;
* a :class:`~repro.observatory.recorder.FlightRecorder` whose rings are
  snapshotted — and NMDS-registered, checkpoint-style — whenever an
  alert escalates to ``critical`` or the run aborts.

Everything crosses the simulated network on the sim clock, so repeated
runs of the same campaign produce byte-identical query results,
snapshots, and postmortems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.monitor.streamer import TelemetryStreamer
from repro.monitor.wiring import SUBSCRIPTION_LIFETIME
from repro.net.rpc import RpcClient, RpcError
from repro.nsds.subscriber import NSDSReceiver
from repro.observatory.query import run_query
from repro.observatory.recorder import FlightRecorder, postmortem_timeline
from repro.observatory.schema import SCHEMA_ID, validate_dump
from repro.observatory.service import ObservatoryService
from repro.observatory.slo import SLOEvaluator, SLOSpec, default_slos
from repro.observatory.tsdb import TimeSeriesStore
from repro.ogsi import ServiceContainer, invoke
from repro.repository.facade import RepositoryFacade
from repro.util.errors import ReproError

#: host the observatory lives on (the paper's NCSA data repository)
OBSERVATORY_HOST = "repo"


@dataclass
class ObservatoryKit:
    """Handles to every piece :func:`attach_observatory` created."""

    kernel: Any
    store: TimeSeriesStore
    service: ObservatoryService
    receiver: NSDSReceiver
    recorder: FlightRecorder
    slo: SLOEvaluator
    container: ServiceContainer
    monitor_kit: Any
    run_id: str
    repository: RepositoryFacade | None = None
    registered_snapshots: list = field(default_factory=list)

    def start(self) -> None:
        """Begin the periodic SLO sweep."""
        self.slo.start()

    def stop(self) -> None:
        """Stop the sweep loop and refresh the stats SDE one last time."""
        self.slo.stop()
        self.service.publish_stats()

    # -- the read path --------------------------------------------------------
    def query(self, request: dict[str, Any]) -> dict[str, Any]:
        """Run a range query directly against the local store."""
        return run_query(self.store, request, now=self.kernel.now)

    def postmortem(self, run_id: str | None = None, *,
                   last_steps: int = 5) -> str:
        """Render the newest flight snapshot (for ``run_id``) as text."""
        wanted = run_id or self.run_id
        for snapshot in reversed(self.recorder.snapshots):
            if snapshot["run_id"] == wanted:
                return postmortem_timeline(snapshot, last_steps=last_steps)
        raise ReproError(f"no flight snapshot recorded for run {wanted!r}")

    def dump(self) -> dict[str, Any]:
        """The whole store as a validated ``repro.observatory/v1`` dump."""
        payload = {"schema": SCHEMA_ID, "kind": "dump",
                   "run_id": self.run_id, "time": self.kernel.now,
                   "series": self.store.series_records(),
                   "slo": self.slo.evaluate_quiet(),
                   "snapshots": list(self.recorder.snapshots)}
        validate_dump(payload)
        return payload

    # -- incident capture -----------------------------------------------------
    def record_abort(self, result) -> dict[str, Any]:
        """Snapshot the flight rings for an aborted run.

        Called by the session after the coordinator returns incomplete;
        the NMDS registration is scheduled as a kernel process so the
        session's drain phase carries it to the repository.
        """
        step = result.aborted_at_step
        if step is None:
            step = result.steps_completed
        snapshot = self.recorder.snapshot(
            run_id=result.run_id or self.run_id, reason="abort",
            step=int(step), site=result.aborted_site or None)
        self._register_snapshot(snapshot)
        return snapshot

    def record_escalation(self, alert) -> dict[str, Any]:
        """Snapshot the flight rings when an alert escalates to critical."""
        snapshot = self.recorder.snapshot(
            run_id=self.run_id, reason=f"alert:{alert.kind}",
            step=alert.step, site=alert.site)
        self._register_snapshot(snapshot)
        return snapshot

    def _register_snapshot(self, snapshot: dict[str, Any]) -> None:
        if self.repository is None:
            return

        def register():
            try:
                object_id = yield from self.repository.annotate(
                    "flight-recording",
                    {"run_id": snapshot["run_id"],
                     "reason": snapshot["reason"], "step": snapshot["step"],
                     "site": snapshot["site"], "schema": SCHEMA_ID,
                     "snapshot": snapshot})
            except (RpcError, ReproError):
                return  # repo unreachable mid-incident: snapshot stays local
            self.registered_snapshots.append(object_id)

        self.kernel.process(register(), name="observatory-register-snapshot")


def attach_observatory(dep, kit, *, run_id: str,
                       slos: list[SLOSpec] | None = None,
                       slo_interval: float = 60.0) -> ObservatoryKit:
    """Deploy the observatory against ``dep``, riding monitoring kit ``kit``.

    Requires :func:`repro.monitor.attach_monitoring` to have run first —
    the observatory subscribes to the same NSDS metrics stream and routes
    its SLO alerts through the console.  The SLO sweep starts with
    :meth:`ObservatoryKit.start`.
    """
    kernel, network = dep.kernel, dep.network

    store = TimeSeriesStore(kernel)
    receiver = NSDSReceiver(network, OBSERVATORY_HOST,
                            callback=store.on_stream_sample)
    recorder = FlightRecorder(kernel)

    # The repo host's "ogsi" port belongs to the repository container in
    # the full deployment; the observatory takes its own port.
    container = ServiceContainer(network, OBSERVATORY_HOST,
                                 port="observatory")
    service = ObservatoryService(store=store, recorder=recorder)
    container.deploy(service)

    evaluator = SLOEvaluator(kernel, store,
                             slos if slos is not None else default_slos(),
                             alert_sink=kit.monitor.raise_alert,
                             interval=slo_interval)

    nmds = getattr(dep, "nmds", None)
    repository = None if nmds is None else RepositoryFacade(
        RpcClient(network, OBSERVATORY_HOST, default_timeout=30.0),
        nmds.handle)
    obs = ObservatoryKit(kernel=kernel, store=store, service=service,
                         receiver=receiver, recorder=recorder,
                         slo=evaluator, container=container,
                         monitor_kit=kit, run_id=run_id,
                         repository=repository)

    # Critical alerts freeze the flight rings — the step-1493 black box.
    previous_on_alert = kit.monitor.on_alert

    def on_alert(alert):
        if alert.severity == "critical":
            obs.record_escalation(alert)
        if previous_on_alert is not None:
            previous_on_alert(alert)

    kit.monitor.on_alert = on_alert

    rpc = RpcClient(network, OBSERVATORY_HOST, default_timeout=30.0)

    def subscribe():
        yield from invoke(
            rpc, kit.nsds.handle, "subscribe",
            {"sink_host": OBSERVATORY_HOST, "sink_port": receiver.port,
             "channels": [TelemetryStreamer.CHANNEL],
             "lifetime": SUBSCRIPTION_LIFETIME})

    kernel.process(subscribe(), name="observatory-subscription")

    dep.extras["observatory"] = obs
    return obs
