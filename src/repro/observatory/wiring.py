"""Wire the grid observatory into an assembled MOST deployment.

:func:`attach_observatory` stands the history plane up beside the
operations console on the portal host and reads what the console
already keeps — there is one receiver and one store per run:

* the console's :class:`~repro.observatory.tsdb.TimeSeriesStore`, fed by
  its one :class:`~repro.nsds.subscriber.NSDSReceiver` on the
  ``monitor-metrics`` channel (each sample shipped, checked and kept
  once);
* an :class:`~repro.observatory.service.ObservatoryService` in the
  console's container, so any grid client can run range queries;
* an :class:`~repro.observatory.slo.SLOEvaluator` sweeping the store and
  raising ``slo_burn`` alerts through the console on the same host;
* a :class:`~repro.observatory.recorder.FlightRecorder` whose rings are
  snapshotted — and registered in the repository's NMDS,
  checkpoint-style, over the portal's link to it — whenever an alert
  escalates to ``critical`` or the run aborts.

Everything crosses the simulated network on the sim clock, so repeated
runs of the same campaign produce byte-identical query results,
snapshots, and postmortems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.rpc import RpcError
from repro.observatory.query import run_query
from repro.observatory.recorder import FlightRecorder, postmortem_timeline
from repro.observatory.schema import SCHEMA_ID, validate_dump
from repro.observatory.service import ObservatoryService
from repro.observatory.slo import SLOEvaluator, default_slos
from repro.observatory.tsdb import TimeSeriesStore
from repro.repository.facade import RepositoryFacade
from repro.util.errors import ReproError


@dataclass
class ObservatoryKit:
    """Handles to every piece :func:`attach_observatory` created."""

    kernel: Any
    store: TimeSeriesStore
    service: ObservatoryService
    recorder: FlightRecorder
    slo: SLOEvaluator
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
                       slo_interval: float = 60.0) -> ObservatoryKit:
    """Deploy the observatory against ``dep``, beside monitoring kit ``kit``.

    Requires :func:`repro.monitor.attach_monitoring` to have run first —
    the observatory reads the console's store and routes its SLO alerts
    through the console.  The SLO sweep starts with
    :meth:`ObservatoryKit.start`.
    """
    kernel, monitor = dep.kernel, kit.monitor
    store = monitor.store
    recorder = FlightRecorder(kernel)
    service = ObservatoryService(store=store, recorder=recorder)
    kit.console_container.deploy(service)

    evaluator = SLOEvaluator(kernel, store, default_slos(),
                             alert_sink=monitor.raise_alert,
                             interval=slo_interval)

    nmds = getattr(dep, "nmds", None)
    repository = (None if nmds is None
                  else RepositoryFacade(kit.rpc, nmds.handle))
    obs = ObservatoryKit(kernel=kernel, store=store, service=service,
                         recorder=recorder, slo=evaluator, monitor_kit=kit,
                         run_id=run_id, repository=repository)

    # Critical alerts freeze the flight rings — the step-1493 black box.
    previous_on_alert = monitor.on_alert

    def on_alert(alert):
        if alert.severity == "critical":
            obs.record_escalation(alert)
        if previous_on_alert is not None:
            previous_on_alert(alert)

    monitor.on_alert = on_alert
    dep.extras["observatory"] = obs
    return obs
