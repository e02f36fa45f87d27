"""Periodic health SDEs — service-data inspection as the paper ran it.

The MOST operators watched the experiment through OGSI service data:
each NTCP server already publishes ``lastChanged`` and per-transaction
SDEs, but nothing summarises *liveness*.  :class:`HealthPublisher`
closes that gap: attached to any :class:`~repro.ogsi.sde.ServiceDataSet`,
it periodically writes a versioned ``health`` SDE (a validated
``repro.monitor/v1`` payload) so remote clients can subscribe to one
name and receive status, open-transaction backlog, and — for the
coordinator — the last committed step, over the normal OGSI
notification path.

The coordinator is not a grid service, so the monitoring kit deploys a
:class:`~repro.ogsi.service.SdeStatusService` next to it: a bare service
on the coordinator host whose only job is owning the service-data set
the coordinator's health lands in.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.monitor.schema import SCHEMA_ID, validate_health_payload
from repro.ogsi.sde import ServiceDataSet
from repro.sim.kernel import Kernel

Probe = Callable[[], dict[str, Any]]


class HealthPublisher:
    """Writes a ``health`` SDE every ``interval`` simulated seconds.

    ``probe`` returns the variable part of the payload (``status``,
    ``backlog``, optional ``step``/``plugin``/``detail``); the publisher
    adds the envelope, validates, and stores it — each write bumps the
    SDE version, so subscribers see a monotone stream.
    """

    def __init__(self, kernel: Kernel, service_data: ServiceDataSet, *,
                 source: str, probe: Probe, interval: float = 10.0):
        self.kernel = kernel
        self.service_data = service_data
        self.source = source
        self.probe = probe
        self.interval = interval
        self.running = False
        self._tm_published = kernel.telemetry.counter(
            "monitor.health.published", source=source)

    @property
    def published(self) -> int:
        """Health SDE writes so far (``monitor.health.published``)."""
        return self._tm_published.value

    def publish_now(self, **overrides: Any) -> dict[str, Any]:
        """Build, validate, and store one health payload; returns it."""
        payload = {"schema": SCHEMA_ID, "kind": "health",
                   "source": self.source, "time": self.kernel.now}
        payload.update(self.probe())
        payload.update(overrides)
        payload.setdefault("detail", {})
        validate_health_payload(payload)
        self.service_data.set("health", payload)
        self._tm_published.inc()
        return payload

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.kernel.process(self._run(), name=f"health.{self.source}")

    def stop(self, *, final_status: str | None = None) -> None:
        """Stop the loop; optionally publish one last terminal status."""
        was_running = self.running
        self.running = False
        if final_status is not None and was_running:
            self.publish_now(status=final_status)

    def _run(self):
        while self.running:
            self.publish_now()
            yield self.kernel.timeout(self.interval)


def ntcp_health_probe(server) -> Probe:
    """Health probe over an :class:`~repro.core.server.NTCPServer`.

    Backlog counts transactions still in a non-terminal state — the
    paper's "how far behind is this site" question — derived from the
    server's own counters, not a scan of every transaction it has ever
    seen: each transaction is counted ``proposed`` once and, on reaching
    a terminal state, exactly one of ``rejected`` / ``executed`` /
    ``failed`` / ``cancelled``.  (The at-least-once redo of
    ``repro.verify``'s ``dedupe_execute`` mutant breaks that — it counts
    ``executed`` again, so the difference runs one low per redo; no
    health publisher watches a mutated server.)
    """
    def probe() -> dict[str, Any]:
        metrics = server.metrics()
        backlog = metrics["proposed"] - sum(
            metrics[key]
            for key in ("rejected", "executed", "failed", "cancelled"))
        return {"status": "running", "backlog": backlog,
                "plugin": server.plugin.plugin_type,
                "detail": {"lastChanged": server.service_data.value(
                               "lastChanged"),
                           "executed": metrics["executed"],
                           "failed": metrics["failed"]}}
    return probe


def coordinator_health_probe(coordinator) -> Probe:
    """Health probe over a :class:`SimulationCoordinator`.

    ``step`` is the last *committed* step (``state.step`` is the next
    one to run); backlog is the number of in-flight transactions.
    """
    def probe() -> dict[str, Any]:
        state = coordinator.state
        detail: dict[str, Any] = {"phase": state.phase,
                                  "generation": state.generation}
        breakers = getattr(coordinator, "breakers", {})
        if breakers:
            detail["breakers"] = {site: breaker.snapshot()
                                  for site, breaker in sorted(
                                      breakers.items())}
        status = "running"
        if state.degraded_sites:
            # Surrogates are serving — the run is alive but its data is
            # partially numerical; the console must say so.
            status = "degraded"
            detail["degraded_sites"] = sorted(state.degraded_sites)
        return {"status": status, "backlog": len(state.pending),
                "step": max(state.step - 1, -1),
                "detail": detail}
    return probe
