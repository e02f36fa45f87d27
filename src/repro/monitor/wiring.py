"""Wire the operations console into an assembled MOST deployment.

:func:`attach_monitoring` stands up the whole observation path the way
the paper's operators had it: health publishers on every NTCP server, a
status anchor + NSDS metrics stream on the coordinator host, and the
:class:`~repro.monitor.monitor.ExperimentMonitor` console on the portal
host, subscribed to both — metrics over NSDS datagrams, health over
OGSI SDE notifications.  The console's one receiver feeds its one
:class:`~repro.observatory.tsdb.TimeSeriesStore`, which
:func:`~repro.observatory.wiring.attach_observatory` reads as it is.
Everything crosses the simulated network; nothing peeks at coordinator
internals directly.

The function is deployment-shape agnostic: it only needs ``kernel``,
``network``, ``sites`` (name -> site with an attached ``server``) and
``extras``, so it works on :func:`~repro.most.assembly.build_most` and
:func:`~repro.most.assembly.build_simulation_only` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.monitor.health import (
    HealthPublisher,
    coordinator_health_probe,
    ntcp_health_probe,
)
from repro.monitor.monitor import Alert, ExperimentMonitor
from repro.monitor.streamer import TelemetryStreamer
from repro.net.rpc import RpcClient
from repro.nsds.service import NSDSService
from repro.nsds.subscriber import NSDSReceiver
from repro.ogsi import ServiceContainer, invoke
from repro.ogsi.notification import NotificationSink
from repro.ogsi.service import SdeStatusService

#: the kit's subscriptions outlive any run (soft state, never renewed)
SUBSCRIPTION_LIFETIME = 1e9

#: metric-name prefixes the streamer ships by default — the operational
#: surface (steps, retries, site latencies, rpc health, stream health)
DEFAULT_STREAM_PREFIXES = ("coordinator.", "core.server.", "net.rpc.",
                           "net.breaker.", "nsds.", "monitor.health.")


@dataclass
class MonitoringKit:
    """Handles to every piece :func:`attach_monitoring` created."""

    monitor: ExperimentMonitor
    streamer: TelemetryStreamer
    nsds: NSDSService
    status: SdeStatusService
    receiver: NSDSReceiver
    sink: NotificationSink
    publishers: dict[str, HealthPublisher]
    coord_container: ServiceContainer
    console_container: ServiceContainer
    #: the portal's client: the kit's subscriptions, the observatory's
    #: NMDS registrations
    rpc: RpcClient
    coordinator_publisher: HealthPublisher | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def start(self) -> None:
        """Begin publishing, streaming, and watching."""
        for publisher in self.publishers.values():
            publisher.start()
        self.streamer.start()
        self.monitor.start()

    def watch_coordinator(self, coordinator) -> HealthPublisher:
        """Publish the coordinator's health through the status service."""
        publisher = HealthPublisher(
            coordinator.kernel, self.status.service_data,
            source="coordinator", probe=coordinator_health_probe(coordinator))
        self.coordinator_publisher = publisher
        publisher.start()
        return publisher

    def stop(self) -> None:
        """Stop every periodic loop (so a bounded drain can finish)."""
        self.monitor.stop()
        self.streamer.stop()
        if self.coordinator_publisher is not None:
            self.coordinator_publisher.stop(final_status="stopped")
        for publisher in self.publishers.values():
            publisher.stop()


def attach_monitoring(dep, *, on_alert: Callable[[Alert], None] | None = None,
                      stream_interval: float = 30.0) -> MonitoringKit:
    """Deploy the console against ``dep`` and wire its subscriptions.

    Nothing runs until :meth:`MonitoringKit.start`; the subscription
    RPCs themselves are issued by a kernel process, so they land a few
    network round-trips into the run.
    """
    kernel, network = dep.kernel, dep.network

    # Health notifications travel site -> portal; give the portal the
    # same best-effort links the stream viewers use.
    for name in dep.sites:
        if ("portal", name) not in network._routes:
            network.connect("portal", name, latency=0.03, fifo=False)

    coord_container = ServiceContainer(network, "coord")
    nsds = NSDSService("nsds-monitor")
    coord_container.deploy(nsds)
    status = SdeStatusService("status-coord", "health", "getHealth")
    coord_container.deploy(status)
    streamer = TelemetryStreamer(kernel, nsds, source="coord",
                                 interval=stream_interval,
                                 prefixes=DEFAULT_STREAM_PREFIXES)

    # The portal's "ogsi" port belongs to the CHEF container in the full
    # deployment; the console container takes its own port.
    console_container = ServiceContainer(network, "portal", port="monitor")
    monitor = ExperimentMonitor(on_alert=on_alert)
    console_container.deploy(monitor)
    receiver = NSDSReceiver(network, "portal",
                            callback=monitor.on_stream_sample)
    monitor.bind_receiver(receiver)
    sink = NotificationSink(network, "portal",
                            callback=monitor.on_notification)

    publishers = {name: HealthPublisher(kernel, site.server.service_data,
                                        source=site.server.service_id,
                                        probe=ntcp_health_probe(site.server))
                  for name, site in dep.sites.items()}

    rpc = RpcClient(network, "portal", default_timeout=30.0)

    def subscribe():
        yield from invoke(
            rpc, nsds.handle, "subscribe",
            {"sink_host": "portal", "sink_port": receiver.port,
             "channels": [TelemetryStreamer.CHANNEL],
             "lifetime": SUBSCRIPTION_LIFETIME})
        yield from rpc.call(
            "coord", "ogsi", "subscribe",
            {"service_id": status.service_id, "sde_name": "health",
             "sink_host": "portal", "sink_port": sink.port,
             "lifetime": SUBSCRIPTION_LIFETIME})
        for name, site in dep.sites.items():
            yield from rpc.call(
                name, "ogsi", "subscribe",
                {"service_id": site.server.service_id, "sde_name": "health",
                 "sink_host": "portal", "sink_port": sink.port,
                 "lifetime": SUBSCRIPTION_LIFETIME})

    kernel.process(subscribe(), name="monitor-subscriptions")

    kit = MonitoringKit(monitor=monitor, streamer=streamer, nsds=nsds,
                        status=status, receiver=receiver, sink=sink,
                        publishers=publishers,
                        coord_container=coord_container,
                        console_container=console_container, rpc=rpc)
    dep.extras["monitoring"] = kit
    return kit
