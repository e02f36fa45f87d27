"""Client-side receiver for SDE change notifications."""

from __future__ import annotations

from typing import Any, Callable

from repro.net.network import Message, Network


class NotificationSink:
    """Binds a port and collects (or forwards) SDE change notifications.

    Notifications arrive as plain dicts (see
    :meth:`repro.ogsi.container.ServiceContainer._fanout`).  The sink stores
    them in arrival order and optionally invokes a callback — remote
    monitoring tools (the CHEF data viewer, the MOST coordinator's health
    display) are built on this.

    A raising callback must not take delivery down with it: the payload is
    recorded first, the failure is logged and counted
    (``ogsi.notify.subscriber_errors``), and the network keeps delivering
    to every other sink — one broken viewer cannot blind the rest.
    """

    def __init__(self, network: Network, host: str,
                 callback: Callable[[dict[str, Any]], None] | None = None):
        self.network = network
        self.host = host
        self.port = network.new_port("notify")
        self.callback = callback
        self.received: list[dict[str, Any]] = []
        self._tm_errors = network.kernel.telemetry.counter(
            "ogsi.notify.subscriber_errors", host=host, port=self.port)
        network.host(host).bind(self.port, self._on_message)

    @property
    def subscriber_errors(self) -> int:
        """Callback failures swallowed by this sink."""
        return self._tm_errors.value

    def _on_message(self, msg: Message) -> None:
        if not isinstance(msg.payload, dict):
            return
        self.received.append(msg.payload)
        if self.callback is None:
            return
        try:
            self.callback(msg.payload)
        except Exception as exc:
            self._tm_errors.inc()
            self.network.kernel.emit(
                f"notify.{self.host}", "subscriber.error",
                port=self.port, error=f"{type(exc).__name__}: {exc}")

    def for_service(self, service_id: str) -> list[dict[str, Any]]:
        """Notifications from one service, in arrival order."""
        return [n for n in self.received if n.get("service_id") == service_id]

    def latest(self, service_id: str, sde_name: str) -> dict[str, Any] | None:
        """Most recent notification for a specific SDE, if any."""
        for n in reversed(self.received):
            if n.get("service_id") == service_id and n.get("sde_name") == sde_name:
                return n
        return None
