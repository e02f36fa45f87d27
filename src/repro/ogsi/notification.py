"""The subscriber side of every one-way push: one guarded sink."""

from __future__ import annotations

from typing import Any, Callable

from repro.net.network import Message, Network


class NotificationSink:
    """Binds a fresh port and hands each accepted payload to its consumer.

    SDE change notifications arrive as plain dicts (see
    :meth:`repro.ogsi.container.ServiceContainer._fanout`); NSDS
    datagrams and video frames arrive the same way, and
    :class:`~repro.nsds.subscriber.NSDSReceiver` and
    :class:`~repro.telepresence.camera.VideoViewer` are this class with
    a different :attr:`port_prefix` and :meth:`accept`.  The sink keeps
    nothing but counts: a consumer that wants the payloads is the
    ``callback`` (the console, the observatory's store, a CHEF data
    viewer, a test's ``collected.append``).

    Observers are best-effort and must never touch the experiment, so a
    raising consumer does not take delivery down with it: the failure is
    counted (``ogsi.notify.subscriber_errors``, created on a sink's first
    failure), logged as ``subscriber.error``, and the kernel keeps
    delivering to every other sink — one broken viewer cannot blind the
    rest, and one bad datagram cannot end the run.
    """

    #: prefix of the port name taken from :meth:`Network.new_port`
    port_prefix = "notify"

    def __init__(self, network: Network, host: str,
                 callback: Callable[[Any], None] | None = None):
        self.network = network
        self.host = host
        self.port = network.new_port(self.port_prefix)
        self.callback = callback
        #: payloads that passed :meth:`accept`
        self.accepted = 0
        self._tm_errors = None  # built on the first consumer failure
        network.host(host).bind(self.port, self._on_message)

    @property
    def subscriber_errors(self) -> int:
        """Consumer failures swallowed by this sink."""
        return self._tm_errors.value if self._tm_errors is not None else 0

    def accept(self, payload: Any) -> Any:
        """What the consumer is handed for ``payload``; ``None`` drops it.

        Must not raise: it runs outside the guard, on whatever arrived.
        """
        return payload if isinstance(payload, dict) else None

    def _on_message(self, msg: Message) -> None:
        item = self.accept(msg.payload)
        if item is None:
            return
        self.accepted += 1
        if self.callback is None:
            return
        try:
            self.callback(item)
        except Exception as exc:
            if self._tm_errors is None:
                self._tm_errors = self.network.kernel.telemetry.counter(
                    "ogsi.notify.subscriber_errors",
                    host=self.host, port=self.port)
            self._tm_errors.inc()
            self.network.kernel.emit(
                f"notify.{self.host}", "subscriber.error",
                port=self.port, error=f"{type(exc).__name__}: {exc}")
