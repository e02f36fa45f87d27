"""Hosts, links, and message delivery."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.sim import Kernel
from repro.util.errors import ConfigurationError
from repro.util.ids import IdFactory


class Message(NamedTuple):
    """One datagram in flight: immutable, hashable when its payload is,
    equal by value.  A ``NamedTuple`` because the network builds one per
    send (half the construction cost of a frozen dataclass); so it also
    iterates, equals the plain tuple of its fields and is copied with
    ``msg._replace(...)``, not ``dataclasses.replace``.

    Attributes:
        src/dst: host names.
        port: destination port (a string label, e.g. ``"ntcp"``).
        payload: arbitrary application object.
        msg_id: unique id (for tracing and drop filters).
        send_time: simulation time the message entered the network.
    """

    src: str
    dst: str
    port: str
    payload: Any
    msg_id: str
    send_time: float


class Host:
    """A named endpoint that binds port handlers.

    A datagram for several sinks on one host is one datagram: it is
    addressed to a fan-out port (:meth:`fanout`) whose handler hands it
    to each member port's handler in order, in one kernel entry.
    """

    def __init__(self, name: str, network: "Network"):
        self.name = name
        self.network = network
        self._handlers: dict[str, Callable[[Message], None]] = {}
        # member ports -> the fan-out port bound for them
        self._fanouts: dict[tuple[str, ...], str] = {}
        self.up = True

    def bind(self, port: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler(message)`` for datagrams addressed to ``port``."""
        if port in self._handlers:
            raise ConfigurationError(f"port {port!r} already bound on {self.name}")
        self._handlers[port] = handler

    def fanout(self, ports: tuple[str, ...]) -> str:
        """The port, ``fanout-<n>``, whose datagrams reach each of
        ``ports`` in that order; bound on first use and numbered per
        host in creation order.  A member with no listener is counted
        and logged as an unheard datagram would be."""
        port = self._fanouts.get(ports)
        if port is None:
            def deliver_each(msg: Message) -> None:
                for member in ports:
                    handler = self._handlers.get(member)
                    if handler is None:
                        self.network._unheard(msg._replace(port=member))
                    else:
                        handler(msg)

            port = self._fanouts[ports] = f"fanout-{len(self._fanouts) + 1}"
            self.bind(port, deliver_each)
        return port

    def deliver(self, msg: Message) -> bool:
        """Deliver a message to the bound handler; False if no listener."""
        handler = self._handlers.get(msg.port)
        if handler is None or not self.up:
            return False
        handler(msg)
        return True


@dataclass
class Link:
    """A bidirectional connection between two hosts.

    Latency per message is ``latency + Exponential(jitter)``; each message is
    independently lost with probability ``loss``.  With ``fifo=True``
    (TCP-like, the default) delivery order per direction is preserved even
    when jitter would reorder; with ``fifo=False`` (UDP-like, used by the
    best-effort streaming service) messages may overtake each other.
    """

    a: str
    b: str
    latency: float = 0.01
    jitter: float = 0.0
    loss: float = 0.0
    fifo: bool = True
    up: bool = True
    # last scheduled delivery time per direction, for FIFO enforcement
    _last_delivery: dict[str, float] = field(default_factory=dict)

    def sample_delay(self, rng: np.random.Generator) -> float | None:
        """Propagation delay for one message, or None if the message is lost."""
        if not self.up:
            return None
        if self.loss > 0 and rng.random() < self.loss:
            return None
        delay = self.latency
        if self.jitter > 0:
            delay += rng.exponential(self.jitter)
        return delay


class Network:
    """The simulated WAN: topology + message delivery on the kernel clock.

    Drop filters allow scripted faults: any registered predicate that returns
    True for a message causes it to be silently lost (and logged), which is
    how benchmarks reproduce targeted failures such as "lose the response to
    the step-1493 execute".
    """

    def __init__(self, kernel: Kernel, seed: int = 0):
        self.kernel = kernel
        self.rng = np.random.default_rng(seed)
        self.hosts: dict[str, Host] = {}
        # (src, dst) -> (link, "src->dst"), both directions of every link:
        # what a send looks up, with its FIFO direction key made once.
        self._routes: dict[tuple[str, str], tuple[Link, str]] = {}
        self._drop_filters: list[Callable[[Message], bool]] = []
        self._msg_ids = IdFactory("msg")
        self._port_ids: dict[str, IdFactory] = {}
        self._counters = {
            key: kernel.telemetry.counter(f"net.network.{key}")
            for key in ("sent", "delivered", "dropped", "no_route",
                        "no_listener")}
        # the two every message updates, held without the dict hop
        self._sent = self._counters["sent"]
        self._delivered = self._counters["delivered"]

    @property
    def stats(self) -> dict[str, int]:
        """Message counts by fate, read off the ``net.network.*`` hub
        counters (the hub owns them; this is a view, not a copy)."""
        return {key: counter.value
                for key, counter in self._counters.items()}

    def _count(self, key: str) -> None:
        self._counters[key].inc()

    def new_port(self, prefix: str) -> str:
        """A fresh client-side port name, ``<prefix>-<n>``, numbered per
        network — so reply/sink ports (wire- and label-visible) count the
        clients of this deployment, not of the process."""
        return self._port_ids.setdefault(prefix, IdFactory(prefix))()

    # -- topology -----------------------------------------------------------
    def add_host(self, name: str) -> Host:
        """Create a host; names must be unique."""
        if name in self.hosts:
            raise ConfigurationError(f"duplicate host {name!r}")
        host = Host(name, self)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def connect(self, a: str, b: str, *, latency: float = 0.01,
                jitter: float = 0.0, loss: float = 0.0,
                fifo: bool = True) -> Link:
        """Create a bidirectional link between existing hosts ``a`` and ``b``.

        ``latency`` and ``jitter`` must be ``>= 0`` and ``loss`` in
        ``[0, 1]`` (NaN refused); anything else is a
        :class:`ConfigurationError` naming the parameter.
        """
        if not latency >= 0:
            raise ConfigurationError(
                f"link {a}-{b}: latency must be >= 0, got {latency!r}")
        if not jitter >= 0:
            raise ConfigurationError(
                f"link {a}-{b}: jitter must be >= 0, got {jitter!r}")
        if not 0 <= loss <= 1:
            raise ConfigurationError(
                f"link {a}-{b}: loss must be in [0, 1], got {loss!r}")
        for name in (a, b):
            if name not in self.hosts:
                raise ConfigurationError(f"unknown host {name!r}")
        if a == b:
            raise ConfigurationError("cannot link a host to itself")
        if (a, b) in self._routes:
            raise ConfigurationError(f"hosts {a!r} and {b!r} already linked")
        link = Link(a=a, b=b, latency=latency, jitter=jitter, loss=loss, fifo=fifo)
        self._routes[a, b] = (link, f"{a}->{b}")
        self._routes[b, a] = (link, f"{b}->{a}")
        return link

    def link(self, a: str, b: str) -> Link:
        """The link between ``a`` and ``b`` (raises KeyError if absent)."""
        return self._routes[a, b][0]

    def links(self) -> list[Link]:
        """Every link once, in the order they were connected."""
        return [link for (src, _), (link, _) in self._routes.items()
                if src == link.a]

    # -- faults ---------------------------------------------------------------
    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Bring a link down (partition the pair) or back up."""
        link = self.link(a, b)
        link.up = up
        self.kernel.emit("net", "link.up" if up else "link.down", a=a, b=b)

    def add_drop_filter(self, predicate: Callable[[Message], bool]) -> None:
        """Drop every in-flight message for which ``predicate(msg)`` is True."""
        self._drop_filters.append(predicate)

    def remove_drop_filter(self, predicate: Callable[[Message], bool]) -> None:
        self._drop_filters.remove(predicate)

    # -- data plane -----------------------------------------------------------
    def send(self, src: str, dst: str, port: str, payload: Any) -> Message:
        """Inject a message; delivery (or loss) is scheduled on the kernel.

        Returns the :class:`Message` for tracing.  Loss is silent to the
        sender, exactly like a datagram network; reliability is built above
        this layer (RPC retries, NTCP at-most-once).
        """
        msg = Message(src, dst, port, payload, self._msg_ids(), self.kernel.now)
        self._sent.inc()
        if src == dst:
            # Loopback: same-host services (e.g. the Mini-MOST single-PC
            # deployment) talk through the stack with negligible delay.
            self.kernel.call_later(0.0, self._arrive, msg)
            return msg
        route = self._routes.get((src, dst))
        if route is None:
            self._count("no_route")
            self.kernel.emit("net", "msg.no_route", src=src, dst=dst, port=port)
            return msg
        link, direction = route
        if self._drop_filters and any(f(msg) for f in self._drop_filters):
            self._count("dropped")
            self.kernel.emit("net", "msg.dropped", msg_id=msg.msg_id,
                             reason="drop_filter", src=src, dst=dst, port=port)
            return msg
        delay = link.sample_delay(self.rng)
        if delay is None:
            self._count("dropped")
            reason = "link_down" if not link.up else "loss"
            self.kernel.emit("net", "msg.dropped", msg_id=msg.msg_id,
                             reason=reason, src=src, dst=dst, port=port)
            return msg
        if link.fifo:
            # TCP-like: never deliver before an earlier message on the same
            # direction; stretch the delay to preserve ordering.
            floor = link._last_delivery.get(direction, 0.0)
            arrival = max(self.kernel.now + delay, floor)
            link._last_delivery[direction] = arrival
            delay = arrival - self.kernel.now
        self.kernel.call_later(delay, self._arrive, msg)
        return msg

    def _arrive(self, msg: Message) -> None:
        host = self.hosts.get(msg.dst)
        if host is None or not host.deliver(msg):
            self._unheard(msg)
            return
        self._delivered.inc()

    def _unheard(self, msg: Message) -> None:
        self._count("no_listener")
        self.kernel.emit("net", "msg.no_listener", msg_id=msg.msg_id,
                         dst=msg.dst, port=msg.port)
