"""Both ends of every one-way push: the publisher's soft-state
subscription table and the subscriber's guarded sink."""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

from repro.net.network import Message, Network
from repro.util.errors import ProtocolError, SecurityError
from repro.util.schema import array, nullable, number, obj, string, validator

_validate_request = validator(ProtocolError, obj({
    "sink_host": string(), "sink_port": string(),
    "lifetime": number(above=0, finite=True),
    "topics": nullable(array(string())),
}))


def _keys(topics: frozenset | None) -> tuple | frozenset:
    """The :attr:`SubscriptionTable._takers` keys an entry counts under."""
    return (None,) if topics is None else topics


class SubscriptionTable:
    """The publisher side of every one-way push: who is listening, to
    which topics, until when.

    SDE notifications (topic = SDE name), NSDS streams (topic = channel)
    and camera frames (no topic) each publish through one of these.  A
    table belongs to one :class:`~repro.ogsi.service.GridService` (see
    :meth:`~repro.ogsi.service.GridService.subscription_table`), so a
    service's audiences are separate and all of them end with it.

    Subscriptions are soft state under one rule that schedules nothing:
    a lapsed entry (``expires <= now``) is skipped, and freed when the
    owner next publishes or is destroyed; ``on_lapsed(n)`` is told how
    many were freed that way.  An explicit :meth:`unsubscribe` is a
    cancellation, not a lapse, and only the RPC caller who subscribed (a
    GSI :class:`~repro.gsi.authz.Principal` on a gated container) may make
    it: ids are sequential, so anyone could otherwise cancel anyone.

    That ownership is a guarantee of gated containers only.  An ungated
    container authenticates nobody: its caller is the request's
    credential, normally ``None`` for everyone, so any host may cancel
    any subscription there — as it may ``destroy`` any service.  The
    sending host is deliberately not the ungated caller: NMDS records a
    string caller as an object's subject, so repository documents would
    change.
    """

    def __init__(self, network: Network, host: str,
                 new_id: Callable[[], str],
                 on_lapsed: Callable[[int], None] | None = None):
        self.network = network
        self.host = host
        self._new_id = new_id
        self._on_lapsed = on_lapsed
        #: sub_id -> (topics or None for all, sink_host, sink_port, owner,
        #: expires)
        self._subs: dict[str, tuple] = {}
        # entries held per topic (None: every topic), and a bound at or
        # below the earliest expiry held: what :meth:`wants` reads
        self._takers: Counter = Counter()
        self._earliest = float("inf")

    def __len__(self) -> int:
        """Entries held (lapsed ones included until they are freed)."""
        return len(self._subs)

    def subscribe(self, caller: Any, sink_host: str, sink_port: str,
                  lifetime: float, topics: list[str] | None = None) -> str:
        """Store a subscription owned by ``caller`` and return its id; a
        malformed request is a :class:`ProtocolError` and takes no id."""
        _validate_request({"sink_host": sink_host, "sink_port": sink_port,
                           "lifetime": lifetime, "topics": topics})
        sub_id = self._new_id()
        entry = self._subs[sub_id] = (
            None if topics is None else frozenset(topics),
            sink_host, sink_port, caller, self.network.kernel.now + lifetime)
        self._takers.update(_keys(entry[0]))
        self._earliest = min(self._earliest, entry[4])
        return sub_id

    def unsubscribe(self, sub_id: str, caller: Any) -> bool:
        """Cancel ``sub_id``; ``False`` when this table holds no such id.
        Any caller but the subscriber is refused with a
        :class:`SecurityError`, and the entry stays."""
        entry = self._subs.get(sub_id)
        if entry is None:
            return False
        if entry[3] != caller:
            raise SecurityError(
                f"subscription {sub_id!r} belongs to another caller")
        del self._subs[sub_id]
        self._takers.subtract(_keys(entry[0]))
        return True

    def wants(self, topic: str) -> bool:
        """Whether a live entry takes ``topic``: a publisher asks before
        building what it would send.  Frees the lapsed entries, as
        :meth:`publish` does.  Reads two counts, not the entries."""
        if self._earliest <= self.network.kernel.now:
            self._free_lapsed()
        return self._takers[None] > 0 or self._takers[topic] > 0

    def wants_prefix(self, prefix: str) -> bool:
        """Whether a live entry takes every topic, or one that starts with
        ``prefix``: a publisher of a family of names asks before it builds
        one.  Frees the lapsed entries, as :meth:`wants` does; reads the
        topics taken, not the entries."""
        if self._earliest <= self.network.kernel.now:
            self._free_lapsed()
        return self._takers[None] > 0 or any(
            count > 0 and topic.startswith(prefix)
            for topic, count in self._takers.items() if topic is not None)

    def publish(self, topic: str | None,
                make_payload: Callable[[str], Any]) -> int:
        """Send ``make_payload(sub_id)`` to every live subscriber of
        ``topic``; returns the subscribers reached.

        Consecutive subscribers on one sink host that are handed the same
        payload object get one datagram, addressed to the host's fan-out
        port for their sink ports (:meth:`~repro.net.network.Host.fanout`):
        each handler still runs at the same instant, in the same order and
        with the same payload as under a datagram each, but the run pays
        for one message, one drop-filter verdict, one loss draw and one
        delay.  A payload built per subscriber is never merged."""
        now = self.network.kernel.now
        lapsed, reached = False, 0
        # (sink host, payload, sink ports) per datagram, in send order
        runs: list[tuple[str, Any, list[str]]] = []
        run_host = run_payload = ports = None
        for sub_id, (topics, sink_host, sink_port, _, expires) in \
                self._subs.items():
            if expires <= now:
                lapsed = True
            elif topics is None or topic in topics:
                payload = make_payload(sub_id)
                if payload is not run_payload or sink_host != run_host:
                    run_host, run_payload, ports = sink_host, payload, []
                    runs.append((sink_host, payload, ports))
                ports.append(sink_port)
                reached += 1
        hosts = self.network.hosts
        for sink_host, payload, (sink_port, *more) in runs:
            if more and sink_host in hosts:
                sink_port = hosts[sink_host].fanout((sink_port, *more))
            self.network.send(self.host, sink_host, sink_port, payload)
        if lapsed:
            self._free_lapsed()
        return reached

    def clear(self) -> None:
        """The owner is destroyed: every entry goes."""
        self._free_lapsed()
        self._subs.clear()
        self._takers.clear()

    def _free_lapsed(self) -> None:
        now = self.network.kernel.now
        lapsed = [sub_id for sub_id, (*_, expires) in self._subs.items()
                  if expires <= now]
        for sub_id in lapsed:
            self._takers.subtract(_keys(self._subs.pop(sub_id)[0]))
        self._earliest = min((entry[4] for entry in self._subs.values()),
                             default=float("inf"))
        if lapsed and self._on_lapsed is not None:
            self._on_lapsed(len(lapsed))


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
