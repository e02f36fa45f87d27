"""Scripted fault injection.

The MOST public run saw "several transient network failures throughout the
day" that NTCP's retry machinery recovered from, and one final failure that
terminated the experiment at step 1493.  :class:`FaultInjector` reproduces
both: timed link outages (transient or permanent) and targeted message
drops — plus the wider chaos vocabulary the campaign harness
(:mod:`repro.chaos`) composes: message duplication, reordering, latency
jitter bursts, payload corruption, and host crash/restart.

All primitives are deterministic given the schedule that arms them: the
duplication/reordering/corruption paths clone or mutate the intercepted
:class:`~repro.net.network.Message` and schedule its arrival directly, so
no extra draws are taken from the network's RNG stream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.net.network import Message, Network


@dataclass(frozen=True)
class OutageRecord:
    """Book-keeping for one injected outage (used by benchmark reports)."""

    a: str
    b: str
    start: float
    duration: float


@dataclass(frozen=True)
class ChaosRecord:
    """Book-keeping for one message-level chaos intervention."""

    kind: str       # "duplicate" | "reorder" | "corrupt" | "crash"
    target: str     # host or port the intervention hit
    time: float
    detail: str = ""


class FaultInjector:
    """Schedules outages and message-level drops on a :class:`Network`."""

    def __init__(self, network: Network):
        self.network = network
        self.kernel = network.kernel
        self.outages: list[OutageRecord] = []
        self.chaos: list[ChaosRecord] = []
        self._active: dict[tuple[str, str], int] = {}
        self._clone_ids = 0

    def _link_key(self, a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def schedule_outage(self, a: str, b: str, start: float,
                        duration: float = float("inf")) -> OutageRecord:
        """Take the a—b link down at ``start``; restore after ``duration``.

        An infinite duration models the paper's final, unrecovered failure.
        Overlapping outages on the same link are reference-counted: the
        link comes back up only when the *last* active outage ends, not
        when the first-expiring one does.
        """
        record = OutageRecord(a=a, b=b, start=start, duration=duration)
        self.outages.append(record)
        key = self._link_key(a, b)

        def run(kernel):
            yield kernel.timeout(max(0.0, start - kernel.now))
            self._active[key] = self._active.get(key, 0) + 1
            if self._active[key] == 1:
                self.network.set_link_state(a, b, up=False)
            if duration != float("inf"):
                yield kernel.timeout(duration)
                self._active[key] -= 1
                if self._active[key] == 0:
                    self.network.set_link_state(a, b, up=True)

        self.kernel.process(run(self.kernel), name=f"outage({a},{b})")
        return record

    def drop_matching(self, predicate: Callable[[Message], bool],
                      count: int | None = None) -> Callable[[Message], bool]:
        """Drop messages matching ``predicate`` (at most ``count`` of them).

        Returns the installed filter so callers can remove it early via
        :meth:`Network.remove_drop_filter`.
        """
        remaining = [count]

        def _filter(msg: Message) -> bool:
            if not predicate(msg):
                return False
            if remaining[0] is None:
                return True
            if remaining[0] > 0:
                remaining[0] -= 1
                return True
            return False

        self.network.add_drop_filter(_filter)
        return _filter

    def drop_next_on_port(self, port: str, count: int = 1) -> Callable[[Message], bool]:
        """Drop the next ``count`` messages addressed to ``port`` (any host)."""
        return self.drop_matching(lambda m: m.port == port, count=count)

    def transient_loss(self, a: str, b: str, loss: float,
                       start: float, duration: float) -> None:
        """Raise the a—b link's loss rate to ``loss`` during a window."""

        def run(kernel):
            link = self.network.link(a, b)
            yield kernel.timeout(max(0.0, start - kernel.now))
            previous = link.loss
            link.loss = loss
            kernel.emit("net", "loss.raised", a=a, b=b, loss=loss)
            yield kernel.timeout(duration)
            link.loss = previous
            kernel.emit("net", "loss.restored", a=a, b=b, loss=previous)

        self.kernel.process(run(self.kernel), name=f"lossburst({a},{b})")

    def jitter_burst(self, a: str, b: str, jitter: float,
                     start: float, duration: float) -> None:
        """Raise the a—b link's latency jitter during a window."""

        def run(kernel):
            link = self.network.link(a, b)
            yield kernel.timeout(max(0.0, start - kernel.now))
            previous = link.jitter
            link.jitter = jitter
            kernel.emit("net", "jitter.raised", a=a, b=b, jitter=jitter)
            yield kernel.timeout(duration)
            link.jitter = previous
            kernel.emit("net", "jitter.restored", a=a, b=b, jitter=previous)

        self.kernel.process(run(self.kernel), name=f"jitterburst({a},{b})")

    # -- message-level chaos ---------------------------------------------------
    def _clone(self, msg: Message, tag: str, **changes) -> Message:
        self._clone_ids += 1
        return dataclasses.replace(
            msg, msg_id=f"{msg.msg_id}+{tag}{self._clone_ids}", **changes)

    def duplicate_matching(self, predicate: Callable[[Message], bool],
                           count: int | None = 1,
                           delay: float = 0.05) -> Callable[[Message], bool]:
        """Deliver an extra copy of matching messages ``delay`` s later.

        The original is untouched (the installed filter never drops);
        the clone is scheduled straight into delivery, so at-least-once
        RPC sees a duplicated request and NTCP's at-most-once layer must
        absorb it.  Returns the filter for early removal.
        """
        remaining = [count]

        def _filter(msg: Message) -> bool:
            if predicate(msg) and (remaining[0] is None or remaining[0] > 0):
                if remaining[0] is not None:
                    remaining[0] -= 1
                clone = self._clone(msg, "dup")
                self.chaos.append(ChaosRecord(
                    kind="duplicate", target=msg.dst, time=self.kernel.now,
                    detail=f"port={msg.port}"))
                self.kernel.emit("net", "chaos.duplicate", dst=msg.dst,
                                 port=msg.port, msg_id=msg.msg_id)
                self.kernel.call_later(delay, self.network._arrive, clone)
            return False

        self.network.add_drop_filter(_filter)
        return _filter

    def reorder_matching(self, predicate: Callable[[Message], bool],
                         count: int = 2,
                         hold: float = 0.2) -> Callable[[Message], bool]:
        """Capture the next ``count`` matching messages and release them in
        reverse order.

        Each captured message is withheld (dropped at the send side) and
        re-injected ``hold`` seconds after its capture, spaced so the
        last-captured arrives first — a deterministic reordering that
        bypasses the links' FIFO guarantee.
        """
        remaining = [count]

        def _filter(msg: Message) -> bool:
            if not predicate(msg) or remaining[0] <= 0:
                return False
            remaining[0] -= 1
            slot = remaining[0]  # later captures get earlier release slots
            clone = self._clone(msg, "reord")
            self.chaos.append(ChaosRecord(
                kind="reorder", target=msg.dst, time=self.kernel.now,
                detail=f"port={msg.port} slot={slot}"))
            self.kernel.emit("net", "chaos.reorder", dst=msg.dst,
                             port=msg.port, msg_id=msg.msg_id)
            self.kernel.call_later(hold + 0.001 * slot,
                                   self.network._arrive, clone)
            return True

        self.network.add_drop_filter(_filter)
        return _filter

    def corrupt_matching(self, predicate: Callable[[Message], bool],
                         count: int | None = 1,
                         delay: float = 0.05) -> Callable[[Message], bool]:
        """Replace matching messages' payloads with junk bytes.

        The original is dropped and a corrupted copy is delivered in its
        place.  RPC endpoints discard unparseable payloads, so the caller
        observes a lost message and retransmits — the paper's "garbled on
        the wire" case, distinct from a clean drop because the receiver
        still spends a delivery on it.
        """
        remaining = [count]

        def _filter(msg: Message) -> bool:
            if not predicate(msg) or not (remaining[0] is None
                                          or remaining[0] > 0):
                return False
            if remaining[0] is not None:
                remaining[0] -= 1
            garbled = self._clone(msg, "corrupt",
                                  payload=f"\x00corrupt:{msg.msg_id}")
            self.chaos.append(ChaosRecord(
                kind="corrupt", target=msg.dst, time=self.kernel.now,
                detail=f"port={msg.port}"))
            self.kernel.emit("net", "chaos.corrupt", dst=msg.dst,
                             port=msg.port, msg_id=msg.msg_id)
            self.kernel.call_later(delay, self.network._arrive, garbled)
            return True

        self.network.add_drop_filter(_filter)
        return _filter

    def crash_host(self, host: str, start: float,
                   duration: float = float("inf")) -> None:
        """Take a host down at ``start``; restart it after ``duration``.

        A down host silently discards deliveries (its processes keep
        running — this models the network interface, not the OS), which
        is how a site crash looks from the coordinator: every request
        times out until the restart.
        """

        def run(kernel):
            yield kernel.timeout(max(0.0, start - kernel.now))
            self.network.host(host).up = False
            self.chaos.append(ChaosRecord(
                kind="crash", target=host, time=kernel.now,
                detail=f"duration={duration:g}"))
            kernel.emit("net", "chaos.crash", host=host, duration=duration)
            if duration != float("inf"):
                yield kernel.timeout(duration)
                self.network.host(host).up = True
                kernel.emit("net", "chaos.restart", host=host)

        self.kernel.process(run(self.kernel), name=f"crash({host})")
