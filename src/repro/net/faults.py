"""Scripted fault injection.

The MOST public run saw "several transient network failures throughout the
day" that NTCP's retry machinery recovered from, and one final failure that
terminated the experiment at step 1493.  :class:`FaultInjector` reproduces
both: timed link outages (transient or permanent) and targeted message
drops — plus the wider chaos vocabulary the campaign harness
(:mod:`repro.chaos`) composes: message duplication, reordering, latency
jitter bursts, payload corruption, and host crash/restart.  A fault that
lands on a step is armed through :meth:`repro.grid.Grid.arm`, which
installs these primitives.

All primitives are deterministic given the schedule that arms them: the
duplication/reordering/corruption paths clone or mutate the intercepted
:class:`~repro.net.network.Message` and schedule its arrival directly, so
no extra draws are taken from the network's RNG stream.  A timed
primitive checks its arguments when it is called: an unknown link or
host, a negative or NaN duration or a negative jitter is a
:class:`~repro.util.errors.ConfigurationError` naming the parameter, not
an error out of ``kernel.run`` when the window opens.
"""

from __future__ import annotations

from typing import Callable

from repro.net.network import Link, Message, Network
from repro.util.errors import ConfigurationError


def _check_duration(duration: float) -> None:
    """A fault window is ``>= 0`` seconds; ``inf`` is permanent, NaN is
    refused."""
    if not duration >= 0:
        raise ConfigurationError(f"duration must be >= 0, got {duration!r}")


def _budget(count: int | None) -> Callable[[], bool]:
    """Takes one of ``count`` matches (``None``: unlimited) per call;
    False once they are spent."""
    left = count

    def take() -> bool:
        nonlocal left
        if left is not None:
            left -= 1
        return left is None or left >= 0

    return take


class FaultInjector:
    """Schedules outages and message-level drops on a :class:`Network`."""

    def __init__(self, network: Network):
        self.network = network
        self.kernel = network.kernel
        self._active: dict[tuple[str, str], int] = {}
        self._clone_ids = 0

    def _link(self, a: str, b: str, duration: float) -> Link:
        """The a—b link a timed primitive acts on, its window checked."""
        _check_duration(duration)
        try:
            return self.network.link(a, b)
        except KeyError:
            raise ConfigurationError(f"no link {a}-{b} to fault") from None

    def schedule_outage(self, a: str, b: str, start: float,
                        duration: float = float("inf")) -> None:
        """Take the a—b link down at ``start``; restore after ``duration``.

        An infinite duration models the paper's final, unrecovered failure.
        Overlapping outages on the same link are reference-counted: the
        link comes back up only when the *last* active outage ends, not
        when the first-expiring one does.
        """
        link = self._link(a, b, duration)
        key = (link.a, link.b)  # the same for either argument order

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

    def drop_matching(self, predicate: Callable[[Message], bool],
                      count: int | None = None) -> None:
        """Drop messages matching ``predicate`` (at most ``count`` of them)."""
        take = _budget(count)

        def _filter(msg: Message) -> bool:
            return predicate(msg) and take()

        self.network.add_drop_filter(_filter)

    def jitter_burst(self, a: str, b: str, jitter: float,
                     start: float, duration: float) -> None:
        """Raise the a—b link's latency jitter during a window."""
        link = self._link(a, b, duration)
        if not jitter >= 0:
            raise ConfigurationError(
                f"link {a}-{b}: jitter must be >= 0, got {jitter!r}")

        def run(kernel):
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
        return msg._replace(
            msg_id=f"{msg.msg_id}+{tag}{self._clone_ids}", **changes)

    def duplicate(self, msg: Message, delay: float = 0.05) -> None:
        """Deliver an extra copy of ``msg`` ``delay`` s from now; the
        original goes on untouched."""
        clone = self._clone(msg, "dup")
        self.kernel.emit("net", "chaos.duplicate", dst=msg.dst,
                         port=msg.port, msg_id=msg.msg_id)
        self.kernel.call_later(delay, self.network._arrive, clone)

    def duplicate_matching(self, predicate: Callable[[Message], bool],
                           count: int | None = 1,
                           delay: float = 0.05) -> None:
        """:meth:`duplicate` matching messages (at most ``count``).

        The installed filter never drops; the clone is scheduled straight
        into delivery, so at-least-once RPC sees a duplicated request and
        NTCP's at-most-once layer must absorb it.
        """
        take = _budget(count)

        def _filter(msg: Message) -> bool:
            if predicate(msg) and take():
                self.duplicate(msg, delay)
            return False

        self.network.add_drop_filter(_filter)

    def reorder_matching(self, predicate: Callable[[Message], bool],
                         count: int = 2,
                         hold: float = 0.2) -> None:
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
            self.kernel.emit("net", "chaos.reorder", dst=msg.dst,
                             port=msg.port, msg_id=msg.msg_id)
            self.kernel.call_later(hold + 0.001 * slot,
                                   self.network._arrive, clone)
            return True

        self.network.add_drop_filter(_filter)

    def corrupt_matching(self, predicate: Callable[[Message], bool],
                         count: int | None = 1,
                         delay: float = 0.05) -> None:
        """Replace matching messages' payloads with junk bytes.

        The original is dropped and a corrupted copy is delivered in its
        place.  RPC endpoints discard unparseable payloads, so the caller
        observes a lost message and retransmits — the paper's "garbled on
        the wire" case, distinct from a clean drop because the receiver
        still spends a delivery on it.
        """
        take = _budget(count)

        def _filter(msg: Message) -> bool:
            if not (predicate(msg) and take()):
                return False
            garbled = self._clone(msg, "corrupt",
                                  payload=f"\x00corrupt:{msg.msg_id}")
            self.kernel.emit("net", "chaos.corrupt", dst=msg.dst,
                             port=msg.port, msg_id=msg.msg_id)
            self.kernel.call_later(delay, self.network._arrive, garbled)
            return True

        self.network.add_drop_filter(_filter)

    def crash_host(self, host: str, start: float,
                   duration: float = float("inf")) -> None:
        """Take a host down at ``start``; restart it after ``duration``.

        A down host silently discards deliveries (its processes keep
        running — this models the network interface, not the OS), which
        is how a site crash looks from the coordinator: every request
        times out until the restart.
        """
        _check_duration(duration)
        if host not in self.network.hosts:
            raise ConfigurationError(f"no host {host!r} to crash")

        def run(kernel):
            yield kernel.timeout(max(0.0, start - kernel.now))
            self.network.host(host).up = False
            kernel.emit("net", "chaos.crash", host=host, duration=duration)
            if duration != float("inf"):
                yield kernel.timeout(duration)
                self.network.host(host).up = True
                kernel.emit("net", "chaos.restart", host=host)

        self.kernel.process(run(self.kernel), name=f"crash({host})")
