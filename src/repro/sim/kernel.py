"""The event loop: a deterministic priority-queue scheduler."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.telemetry import TelemetryHub


class Kernel:
    """Deterministic discrete-event scheduler.

    A heap entry is a call, ``(time, seq, fn, arg)``: :meth:`call_later` is
    the one way onto the heap, and firing an :class:`Event` is one such call
    (its callbacks loop).  Entries scheduled for the same time run in
    insertion order (a strictly increasing sequence number breaks ties), so
    runs are exactly repeatable.
    The kernel also owns the run-wide
    :class:`~repro.telemetry.TelemetryHub` — wired to the simulation clock —
    that every layer reaches as ``kernel.telemetry``; the structured
    records subsystems :meth:`emit` stream to its sinks.
    """

    def __init__(self, telemetry: TelemetryHub | None = None):
        self.now: float = 0.0
        self.telemetry = (telemetry if telemetry is not None
                          else TelemetryHub(clock=lambda: self.now))
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._events_fired = self.telemetry.counter("sim.kernel.events")

    # -- factories ---------------------------------------------------------
    def event(self, name: str | None = None) -> Event:
        """A pending event to be succeeded/failed manually."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value=value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str | None = None) -> Process:
        """Start a generator as a process; returns its completion event."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` succeeds."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, list(events))

    def emit(self, subsystem: str, kind: str, **detail: Any) -> None:
        """Hand a structured record stamped with ``self.now`` to the
        telemetry hub's record sinks (see :meth:`TelemetryHub.record`)."""
        self.telemetry.record(self.now, subsystem, kind, detail)

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` time units from now.

        The entry for code that only wants "run this later" and has nobody
        to wait on it: one heap tuple, no :class:`Event`.  It cannot be
        cancelled or yielded on; an exception from ``fn`` surfaces from
        :meth:`run`.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, arg))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Run exactly one heap entry (advancing ``now`` to its time)."""
        time, _, fn, arg = heapq.heappop(self._queue)
        self.now = time
        self._events_fired.inc()
        fn(arg)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the value of ``until`` when it is an event, else ``None``.
        """
        if isinstance(until, Event):
            stop = until
            while self._queue and not stop.processed:
                self.step()
            if not stop.triggered:
                raise RuntimeError(
                    f"run() ran out of events before {stop!r} triggered")
            if not stop.ok:
                stop.defuse()
                raise stop._value
            return stop._value
        horizon = float("inf") if until is None else float(until)
        if horizon < self.now:
            raise ValueError(f"until={horizon} is in the past (now={self.now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        if horizon != float("inf"):
            self.now = horizon
        return None
