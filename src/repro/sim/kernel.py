"""The event loop: a deterministic priority-queue scheduler."""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from typing import Any, Callable, Generator, Iterable

from repro.sim.events import PENDING, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, Task
from repro.telemetry import TelemetryHub


class Kernel:
    """Deterministic discrete-event scheduler.

    An entry is a call, ``fn(arg)``, at a time; :meth:`call_later` and
    :meth:`deadline` are the two ways to make one, and firing an
    :class:`Event` is one such call (its callbacks loop).  Entries run in
    ``(time, seq)`` order, ``seq`` strictly increasing as they are made,
    so runs are exactly repeatable.  They are held in two places, which
    keep that order without comparing seqs across them:

    * a heap of ``(time, seq, fn, arg)`` for every entry due after the
      instant it was made;
    * a FIFO for the entries made in the current instant for the current
      instant (zero delay).  It runs after the heap's entries due now,
      because each of those was made before this instant, so its seq is
      the smaller.

    :meth:`deadline` keeps the timer of a wait that usually ends first: it
    reserves its seq when armed, and its deadline goes onto the heap under
    that seq only while its event is still pending (see there).
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
        self._ready: deque[tuple[Callable[[Any], None], Any]] = deque()
        self._seq = 0
        # delay -> the deadlines armed with it, due in arm order; a lane
        # that holds any has exactly one heap entry
        self._lanes: defaultdict[float, deque] = defaultdict(deque)
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

    def join(self, generators: Iterable[Generator[Event, Any, Any]]) -> Event:
        """``all_of`` over one process per generator, without the processes.

        The event succeeds (with None) once every generator has returned
        and fails with the first one to raise.  Each generator runs as a
        :class:`Task`, so every entry falls at the instant and in the order
        ``all_of([process(g) ...])`` would give it.
        """
        joined, left = Event(self), 0

        def done(task: Task) -> None:
            nonlocal left
            left -= 1
            if joined._value is PENDING and not task._ok:
                joined.fail(task._value)
            elif joined._value is PENDING and not left:
                joined.succeed()

        for generator in generators:
            left += 1
            Task(self, generator, done)
        if not left:
            joined.succeed()
        return joined

    def emit(self, subsystem: str, kind: str, **detail: Any) -> None:
        """Hand a structured record stamped with ``self.now`` to the
        telemetry hub's record sinks (see :meth:`TelemetryHub.record`)."""
        self.telemetry.record(self.now, subsystem, kind, detail)

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Run ``fn(arg)`` ``delay`` time units from now.

        The entry for code that only wants "run this later" and has nobody
        to wait on it: one heap tuple or, due this instant, one FIFO pair;
        no :class:`Event`.  It cannot be cancelled or yielded on; an
        exception from ``fn`` surfaces from :meth:`run`.  A delay that is
        not ``>= 0`` (negative, or NaN, which would break the heap's order)
        is a :class:`ValueError`.
        """
        if not delay >= 0:
            raise ValueError(f"negative delay: {delay}" if delay < 0
                             else f"delay must be >= 0, got {delay}")
        time = self.now + delay
        if time == self.now:
            self._ready.append((fn, arg))
            return
        heapq.heappush(self._queue, (time, self._seq, fn, arg))
        self._seq += 1

    def deadline(self, delay: float, event: Event, value: Any = None) -> None:
        """Succeed ``event`` with ``value`` ``delay`` from now, unless it
        has triggered by then: the timer of a wait that usually ends first.

        Deadlines that share a delay fall due in the order they were
        armed, so they form one lane with one heap entry: the earliest
        deadline whose event was pending when the entry was pushed, under
        the seq it reserved when armed.  A deadline whose event triggers
        before the one ahead of it falls due never reaches the heap, and
        one that fires keeps its ``(time, seq)`` place, tie rules included.
        A delay that does not put the deadline after now is a
        :class:`ValueError`.
        """
        time = self.now + delay
        if not time > self.now:
            raise ValueError(f"a deadline must lie after now, got {delay}")
        lane = self._lanes[delay]
        lane.append((time, self._seq, event, value))
        if len(lane) == 1:
            heapq.heappush(self._queue, (time, self._seq, self._due, lane))
        self._seq += 1

    def _due(self, lane: deque) -> None:
        _, _, event, value = lane.popleft()
        while lane and lane[0][2]._value is not PENDING:
            lane.popleft()
        if lane:  # due at or after now, under a seq older than this instant
            heapq.heappush(self._queue, (*lane[0][:2], self._due, lane))
        if event._value is PENDING:
            event.succeed(value)

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        return (self.now if self._ready else self._queue[0][0] if self._queue
                else float("inf"))

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the value of ``until`` when it is an event, else ``None``.
        Each pass of the loop takes the next entry — a heap entry due now,
        else the FIFO's head, else the heap's head, advancing ``now`` —
        bumps the ``sim.kernel.events`` counter and calls the entry; the
        counter is bumped before the call, so it is exact whenever anyone
        reads it.
        """
        if isinstance(until, Event):
            stop, horizon = until, float("inf")
        else:
            stop = None
            horizon = float("inf") if until is None else float(until)
            if horizon < self.now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self.now})")
        queue, ready, fired = self._queue, self._ready, self._events_fired
        pop, popleft = heapq.heappop, ready.popleft
        # ``stop.callbacks`` is None once the stop event has been processed.
        while stop is None or stop.callbacks is not None:
            if ready and not (queue and queue[0][0] <= self.now):
                fn, arg = popleft()
            elif queue and queue[0][0] <= horizon:
                self.now, _, fn, arg = pop(queue)
            else:
                break
            fired.value += 1
            fn(arg)
        if stop is None:
            if horizon != float("inf"):
                self.now = horizon
            return None
        if stop._value is PENDING:
            raise RuntimeError(
                f"run() ran out of events before {stop!r} triggered")
        if not stop._ok:
            stop.defuse()
            raise stop._value
        return stop._value
