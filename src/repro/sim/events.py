"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with a value or an exception.
Processes wait on events by yielding them; arbitrary code can wait by
registering callbacks.  :class:`Timeout` fires after a delay; :class:`AnyOf`
and :class:`AllOf` compose events.  An event is for something that may be
*waited on*; code that only wants to run later, with no waiter, takes
:meth:`Kernel.call_later <repro.sim.kernel.Kernel.call_later>` instead.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

PENDING = object()
"""Sentinel: the event has no value yet."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    Attributes:
        cause: the object passed to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def _fire(event: "Event") -> None:
    """The kernel entry of a triggered event: run its callbacks, once."""
    callbacks, event.callbacks = event.callbacks, None
    for fn in callbacks:
        fn(event)
    if not event._ok and not event._defused:
        # A failure nobody observed (or defused): surface it rather than
        # losing it.  Processes and conditions defuse failures they relay.
        raise event._value


class Event:
    """A one-shot occurrence that processes can wait on.

    Life cycle: *pending* → *triggered* (its firing is a zero-delay kernel
    entry, queued in this instant's FIFO) → *processed* (callbacks ran).
    An event succeeds with a value or fails with an exception; failed
    events propagate their exception into every waiting process.  A failed
    event that nobody waits on is re-raised by the kernel so failures are
    never silently lost (call :meth:`defuse` to opt out for fire-and-forget
    operations).  Events and their subclasses have ``__slots__``: one is
    built per wait on the hot path.
    """

    __slots__ = ("kernel", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, kernel: "Kernel", name: str | None = None):
        self.kernel = kernel
        self.name = name
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if still pending."""
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._ok = True
        self.kernel.call_later(0.0, _fire, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.kernel.call_later(0.0, _fire, self)
        return self

    def defuse(self) -> "Event":
        """Mark a failure as intentionally unobserved (no re-raise)."""
        self._defused = True
        return self

    # -- waiting ---------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _label(self) -> str:
        return self.name or self.__class__.__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ("processed" if self.processed
                 else "triggered" if self.triggered else "pending")
        return f"<{self._label()} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        super().__init__(kernel)
        self.delay = delay
        self._value = value
        kernel.call_later(delay, _fire, self)  # rejects a negative delay

    def _label(self) -> str:  # pragma: no cover - cosmetic
        return f"timeout({self.delay})"


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, kernel: "Kernel", events: list[Event]):
        super().__init__(kernel)
        self.events = list(events)
        for evt in self.events:
            if not isinstance(evt, Event):
                raise TypeError(f"not an Event: {evt!r}")
        # Every child counts as pending before the first callback is
        # added: an already-processed child runs ``_on_child`` at once.
        self._pending = len(self.events)
        for evt in self.events:
            evt.add_callback(self._on_child)
        if not self.events and not self.triggered:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Collect *processed* children: a Timeout pre-sets its value at
        # creation (so ``triggered`` is immediately true), but it has not
        # occurred until the kernel processes it.
        return {e: e._value for e in self.events if e.processed and e.ok}

    def _on_child(self, evt: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds as soon as any child event succeeds (fails on first failure)."""

    __slots__ = ()

    def _on_child(self, evt: Event) -> None:
        if self.triggered:
            if not evt.ok:
                evt.defuse()
            return
        if evt.ok:
            self.succeed(self._collect())
        else:
            evt.defuse()
            self.fail(evt._value)


class AllOf(_Condition):
    """Succeeds when every child event has succeeded (fails on first failure)."""

    __slots__ = ()

    def _on_child(self, evt: Event) -> None:
        if self.triggered:
            if not evt.ok:
                evt.defuse()
            return
        if not evt.ok:
            evt.defuse()
            self.fail(evt._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())
