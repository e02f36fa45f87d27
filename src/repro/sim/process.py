"""Generator-driven simulation processes."""

from __future__ import annotations

from typing import Any, Callable, Generator, TYPE_CHECKING

from repro.sim.events import PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class _Driven:
    """The trampoline that runs a generator on the kernel, shared by
    :class:`Process` and :class:`Task`: it boots the generator in a
    zero-delay entry, resumes it when the event it yielded is processed,
    and hands its return value or exception to ``_end``."""

    __slots__ = ()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the generator at the current time.

        The event it was waiting on is abandoned (its callback is
        removed); the generator decides in its ``except Interrupt`` handler
        whether to re-wait, retry, or bail out.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already terminated")
        self._abandon_wait()
        self.kernel.call_later(0.0, self._throw, Interrupt(cause))

    # -- internal ---------------------------------------------------------
    def _abandon_wait(self) -> None:
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None

    def _throw(self, exception: BaseException) -> None:
        # A generator interrupted before it booted has begun a wait since.
        self._abandon_wait()
        self._step(throw=exception)

    def _resume(self, evt: Event) -> None:
        self._waiting_on = None
        if evt._ok:
            self._step(send=evt._value)
        else:
            evt.defuse()
            self._step(throw=evt._value)

    def _step(self, send: Any = None, throw: BaseException | None = None) -> None:
        if self._value is not PENDING:  # interrupted after termination race
            return  # pragma: no cover - defensive
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            self._end(True, stop.value)
            return
        except BaseException as exc:
            # The trampoline's job is to capture the generator's failure
            # and route it into the event graph.
            self._end(False, exc)
            return
        if not isinstance(target, Event):
            self._end(False, TypeError(
                f"process {self._label()!r} yielded a non-Event: {target!r}"))
            return
        if target.kernel is not self.kernel:
            self._end(False, ValueError(
                "yielded event belongs to a different kernel"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Process(_Driven, Event):
    """A running generator; also an Event that fires when the generator ends.

    The process's value is the generator's return value; if the generator
    raises, the process fails with that exception (propagating to waiters
    or, with none, aborting the run).  It boots in a zero-delay entry, one
    in the FIFO of the instant it was made, and is resumed by the firing
    of each event it yields; its own firing is one more zero-delay entry.
    A hop with exactly one waiter known at its start takes a
    :class:`Task` instead.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, kernel: "Kernel", generator: Generator[Event, Any, Any],
                 name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(kernel, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        # Bootstrap: start the generator at the current simulation time,
        # after whatever is running now returns.
        kernel.call_later(0.0, self._step)

    def _end(self, ok: bool, value: Any) -> None:
        (self.succeed if ok else self.fail)(value)


class Task(_Driven):
    """A generator run as a :class:`Process` runs, that is no event.

    For a hop whose one waiter is known when it starts: no name, no waiter
    list, nothing to defuse.  Where a process's firing would call its
    callbacks, a zero-delay entry calls ``done(task)`` with ``_ok`` and
    ``_value`` set — the same entries at the same instants, one object
    fewer per hop.
    """

    __slots__ = ("kernel", "_generator", "_waiting_on", "_done", "_ok",
                 "_value")

    def __init__(self, kernel: "Kernel", generator: Generator[Event, Any, Any],
                 done: Callable[["Task"], None]):
        self.kernel, self._generator, self._done = kernel, generator, done
        self._waiting_on: Event | None = None
        self._value: Any = PENDING
        kernel.call_later(0.0, self._step)

    def _end(self, ok: bool, value: Any) -> None:
        self._ok, self._value = ok, value
        self.kernel.call_later(0.0, self._done, self)

    def _label(self) -> str:
        return self._generator.__name__
