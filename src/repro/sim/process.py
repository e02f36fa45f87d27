"""Generator-driven simulation processes."""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.sim.events import PENDING, Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class Process(Event):
    """A running generator; also an Event that fires when the generator ends.

    The process's value is the generator's return value; if the generator
    raises, the process fails with that exception (propagating to waiters
    or, with none, aborting the run).
    """

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

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its callback is
        removed); the process decides in its ``except Interrupt`` handler
        whether to re-wait, retry, or bail out.
        """
        if self.triggered:
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
        # A process interrupted before it booted has begun a wait since.
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
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # The trampoline's job is to capture the process's failure and
            # route it into the event graph; fail() re-delivers it to
            # whoever waits on us.
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(TypeError(
                f"process {self.name!r} yielded a non-Event: {target!r}"))
            return
        if target.kernel is not self.kernel:
            self.fail(ValueError("yielded event belongs to a different kernel"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)
