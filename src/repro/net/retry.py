"""A shared retry schedule: bounded exponential backoff, deterministic jitter.

The reproduction grew three ad-hoc retry loops — the RPC client's fixed-
interval retransmission, the coordinator fault policy's exponential
backoff, and (new with the durable queue) journal appends that must ride
out repository outages.  :class:`RetryPolicy` is the one shape under all
of them: a frozen description of the schedule (attempt budget, base
delay, growth factor, cap, jitter fraction) plus two ways to consume it —
:meth:`delay_for` for callers that keep their own loop, and :meth:`call`
for generator-shaped operations retried as a kernel process.

Jitter is *deterministic*: it is derived from a CRC of ``(key, attempt)``,
not from a random source, so the same key retried at the same attempt
always backs off by the same amount.  That keeps every retry schedule
reproducible under the simulation kernel (rule RPR001: nothing in sim
scope may consume wall clocks or nondeterministic randomness) while still
decorrelating distinct keys, which is all jitter exists to do.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator

from repro.net.breaker import BreakerOpen
from repro.util.errors import FencingError, ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to wait between tries.

    ``max_attempts`` counts total attempts (first try included); the delay
    after failed attempt ``n`` (1-based) is
    ``min(base_delay * factor ** (n - 1), max_delay)``, stretched by up to
    ``jitter`` of itself using the deterministic per-key hash.  A policy
    with ``base_delay=0`` retries back-to-back (the RPC retransmission
    shape); ``jitter=0`` reproduces a classic exponential schedule (the
    coordinator fault-policy shape).
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    factor: float = 2.0
    max_delay: float = 120.0
    jitter: float = 0.0

    def __post_init__(self):
        if type(self.max_attempts) is not int or self.max_attempts < 1:
            raise ValueError("max_attempts must be an int >= 1")
        # ``not x >= 0`` also refuses NaN, which every comparison fails: a
        # NaN delay would make a caller's ``delay > 0`` skip the wait.
        if not (self.base_delay >= 0 and self.max_delay >= 0):
            raise ValueError("delays must be >= 0")
        if not 0 < self.factor < math.inf:
            raise ValueError("factor must be positive and finite")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    @staticmethod
    def _unit(key: str, attempt: int) -> float:
        """Deterministic uniform-ish value in [0, 1) for (key, attempt)."""
        return zlib.crc32(f"{key}:{attempt}".encode()) / 2**32

    def delay_for(self, attempt: int, *, key: str = "") -> float:
        """Backoff after failed attempt ``attempt`` (1-based), jittered."""
        if attempt < 1:
            return 0.0
        delay = min(self.base_delay * self.factor ** (attempt - 1),
                    self.max_delay)
        if self.jitter and delay:
            delay *= 1.0 + self.jitter * self._unit(key, attempt)
        return delay

    def delays(self, *, key: str = "") -> Iterator[float]:
        """The full inter-attempt delay sequence (``max_attempts - 1`` long)."""
        for attempt in range(1, self.max_attempts):
            yield self.delay_for(attempt, key=key)

    def call(self, kernel: Any, make_attempt: Callable[[], Any], *,
             key: str = "") -> Generator[Any, Any, Any]:
        """Kernel process: run ``make_attempt()`` under this schedule.

        ``make_attempt`` must return a *fresh* generator per call (the
        usual ``lambda: client.call(...)`` shape).  Retries sleep on the
        simulation clock between attempts.  Exhausting the budget re-raises
        the **last** underlying error — the diagnosis the operator needs is
        what finally failed, not what failed first.  Only a
        :class:`~repro.util.errors.ReproError` is retried, and two of those
        never are: :class:`~repro.net.breaker.BreakerOpen` (an open circuit
        breaker is a deliberate short-circuit — burning the retry budget
        against it defeats its purpose) and
        :class:`~repro.util.errors.FencingError` (a superseded epoch can
        never become current again by waiting).
        """
        last_error: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                result = yield from make_attempt()
            except (BreakerOpen, FencingError):
                raise
            except ReproError as exc:
                last_error = exc
                if attempt == self.max_attempts:
                    raise
                delay = self.delay_for(attempt, key=key)
                kernel.emit("net.retry", "retry.backoff", key=key,
                            attempt=attempt, delay=delay,
                            error=f"{type(exc).__name__}: {exc}")
                if delay > 0:
                    yield kernel.timeout(delay)
            else:
                return result
        raise last_error  # pragma: no cover - loop always returns or raises
