"""A yardstick for how fast this machine is running right now.

The boxes this benchmark runs on are small shared VMs whose speed drifts
by tens of percent within seconds (a busy neighbour on the same core):
back-to-back repetitions of the identical 1,500-step run took 2.0 to
3.5 host seconds here, a run-to-run spread of 18-26 % against metric
bounds of 20 %.  Repeating more does not average a drift away, so the
benchmark measures it instead.  An interval timer interrupts the program
every ``INTERVAL_S`` of wall time and runs :func:`kernel_slice` — a
fixed, program-independent piece of interpreter work of the same kind
the simulator does (generators resumed off a heap, small frozen objects,
``repr``, counters) — and records how long the slice took *at that
moment*.  A timed interval is then corrected in two steps: the time the
slices themselves took is subtracted, and what is left is scaled by the
machine's mean speed over the interval relative to ``REFERENCE_SLICE_S``::

    corrected_s = (elapsed_s - sum(slices)) * REFERENCE_SLICE_S
                                            * mean(1 / slice_s)

(the mean of reciprocals, because ticks sample wall time uniformly and
work done is speed integrated over wall time).  On a quiet machine of the
reference kind the factor is 1 and corrected equals raw.  The slices know
nothing about ``repro``: a faster program shrinks ``elapsed_s`` and leaves
the slices alone, so gains and regressions show in full; only the
machine's own drift cancels.  Measured on this box in a noisy hour, for
the median of five ``most_bare`` repetitions: raw spread 19 %, corrected
3.8 %.  Raw times are kept in the output document beside the corrected ones.

Standard library only, so the yardstick runs before ``repro`` is imported
and set-up time is corrected the same way.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from dataclasses import dataclass

#: wall time between slices; a slice costs ~3 % of it
INTERVAL_S = 0.05
#: one slice on the 2-core box this was written on, when quiet
REFERENCE_SLICE_S = 1.35e-3


@dataclass(frozen=True)
class _Message:
    src: str
    dst: str
    port: str
    payload: object
    msg_id: str
    send_time: float


class _Counter:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("cannot decrease")
        self.value += amount


def _ticker(n):
    for index in range(n):
        yield 0.01 * (index % 7)


def kernel_slice(processes: int = 10, yields: int = 40) -> int:
    """A miniature event loop: 400 generator resumptions off a heap, each
    building a frozen message and measuring its payload's ``repr``."""
    heap = []
    seq = 0
    fired = _Counter()
    sizes = []
    now = 0.0
    for process in [_ticker(yields) for _ in range(processes)]:
        heapq.heappush(heap, (now + next(process), seq, process))
        seq += 1
    while heap:
        now, _, process = heapq.heappop(heap)
        fired.inc()
        message = _Message("coord", "uiuc", "ntcp",
                           {"step": seq, "value": now, "site": "uiuc"},
                           f"msg-{seq}", now)
        sizes.append(float(len(repr(message.payload))))
        try:
            heapq.heappush(heap, (now + process.send(None), seq, process))
            seq += 1
        except StopIteration:
            pass
    return fired.value


class Yardstick:
    """Samples machine speed on a wall-clock timer while the program runs.

    The slices run in the main thread between two bytecodes of whatever
    the program is doing (a Python-level signal handler), touch only
    their own objects, and keep the collector out of their own timing.
    """

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel_slice()
        self.slices.append(time.perf_counter() - started)
        if collecting:
            gc.enable()

    def start(self) -> None:
        kernel_slice()  # let the interpreter specialise the slice's code
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """A position in the slice record; pass it to :meth:`since`."""
        return len(self.slices)

    def since(self, mark: int) -> tuple[float, float]:
        """``(slice_s, speed)`` for the interval that began at ``mark``:
        host seconds the slices took, and the machine's mean speed
        (1.0 = the reference box, quiet).  Corrected time is
        ``(elapsed_s - slice_s) * speed``."""
        taken = self.slices[mark:]
        if not taken:
            raise ValueError("interval shorter than one yardstick tick")
        speed = REFERENCE_SLICE_S * statistics.fmean(1.0 / s for s in taken)
        return sum(taken), speed
