"""Discrete-event simulation kernel.

All NEESgrid components in this reproduction — network links, NTCP servers,
control plugins, DAQ sampling loops, the simulation coordinator — execute as
cooperating processes on a single deterministic event kernel, so a 1,500-step
five-hour experiment replays in milliseconds of wall time while preserving
the paper's timing structure (round trips, settle times, poll intervals).

The programming model is generator-based: a *process* is a Python generator
that ``yield``\\ s :class:`~repro.sim.events.Event` objects (most commonly
timeouts or other processes) and is resumed when they fire.

>>> from repro.sim import Kernel
>>> k = Kernel()
>>> def hello(kernel, out):
...     yield kernel.timeout(5.0)
...     out.append(kernel.now)
>>> out = []
>>> _ = k.process(hello(k, out))
>>> k.run()
>>> out
[5.0]
"""

from repro.sim.events import Event, Timeout, AnyOf, AllOf, Interrupt
from repro.sim.process import Process, Task
from repro.sim.kernel import Kernel

__all__ = ["Kernel", "Event", "Timeout", "AnyOf", "AllOf", "Interrupt", "Process",
           "Task"]
