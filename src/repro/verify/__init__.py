"""Exhaustive bounded verification of the NTCP coordinator protocol.

There is no model of the protocol: the real code is its own.  The
package holds two layers:

* :mod:`repro.verify.conformance` — the live rig: a real
  :class:`~repro.coordinator.mspsds.SimulationCoordinator` deployment on
  a :class:`~repro.grid.Grid`, each schedule's faults armed at their
  message points, and the run's evidence collected;
* :mod:`repro.verify.explorer` — exhaustive enumeration of every fault
  schedule within a bounded configuration, each replayed live and judged
  by every invariant of :mod:`repro.invariants`; and the seeded mutants,
  each a patch breaking one rule of the real coordinator or server.

Run it with ``python -m repro.verify`` (or ``make verify``): one pass,
no options.
"""

from repro.verify.explorer import VerifyConfig, explore, sweep

__all__ = ["VerifyConfig", "explore", "sweep"]
