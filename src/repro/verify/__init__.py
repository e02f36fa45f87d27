"""Exhaustive bounded verification of the NTCP coordinator protocol.

There is no model of the protocol: the real code is its own.
:mod:`repro.verify.explorer` holds the live rig — a real
:class:`~repro.coordinator.mspsds.SimulationCoordinator` deployment on a
:class:`~repro.grid.Grid` of two simulation sites — and the exhaustive
enumeration of every fault schedule within a bounded configuration,
each replayed on a fresh rig through :func:`repro.chaos.replay` (the
chaos campaigns' fault driver, which arms each fault at its message
point and collects the run's evidence) and judged by every invariant of
:mod:`repro.invariants`; and the seeded mutants, each a patch breaking
one rule of the real coordinator or server.

Run it with ``python -m repro.verify`` (or ``make verify``): one pass,
no options.
"""

from repro.verify.explorer import VerifyConfig, explore, sweep

__all__ = ["VerifyConfig", "explore", "sweep"]
