"""Exhaustive bounded verification of the NTCP coordinator protocol.

The package holds three layers:

* :mod:`repro.verify.model` — a deterministic small-step abstraction of
  the coordinator + NTCP servers whose only nondeterminism is the fault
  schedule, asserting the PROTOCOL.md §§7–9 invariants (at-most-once
  execution, monotone commits, no orphaned names, degraded-labeling
  soundness, command freshness) on every transition;
* :mod:`repro.verify.explorer` — exhaustive enumeration of every fault
  schedule within a bounded configuration, deduplicating canonical
  protocol states;
* :mod:`repro.verify.conformance` — replay of every explored trace
  through a *live* :class:`~repro.coordinator.mspsds.SimulationCoordinator`
  deployment with the same faults injected at the same message points;
  any divergence between the live observables and the model's expected
  tables fails the run, so the model cannot rot.

Run it with ``python -m repro.verify`` (or ``make verify``): one pass,
no options.
"""

from repro.verify.conformance import Divergence, replay_trace, run_conformance
from repro.verify.explorer import (
    ExplorationResult,
    enumerate_schedules,
    explore,
)
from repro.verify.model import (
    FAULT_KINDS,
    ModelMachine,
    ProtocolRules,
    TraceResult,
    VerifyConfig,
    Violation,
)

__all__ = [
    "FAULT_KINDS",
    "Divergence",
    "ExplorationResult",
    "ModelMachine",
    "ProtocolRules",
    "TraceResult",
    "VerifyConfig",
    "Violation",
    "enumerate_schedules",
    "explore",
    "replay_trace",
    "run_conformance",
]
