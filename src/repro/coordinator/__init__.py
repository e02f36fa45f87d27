"""The simulation coordinator (paper §3, Figure 5).

"A Simulation Coordinator provides overall management of the experiment.
This component repeatedly issues a set of NTCP proposals based on current
simulation state, collects information about the resulting state of all the
substructures, and, based on that resulting state, computes the next set of
NTCP commands to send.  The coordinator also handles exceptions such as
lost network connections or invalid responses."

* :class:`~repro.coordinator.mspsds.SimulationCoordinator` — the MS-PSDS
  stepping loop over NTCP: one loop for sequential and pipelined
  stepping (a predictor puts one step in flight), one abort exit, and
  :meth:`~repro.coordinator.mspsds.SimulationCoordinator.retire` — the
  only §7 cancel-and-rename (rejection hygiene, speculation rollback,
  failover and the resume drain all go through it);
* :class:`~repro.coordinator.mspsds.SiteBinding` — one substructure's
  NTCP handle and DOF mapping;
* :mod:`~repro.coordinator.fault_policy` — how failures are handled:
  :class:`NaiveFaultPolicy` reproduces the public MOST run (the coordinator
  "had not been coded to take advantage of all the fault-tolerance
  features"), :class:`FaultTolerantFaultPolicy` retries steps through
  transient failures;
* :class:`~repro.coordinator.state.ExperimentState` — the serializable
  step-machine state checkpoints persist; beside it the only spelling of
  the transaction-name format
  (:func:`~repro.coordinator.state.transaction_name`, and
  :func:`~repro.coordinator.state.step_marker` for traffic watchers) and
  the only resume point (:func:`~repro.coordinator.state.load_resume`:
  newest checkpoint → ``(state, prior_records)``);
* :class:`~repro.coordinator.reconcile.Reconciler` — the resume-time pass
  that classifies the aborted attempt's in-flight transactions;
* :class:`~repro.coordinator.failover.FailoverManager` — graceful
  degradation: owns the per-site circuit breakers and hot-swaps a
  permanently failed site for a numerical surrogate so the run finishes
  (degraded, clearly labelled) instead of aborting at the paper's step
  1493;
* :class:`~repro.coordinator.predictor.SubstructurePredictor` — nominal
  force prediction; a coordinator given one steps pipelined
  (speculatively, one step ahead);
* :class:`~repro.coordinator.ensemble.EnsembleCoordinator` — one
  coordinator advancing N scenario variants per protocol cycle;
* :class:`~repro.coordinator.realtime.RealTimeCoordinator` — the same
  loop under a fixed period (paper §5), with stale-force prediction.
"""

from repro.coordinator.fault_policy import (
    FaultPolicy,
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
)
from repro.coordinator.records import ExperimentResult, StepRecord
from repro.coordinator.state import (
    ExperimentState,
    load_resume,
    records_from_payloads,
    resume_state_from_checkpoint,
    step_marker,
    transaction_name,
)
from repro.coordinator.reconcile import (
    ReconcileAction,
    ReconciliationReport,
    Reconciler,
)
from repro.coordinator.failover import (
    DegradationPolicy,
    FailoverEvent,
    FailoverManager,
    SurrogateSpec,
)
from repro.coordinator.mspsds import SimulationCoordinator, SiteBinding
from repro.coordinator.predictor import SubstructurePredictor
from repro.coordinator.ensemble import (
    EnsembleCoordinator,
    variant_displacement_history,
)
from repro.coordinator.toolbox import NTCPToolbox
from repro.coordinator.realtime import RealTimeCoordinator, RealTimeStats

__all__ = [
    "RealTimeCoordinator",
    "RealTimeStats",
    "SimulationCoordinator",
    "SiteBinding",
    "SubstructurePredictor",
    "EnsembleCoordinator",
    "variant_displacement_history",
    "NTCPToolbox",
    "FaultPolicy",
    "NaiveFaultPolicy",
    "FaultTolerantFaultPolicy",
    "StepRecord",
    "ExperimentResult",
    "ExperimentState",
    "transaction_name",
    "step_marker",
    "load_resume",
    "records_from_payloads",
    "resume_state_from_checkpoint",
    "Reconciler",
    "ReconcileAction",
    "ReconciliationReport",
    "FailoverManager",
    "DegradationPolicy",
    "SurrogateSpec",
    "FailoverEvent",
]
