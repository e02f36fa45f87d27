"""The live rig every bounded schedule is replayed on.

The verifier has no model of the protocol: each schedule runs through a
*real* deployment — :class:`~repro.coordinator.mspsds.SimulationCoordinator`
driving genuine NTCP servers over the simulated network, with the
schedule's faults injected at their message points — and the run's own
evidence (:class:`repro.invariants.Evidence`) is what the invariants
judge.  The kernel is deterministic, so the real code is its own model.

A schedule's :class:`repro.grid.ChaosEvent` events are armed up front
through :meth:`repro.grid.Grid.arm` like the chaos campaigns' and the
public day's: a watcher on the wire recognises the step's marker inside
the site's request of the fault's NTCP operation and installs the fault
at that exact message point, so replays land each fault
deterministically regardless of pacing.

The deployment is stated here, once, as module constants: two
simulation sites on one star under the chaos campaign's fault-tolerant
policy.
"""

from __future__ import annotations

from repro.coordinator import (
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
    SimulationCoordinator,
    load_resume,
)
from repro.core.policy import SitePolicy
from repro.grid import ChaosEvent, Grid
from repro.invariants import Evidence
from repro.repository.checkpoint import (
    CheckpointPolicy,
    InMemoryCheckpointStore,
)
from repro.structural import StructuralModel, el_centro_like
from repro.util.errors import ConfigurationError

__all__ = ["SITES"]

SITES = ("uiuc", "cu")
COMPUTE_TIME = 0.05
DT = 0.02
#: server-side execute budget; the execute RPC timeout is this + 10, so
#: one retransmission straddles the transient outage window.
EXECUTION_TIMEOUT = 120.0
#: RPC ladder for a propose (client timeout x (retries + 1)).
RPC_TIMEOUT = 10.0
RPC_RETRIES = 3
#: transient outage duration the fault-tolerant policy rides out.
OUTAGE_DURATION = 90.0

_RUN_ID = "verify"


class _Rig:
    """The verifier's deployment as one live :class:`~repro.grid.Grid`,
    with the experiment every replay of a configuration runs on it."""

    def __init__(self, config, *, with_failover: bool = False):
        self.config = config
        self.grid = grid = Grid.star()
        self.stiffness = dict.fromkeys(SITES, 30.0)
        grid.add_simulation_sites(self.stiffness, latency=0.01,
                                  compute_time=COMPUTE_TIME)
        self.model = StructuralModel(
            mass=[[2.0]], stiffness=[[100.0]]).with_rayleigh_damping(0.05)
        # n_steps committed steps need n_steps + 1 motion samples (the
        # extra one is the step-0 rest measurement).
        self.motion = el_centro_like(
            duration=(config.n_steps + 1) * DT, dt=DT).scaled_to_pga(1.0)
        self.client = grid.client(timeout=RPC_TIMEOUT, retries=RPC_RETRIES)
        self.sites = grid.bindings()
        self.failover = grid.failover(
            self.stiffness, port="ogsi-failover", compute_time=COMPUTE_TIME,
            surrogate_name="{}-surrogate".format,
            site_policy=SitePolicy()) if with_failover else None

    def make_coordinator(self, **options) -> SimulationCoordinator:
        """A coordinator over this rig's sites, per the config's mode
        (pipelined replays get a fresh bit-exact predictor — the same
        linear substructures as the sites); ``options`` go to
        :class:`SimulationCoordinator` untouched."""
        predictor = None
        if self.config.pipeline_depth:
            predictor = self.grid.predictor(self.stiffness,
                                            name="{}-predictor".format)
        return SimulationCoordinator(
            run_id=_RUN_ID, client=self.client, model=self.model,
            motion=self.motion, sites=self.sites,
            execution_timeout=EXECUTION_TIMEOUT, failover=self.failover,
            predictor=predictor, **options)

    def evidence(self, result, coordinator) -> Evidence:
        """What the run left behind on this rig."""
        return Evidence(
            result=result,
            servers={site: self.grid.sites[site].server for site in SITES},
            failover=self.failover,
            names={step: coordinator._step_names(step)
                   for step in range(self.config.n_steps + 1)},
            dofs={site.name: site.dof_indices for site in self.sites},
            proposals=self.grid.kernel.telemetry.tracer.spans(
                "core.server.propose"))


def _replay(config, schedule: tuple[ChaosEvent, ...],
            ) -> tuple[Evidence, SimulationCoordinator]:
    """Run ``schedule`` through one live rig with every event armed up
    front; returns the run's evidence and its last coordinator.

    A fatal outage builds the rig with failover.  A crash runs
    incarnation 1 under the abort-on-first-failure policy into the armed
    fault (the verb's replies die and the link goes down), leaving an
    abort-time checkpoint; the link is then restored and incarnation 2
    resumes from the checkpoint on the same grid, reconciling per the §7
    table.
    """
    rig = _Rig(config, with_failover=any(
        event.kind == "fatal_outage_propose" for event in schedule))
    for event in schedule:
        rig.grid.arm(event)
    crash = next((event for event in schedule
                  if event.kind.startswith("crash_")), None)
    if crash is None:
        coordinator = rig.make_coordinator(
            fault_policy=FaultTolerantFaultPolicy(
                max_attempts=12, backoff=30.0, backoff_factor=1.5,
                max_backoff=600.0))
    else:
        store = InMemoryCheckpointStore()
        options = {"fault_policy": NaiveFaultPolicy(),
                   "checkpoint_store": store,
                   "checkpoint_policy": CheckpointPolicy(every_n_steps=0)}
        if rig.grid.run(rig.make_coordinator(**options).run()).completed:
            raise ConfigurationError(
                f"crash replay at step {crash.step} did not abort")
        rig.grid.network.set_link_state("coord", crash.site, up=True)
        state, prior_records = rig.grid.run(load_resume(store, _RUN_ID))
        coordinator = rig.make_coordinator(
            state=state, prior_records=prior_records, **options)
    result = rig.grid.run(coordinator.run())
    return rig.evidence(result, coordinator), coordinator
