"""The campaign drive loop: one delivery of a submission on a granted lease.

:func:`drive_request` is the one place a campaign run is built and its
NTCP transactions issued: on a granted lease it provisions fresh
substructures, builds model, motion and bindings, and runs one
:class:`~repro.coordinator.SimulationCoordinator` incarnation — resumed
from the run's newest §7 checkpoint when the delivery is a redelivery.
Its one caller is the durable scheduler (:mod:`repro.queue.scheduler`),
which hands it a fenced NTCP client and a fenced checkpoint store: a
plain fleet campaign is a durable campaign that never crashes.

Per-lease isolation: breakers, failover surrogates (own container port
per lease), checkpoint store, and NTCP counter attribution all live with
the lease, never with the shared site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.coordinator import (
    ExperimentResult,
    FaultTolerantFaultPolicy,
    SimulationCoordinator,
    load_resume,
)
from repro.fleet.pool import SiteLease, SitePool
from repro.grid import single_dof
from repro.most.assembly import provision_simulation_site
from repro.repository import CheckpointPolicy
from repro.repository.checkpoint import CheckpointStoreBase
from repro.structural import StructuralModel, kanai_tajimi_record
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.grid import FleetGrid
    from repro.queue.ingress import QueueSubmission


def default_fleet_fault_policy() -> FaultTolerantFaultPolicy:
    """The retry schedule every campaign run gets.

    Shorter back-offs than the solo MOST schedule: a fleet tenant holding
    leased sites through a transient should retry briskly so the queue
    keeps moving.
    """
    return FaultTolerantFaultPolicy(max_attempts=12, backoff=5.0,
                                    backoff_factor=2.0, max_backoff=120.0)


def tenant_sweep(n_tenants: int, runs_per_tenant: int,
                 **submission_fields: Any) -> list["QueueSubmission"]:
    """The campaign the CLI, the T-benches and the tests all drive.

    Tenants ``t00``, ``t01``, … each own ``runs_per_tenant`` runs
    ``<tenant>-r<k>`` (the submission id, and so the run id) and sweep a
    distinct ground-motion intensity (``motion_scale`` from 0.75 to 1.25
    across the tenants), so tenants' physics differ — a shared-state leak
    between them could not hide, and a bit-exactness check is per-tenant
    meaningful.  ``submission_fields`` go to every submission.  A sweep
    with no tenant or no run per tenant is a :class:`ConfigurationError`.
    """
    from repro.queue.ingress import QueueSubmission

    if n_tenants < 1:
        raise ConfigurationError(
            f"a fleet campaign needs at least one tenant, got {n_tenants}")
    if runs_per_tenant < 1:
        raise ConfigurationError(f"a fleet campaign needs at least one run "
                                 f"per tenant, got {runs_per_tenant}")

    return [QueueSubmission(
                submission_id=f"t{i:02d}-r{run}", tenant=f"t{i:02d}",
                motion_scale=0.75 + 0.5 * i / max(n_tenants - 1, 1),
                **submission_fields)
            for i in range(n_tenants) for run in range(runs_per_tenant)]


@dataclass
class TenantOutcome:
    """What one delivery of a submission produced: result, lease, attribution.

    The fencing epoch of the delivery is ``lease.epoch``.
    """

    request: "QueueSubmission"
    result: ExperimentResult
    #: the released lease the run held: sites, queueing wait, grant time
    lease: SiteLease
    submitted_at: float
    finished_at: float
    #: claim count for the submission, this delivery included
    attempt: int = 1
    #: committed steps carried in from the resumed checkpoint (0 = cold)
    resumed_from_step: int = 0
    #: the run's failover manager (``None`` without ``degradation``)
    failover: Any = None

    @property
    def tenant(self) -> str:
        """The owning tenant id."""
        return self.request.tenant

    @property
    def run_id(self) -> str:
        """The experiment's run id."""
        return self.request.run_id

    @property
    def completed(self) -> bool:
        """Whether the delivery completed every step."""
        return self.result.completed

    def duplicate_executes(self) -> int:
        """Duplicate execute requests absorbed across the lease's sites."""
        return self.lease.duplicate_executes()


def drive_request(grid: "FleetGrid", lease: SiteLease,
                  submission: "QueueSubmission", *, client: Any,
                  store: CheckpointStoreBase | None,
                  resume_first: bool = False
                  ) -> Generator[Any, Any,
                                 tuple[ExperimentResult, int, Any]]:
    """Kernel process: run ``submission`` once on a granted ``lease``.

    Provisions a fresh substructure behind every leased NTCP server and
    runs one coordinator incarnation through ``client`` — resumed from
    ``store``'s newest checkpoint when ``resume_first`` (a redelivery
    picking up a predecessor's run).  An aborted run is not resumed here:
    the durable answer to an abort is the next incarnation's redelivery.
    ``store`` is ``None`` for a run that keeps no checkpoints; acquiring
    and releasing the lease stay with the caller.

    Returns ``(result, resumed_from_step, failover)``: the incarnation's
    result, the committed steps it carried in from ``store`` (0 = cold),
    and its :class:`~repro.coordinator.failover.FailoverManager` (``None``
    without ``degradation``) — the evidence the degraded-labeling
    invariant reads.
    """
    kernel = grid.kernel
    config = grid.config
    run_id = submission.run_id
    k_each = config.k_total / len(lease.sites)
    stiffness = {site.name: k_each for site in lease.sites}
    for site in lease.sites:
        provision_simulation_site(
            site, kernel, single_dof(f"{site.name}-{run_id}", k_each),
            compute_time=config.ncsa_compute)
    motion = kanai_tajimi_record(
        duration=submission.n_steps * config.dt, dt=config.dt,
        pga=config.pga * submission.motion_scale, seed=config.motion_seed)
    model = StructuralModel(
        mass=[[config.mass]], stiffness=[[config.k_total]]
    ).with_rayleigh_damping(config.damping_ratio)
    bindings = grid.bindings(dict.fromkeys(stiffness, (0,)))
    # Per-lease kit: names carry the run id, the surrogate container its
    # own lease-unique port; a fleet surrogate enforces no site policy.
    failover = None
    if submission.degradation:
        failover = grid.failover(
            stiffness, port=f"ogsi-fo-{lease.lease_id}",
            compute_time=config.ncsa_compute,
            surrogate_name=lambda site: f"{site}-surrogate-{run_id}",
            site_policy=None, breaker_name=lambda site: f"{run_id}:{site}")
    checkpoint_policy = None
    if store is not None:
        checkpoint_policy = CheckpointPolicy(
            every_n_steps=submission.checkpoint_every, on_abort=True)

    state, prior_records = None, ()
    if resume_first and store is not None:
        state, prior_records = yield from load_resume(store, run_id)
    coordinator = SimulationCoordinator(
        run_id=run_id, client=client, model=model, motion=motion,
        sites=bindings, fault_policy=default_fleet_fault_policy(),
        execution_timeout=config.execution_timeout,
        checkpoint_store=store, checkpoint_policy=checkpoint_policy,
        state=state, prior_records=prior_records, failover=failover)
    result: ExperimentResult = yield kernel.process(
        coordinator.run(), name=f"fleet.{run_id}.run")
    return result, len(prior_records), failover


def solo_displacement_history(submission: "QueueSubmission") -> Any:
    """Run ``submission`` alone on a fresh grid; return its history.

    The bit-exactness reference: an undegraded tenant's displacement
    history in a crowded fleet must equal this solo run exactly, because
    nothing on the shared grid (fixed-latency links, per-lease fresh
    substructure state, unique transaction names) couples tenants
    numerically.
    """
    from repro.fleet.grid import build_fleet_grid
    from repro.fleet.tenants import TenantRegistry
    from repro.queue import (
        ExperimentQueue,
        FencingAuthority,
        InMemoryJournalStore,
        run_durable_campaign,
    )

    grid = build_fleet_grid(submission.n_sites)
    queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                            FencingAuthority(grid.kernel))
    result = run_durable_campaign(
        grid, SitePool(grid.kernel, grid.sites.values()),
        TenantRegistry(grid), queue, [submission], settle_delay=0.0)
    return result.outcomes[0].result.displacement_history()
