"""The fleet campaign scheduler: N concurrent experiments, one shared grid.

:func:`drive_request` is the one place a campaign run is built and its
NTCP transactions issued: on a granted lease it provisions fresh
substructures, builds model, motion and bindings, and runs
:class:`~repro.coordinator.SimulationCoordinator` incarnations with §7
checkpoint resume.  The NTCP client, checkpoint store and per-step
callback are the caller's — all that tells a plain fleet run from a
fenced durable-queue delivery (:mod:`repro.queue.scheduler`).

:class:`FleetScheduler` is the multi-tenant replacement for the
one-deployment-one-coordinator shape: tenants submit
:class:`ExperimentRequest`\\ s, and the scheduler drives every request
as its own kernel process — acquire a lease from the
:class:`~repro.fleet.pool.SitePool`, :func:`drive_request` under the
tenant's GSI identity with the tenant's own checkpoint store, register
the run in NMDS under a tenant-namespaced name, release the lease.
Everything advances on one deterministic simulation clock.

Per-lease isolation: breakers, failover surrogates (own container port
per lease), checkpoint store, and NTCP counter attribution all live with
the lease, never with the shared site.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.coordinator import (
    ExperimentResult,
    FaultPolicy,
    FaultTolerantFaultPolicy,
    SimulationCoordinator,
    load_resume,
)
from repro.fleet.pool import AdmissionError, SiteLease, SitePool
from repro.grid import single_dof
from repro.most.assembly import provision_simulation_site
from repro.net import BreakerConfig
from repro.ogsi import SdeStatusService
from repro.repository import (
    CheckpointPolicy,
    InMemoryCheckpointStore,
    RepositoryFacade,
)
from repro.repository.checkpoint import CheckpointStoreBase
from repro.structural import StructuralModel, kanai_tajimi_record
from repro.util.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.grid import FleetGrid
    from repro.fleet.tenants import Tenant, TenantRegistry


#: name of the roll-up service data element
ROLLUP_SDE = "fleet.rollup"


def default_fleet_fault_policy() -> FaultTolerantFaultPolicy:
    """The retry schedule a fleet request gets when it names none.

    Shorter back-offs than the solo MOST schedule: a fleet tenant holding
    leased sites through a transient should retry briskly so the queue
    keeps moving.
    """
    return FaultTolerantFaultPolicy(max_attempts=12, backoff=5.0,
                                    backoff_factor=2.0, max_backoff=120.0)


@dataclass
class ExperimentRequest:
    """One tenant's experiment, as the fleet scheduler understands it.

    ``motion_scale`` scales the ground-motion PGA so tenants can sweep
    intensities; ``checkpoint_every > 0`` gives the run its own
    per-tenant checkpoint store and up to ``max_resumes`` same-lease
    resume incarnations on abort; ``degradation`` adds per-lease circuit
    breakers and surrogate failover.
    """

    tenant: str
    run_id: str
    n_steps: int = 25
    n_sites: int = 2
    motion_scale: float = 1.0
    fault_policy: FaultPolicy | None = None
    checkpoint_every: int = 0
    max_resumes: int = 1
    resume_delay: float = 60.0
    degradation: bool = False
    breaker_config: BreakerConfig | None = None
    pipeline_depth: int = 0


def tenant_sweep(n_tenants: int, runs_per_tenant: int,
                 **request_fields: Any) -> list[ExperimentRequest]:
    """The campaign the CLI, the T-benches and the tests all drive.

    Tenants ``t00``, ``t01``, … each own ``runs_per_tenant`` runs
    ``<tenant>-r<k>`` and sweep a distinct ground-motion intensity
    (``motion_scale`` from 0.75 to 1.25 across the tenants), so tenants'
    physics differ — a shared-state leak between them could not hide, and
    a bit-exactness check is per-tenant meaningful.  ``request_fields``
    go to every :class:`ExperimentRequest`.
    """
    return [ExperimentRequest(
                tenant=f"t{i:02d}", run_id=f"t{i:02d}-r{run}",
                motion_scale=0.75 + 0.5 * i / max(n_tenants - 1, 1),
                **request_fields)
            for i in range(n_tenants) for run in range(runs_per_tenant)]


@dataclass
class TenantOutcome:
    """What one driven request produced: result, lease, attribution.

    One record per delivery, from either scheduler; ``attempt`` and
    ``resumed_from_step`` only ever leave their defaults on a
    durable-queue delivery (whose fencing epoch is ``lease.epoch``).
    """

    request: ExperimentRequest
    result: ExperimentResult
    #: the released lease the run held: sites, queueing wait, grant time
    lease: SiteLease
    submitted_at: float
    finished_at: float
    resumes: int = 0
    nmds_object_id: str | None = None
    #: claim count for the submission, this delivery included
    attempt: int = 1
    #: committed steps carried in from the resumed checkpoint (0 = cold)
    resumed_from_step: int = 0

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
        """Whether the final incarnation completed every step."""
        return self.result.completed

    @property
    def usage(self) -> dict[str, dict[str, int]]:
        """Per-site NTCP counter deltas for the lease (at-most-once
        evidence), frozen when the lease was released."""
        return self.lease.metrics_delta()

    def duplicate_executes(self) -> int:
        """Duplicate execute requests absorbed across the lease's sites."""
        return self.lease.duplicate_executes()


@dataclass
class FleetResult:
    """The campaign's outcome: every tenant run plus fleet-wide stats."""

    outcomes: list[TenantOutcome]
    started_at: float
    finished_at: float
    peak_queue_depth: int

    def per_tenant(self) -> dict[str, dict[str, Any]]:
        """Roll the outcomes up by tenant (runs, steps, waits, completion)."""
        stats: dict[str, dict[str, Any]] = {}
        for outcome in self.outcomes:
            entry = stats.setdefault(outcome.tenant, {
                "runs": 0, "completed": 0, "steps": 0,
                "degraded_runs": 0, "duplicate_executes": 0,
                "lease_wait_total": 0.0, "lease_wait_max": 0.0,
                "completion_time": 0.0})
            entry["runs"] += 1
            entry["completed"] += 1 if outcome.completed else 0
            entry["steps"] += outcome.result.steps_completed
            entry["degraded_runs"] += \
                1 if outcome.result.degraded_steps else 0
            entry["duplicate_executes"] += outcome.duplicate_executes()
            entry["lease_wait_total"] += outcome.lease.wait
            entry["lease_wait_max"] = max(entry["lease_wait_max"],
                                          outcome.lease.wait)
            entry["completion_time"] = max(
                entry["completion_time"],
                outcome.finished_at - self.started_at)
        return stats

    def completion_ratio(self) -> float:
        """Max/min ratio of tenants' campaign completion times.

        The fairness figure the bench reports: a starved tenant finishes
        its runs much later than the rest, inflating this ratio.
        """
        times = [entry["completion_time"]
                 for entry in self.per_tenant().values()]
        if not times:
            return 1.0
        low = min(times)
        if low <= 0.0:
            return float("inf")
        return max(times) / low

    def summary(self) -> dict[str, Any]:
        """The fleet-run headline numbers in one dict."""
        waits = [outcome.lease.wait for outcome in self.outcomes]
        return {
            "experiments": len(self.outcomes),
            "completed": sum(1 for o in self.outcomes if o.completed),
            "tenants": len(self.per_tenant()),
            "duration": self.finished_at - self.started_at,
            "completion_ratio": self.completion_ratio(),
            "peak_queue_depth": self.peak_queue_depth,
            "duplicate_executes": sum(o.duplicate_executes()
                                      for o in self.outcomes),
            "lease_wait_max": max(waits, default=0.0),
            "lease_wait_mean": (sum(waits) / len(waits)) if waits else 0.0,
        }


def drive_request(grid: "FleetGrid", lease: SiteLease,
                  request: ExperimentRequest, *, client: Any,
                  store: CheckpointStoreBase | None,
                  on_step: Callable[[Any], None] | None = None,
                  resume_first: bool = False
                  ) -> Generator[Any, Any, tuple[ExperimentResult, int, int]]:
    """Kernel process: run ``request`` to its end on a granted ``lease``.

    Provisions a fresh substructure behind every leased NTCP server and
    runs coordinator incarnations through ``client``: the first (resumed
    from ``store``'s newest checkpoint when ``resume_first`` — a
    redelivery picking up a predecessor's run), then up to
    ``request.max_resumes`` more on abort.  Resumes stay on the SAME
    lease: the sites still hold this run's substructure state, and
    at-most-once transaction names make the overlap with the aborted
    incarnation harmless.  ``store`` is ``None`` for a run that keeps no
    checkpoints; acquiring and releasing the lease stay with the caller.

    Returns ``(result, resumes, resumed_from_step)``: the last
    incarnation's result, how many abort-resumes ran, and the committed
    steps the first incarnation carried in from ``store`` (0 = cold).
    """
    kernel = grid.kernel
    config = grid.config
    run_id = request.run_id
    k_each = config.k_total / len(lease.sites)
    stiffness = {site.name: k_each for site in lease.sites}
    for site in lease.sites:
        provision_simulation_site(
            site, kernel, single_dof(f"{site.name}-{run_id}", k_each),
            compute_time=config.ncsa_compute)
    motion = kanai_tajimi_record(
        duration=request.n_steps * config.dt, dt=config.dt,
        pga=config.pga * request.motion_scale, seed=config.motion_seed)
    model = StructuralModel(
        mass=[[config.mass]], stiffness=[[config.k_total]]
    ).with_rayleigh_damping(config.damping_ratio)
    bindings = grid.bindings(dict.fromkeys(stiffness, (0,)))
    fault_policy = request.fault_policy or default_fleet_fault_policy()
    # Per-lease kit: names carry the run id, the surrogate container its
    # own lease-unique port; a fleet surrogate enforces no site policy.
    breakers = None
    failover = None
    if request.degradation:
        breakers = grid.breakers(
            stiffness, name=lambda site: f"{run_id}:{site}",
            config=request.breaker_config)
        failover = grid.failover(
            stiffness, port=f"ogsi-fo-{lease.lease_id}",
            compute_time=config.ncsa_compute,
            surrogate_name=lambda site: f"{site}-surrogate-{run_id}",
            site_policy=None)
    predictor = None
    if request.pipeline_depth > 0:
        predictor = grid.predictor(
            stiffness, name=lambda site: f"{site}-predict-{run_id}")
    checkpoint_policy = None
    if store is not None:
        checkpoint_policy = CheckpointPolicy(
            every_n_steps=request.checkpoint_every, on_abort=True)

    state, prior_records = None, ()
    if resume_first and store is not None:
        state, prior_records = yield from load_resume(store, run_id)
    resumed_from_step = len(prior_records)
    resumes = 0
    while True:
        coordinator = SimulationCoordinator(
            run_id=run_id, client=client, model=model, motion=motion,
            sites=bindings, fault_policy=fault_policy,
            execution_timeout=config.execution_timeout, on_step=on_step,
            checkpoint_store=store, checkpoint_policy=checkpoint_policy,
            state=state, prior_records=prior_records, breakers=breakers,
            failover=failover, pipeline_depth=request.pipeline_depth,
            predictor=predictor)
        result: ExperimentResult = yield kernel.process(
            coordinator.run(), name=f"fleet.{run_id}.run{resumes}")
        if (result.completed or store is None
                or resumes >= request.max_resumes):
            break
        yield kernel.timeout(request.resume_delay)
        state, prior_records = yield from load_resume(store, run_id)
        if state is None:
            break
        resumes += 1
    return result, resumes, resumed_from_step


class FleetScheduler:
    """Drives a campaign of experiments over one grid, pool, and registry.

    Construct one scheduler per grid (it deploys the fleet status service
    into the grid's coordinator container), :meth:`submit` requests, then
    :meth:`run` once — the deterministic event loop runs every request to
    completion and returns a :class:`FleetResult`.
    """

    def __init__(self, grid: "FleetGrid", pool: SitePool,
                 registry: "TenantRegistry", *, monitor: bool = True):
        self.grid = grid
        self.pool = pool
        self.registry = registry
        self.kernel = grid.kernel
        self._requests: list[ExperimentRequest] = []
        self._run_ids: set[str] = set()
        self.outcomes: list[TenantOutcome] = []
        self.checkpoint_stores: dict[str, InMemoryCheckpointStore] = {}
        #: tenant -> its ``fleet.tenant.steps`` counter (the roll-up reads it)
        self._tenant_steps: dict[str, Any] = {}
        self._completed = 0
        self._failed = 0
        self._started_at = 0.0
        self._ran = False
        self._monitoring = False
        self._tenant_alerts: dict[str, int] = {}
        self.slo = None
        self.status: SdeStatusService | None = None
        if monitor:
            self.status = SdeStatusService("fleet-status", ROLLUP_SDE,
                                           "getRollup")
            grid.coord_container.deploy(self.status)

    # -- submission ----------------------------------------------------------
    def submit(self, request: ExperimentRequest) -> ExperimentRequest:
        """Admit one request into the campaign (before :meth:`run`).

        Rejects duplicate run ids — transaction names on the shared NTCP
        servers embed the run id, so two tenants reusing one would break
        per-tenant at-most-once attribution — and requests the pool could
        never satisfy.
        """
        if self._ran:
            raise ConfigurationError(
                "the fleet scheduler already ran; build a new one")
        if not request.tenant:
            raise AdmissionError("a request needs a tenant id")
        if request.run_id in self._run_ids:
            raise AdmissionError(
                f"run id {request.run_id!r} is already submitted; run ids "
                f"must be fleet-unique")
        if request.n_steps < 1:
            raise AdmissionError(
                f"run {request.run_id!r} asks for {request.n_steps} steps")
        self.pool.validate_request(request.n_sites)
        self.registry.register(request.tenant)
        self._run_ids.add(request.run_id)
        self._requests.append(request)
        return request

    # -- execution -----------------------------------------------------------
    def run(self) -> FleetResult:
        """Run every submitted request to completion; returns the result."""
        if self._ran:
            raise ConfigurationError(
                "the fleet scheduler already ran; build a new one")
        if not self._requests:
            raise ConfigurationError("no experiments submitted")
        self._ran = True
        self._started_at = self.kernel.now
        processes = [self.kernel.process(self._drive(request),
                                         name=f"fleet.{request.run_id}")
                     for request in self._requests]
        self._monitoring = True
        if self.status is not None:
            self.kernel.process(self._rollup_loop(), name="fleet.rollup")
        self.kernel.run(until=self.kernel.all_of(processes))
        self._monitoring = False
        if self.status is not None:
            self.status.publish(self.rollup())
        return FleetResult(outcomes=list(self.outcomes),
                           started_at=self._started_at,
                           finished_at=self.kernel.now,
                           peak_queue_depth=self.pool.peak_queue_depth)

    # -- observability -------------------------------------------------------
    def note_alert(self, tenant_id: str, kind: str = "slo_burn") -> None:
        """Attribute one raised alert to a tenant (shows in the rollup)."""
        self._tenant_alerts[tenant_id] = \
            self._tenant_alerts.get(tenant_id, 0) + 1
        self.kernel.emit("fleet.scheduler", "tenant.alert",
                         tenant=tenant_id, alert=kind)

    def attach_slo(self, evaluator) -> None:
        """Point the rollup's error-budget fields at an SLO evaluator
        (see :class:`repro.observatory.slo.SLOEvaluator`)."""
        self.slo = evaluator

    def rollup(self) -> dict[str, Any]:
        """The fleet roll-up document (published as SDE ``fleet.rollup``)."""
        now = self.kernel.now
        elapsed = max(now - self._started_at, 1e-9)
        degraded_tenants = {outcome.tenant for outcome in self.outcomes
                            if outcome.result.degraded_steps}
        tenants = {}
        runs_by_tenant: dict[str, int] = {}
        for outcome in self.outcomes:
            runs_by_tenant[outcome.tenant] = \
                runs_by_tenant.get(outcome.tenant, 0) + 1
        for tenant_id in sorted(self.registry.tenants):
            counter = self._tenant_steps.get(tenant_id)
            steps = counter.value if counter is not None else 0
            tenants[tenant_id] = {
                "steps": steps,
                "step_rate": steps / elapsed,
                "runs_completed": runs_by_tenant.get(tenant_id, 0),
                "degraded": tenant_id in degraded_tenants,
                "alerts": self._tenant_alerts.get(tenant_id, 0),
                "error_budget_remaining": (
                    self.slo.budget_for_tenant(tenant_id)
                    if self.slo is not None else 1.0),
            }
        return {
            "time": now,
            "queue_depth": self.pool.queue_depth(),
            "free_sites": self.pool.free_sites(),
            "active_leases": len(self.pool.active),
            "experiments": {"submitted": len(self._requests),
                            "completed": self._completed,
                            "failed": self._failed},
            "degraded_tenants": len(degraded_tenants),
            "alerts": sum(self._tenant_alerts.values()),
            "slo": (self.slo.budget_remaining()
                    if self.slo is not None else {}),
            "tenants": tenants,
        }

    def _rollup_loop(self) -> Generator[Any, Any, None]:
        """Refresh the roll-up SDE every 30 simulated seconds."""
        while self._monitoring:
            self.status.publish(self.rollup())
            yield self.kernel.timeout(30.0)

    # -- per-request drive ---------------------------------------------------
    def _drive(self, request: ExperimentRequest
               ) -> Generator[Any, Any, None]:
        tenant = self.registry.get(request.tenant)
        submitted_at = self.kernel.now
        lease: SiteLease = yield self.pool.acquire(request.tenant,
                                                   request.n_sites)
        store = None
        if request.checkpoint_every > 0:
            store = self.checkpoint_stores[request.run_id] = \
                InMemoryCheckpointStore()
        steps = self._tenant_steps[request.tenant] = \
            tenant.telemetry.counter("fleet.tenant.steps")
        result, resumes, _ = yield from drive_request(
            self.grid, lease, request, client=tenant.ntcp, store=store,
            on_step=lambda record: steps.inc())
        nmds_object_id = yield from self._register_run(tenant, request,
                                                       lease, result)
        self.pool.release(lease)
        # Campaign-wide totals the roll-up publishes — state, not a copy:
        # the hub series beside them is split per tenant.
        if result.completed:
            self._completed += 1
            tenant.telemetry.counter("fleet.tenant.runs_completed").inc()
        else:
            self._failed += 1
        self.outcomes.append(TenantOutcome(
            request=request, result=result, lease=lease,
            submitted_at=submitted_at, finished_at=self.kernel.now,
            resumes=resumes, nmds_object_id=nmds_object_id))

    def _register_run(self, tenant: "Tenant", request: ExperimentRequest,
                      lease: SiteLease, result: ExperimentResult
                      ) -> Generator[Any, Any, str | None]:
        """Register the run in NMDS under a tenant-namespaced name.

        Authorized as the tenant (GSI token + CAS ``repository:write``).
        A repository outage must not take the whole campaign down, so
        failures are logged and swallowed.
        """
        facade = RepositoryFacade(
            tenant.rpc, self.grid.nmds_handle,
            credential_factory=tenant.authenticator.token)
        fields = {
            "name": f"fleet/{tenant.tenant_id}/{request.run_id}",
            "tenant": tenant.tenant_id,
            "run_id": request.run_id,
            "sites": list(lease.site_names),
            "steps": result.steps_completed,
            "completed": result.completed,
            "degraded_steps": result.degraded_steps,
        }
        try:
            object_id = yield from facade.annotate("fleet-run", fields)
        except ReproError as exc:
            self.kernel.emit("fleet.sched", "nmds.register_failed",
                             run_id=request.run_id, tenant=tenant.tenant_id,
                             error=f"{type(exc).__name__}: {exc}")
            return None
        return object_id


def solo_displacement_history(request: ExperimentRequest, *,
                              config: Any = None,
                              network_seed: int | None = None) -> Any:
    """Run ``request`` alone on a fresh grid; return its history.

    The bit-exactness reference: an undegraded tenant's displacement
    history in a crowded fleet must equal this solo run exactly, because
    nothing on the shared grid (fixed-latency links, per-lease fresh
    substructure state, unique transaction names) couples tenants
    numerically.
    """
    from repro.fleet.grid import build_fleet_grid
    from repro.fleet.tenants import TenantRegistry

    grid = build_fleet_grid(request.n_sites, config=config,
                            network_seed=network_seed)
    pool = SitePool(grid.kernel, grid.sites.values())
    registry = TenantRegistry(grid)
    scheduler = FleetScheduler(grid, pool, registry, monitor=False)
    scheduler.submit(replace(request))
    fleet_result = scheduler.run()
    return fleet_result.outcomes[0].result.displacement_history()
