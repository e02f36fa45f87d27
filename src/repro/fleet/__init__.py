"""Multi-tenant experiment fleet over a shared NTCP site pool.

The paper's deployment runs one hybrid experiment at a time; the fleet
layer multiplexes many concurrent experiments — parameter sweeps, chaos
campaigns, Mini-MOST classrooms — over a fixed pool of shared sites:

* :mod:`repro.fleet.grid` builds the shared grid (``K`` pooled
  simulation sites, the coordinator host, the repository);
* :mod:`repro.fleet.pool` hands sites out as leases with FIFO +
  fair-share queueing and admission control;
* :mod:`repro.fleet.tenants` threads a per-tenant GSI identity through
  every NTCP and repository call, with tenant-labeled telemetry;
* :mod:`repro.fleet.scheduler` holds the one campaign drive loop
  (:func:`drive_request`: provision, coordinate, checkpoint-resume on a
  granted lease — the durable scheduler in :mod:`repro.queue` runs its
  deliveries through the same function) and :class:`FleetScheduler`,
  which drives N requests as deterministic kernel processes and
  publishes the fleet roll-up as the ``fleet.rollup`` SDE for monitors.

Quickstart::

    from repro.fleet import (FleetScheduler, SitePool, TenantRegistry,
                             ExperimentRequest, build_fleet_grid)

    grid = build_fleet_grid(8)
    pool = SitePool(grid.kernel, grid.sites.values())
    registry = TenantRegistry(grid)
    fleet = FleetScheduler(grid, pool, registry)
    for tenant in ("alice", "bob"):
        for run in range(3):
            fleet.submit(ExperimentRequest(
                tenant=tenant, run_id=f"{tenant}-r{run}",
                n_steps=25, n_sites=2))
    result = fleet.run()
    print(result.summary())
"""

from repro.fleet.grid import DEFAULT_POOL_SIZE, FleetGrid, build_fleet_grid
from repro.fleet.pool import AdmissionError, SiteLease, SitePool
from repro.fleet.scheduler import (
    ROLLUP_SDE,
    ExperimentRequest,
    FleetResult,
    FleetScheduler,
    TenantOutcome,
    default_fleet_fault_policy,
    drive_request,
    solo_displacement_history,
    tenant_sweep,
)
from repro.fleet.tenants import (
    OUTSIDER_DN,
    Tenant,
    TenantRegistry,
    tenant_subject,
)

__all__ = [
    "AdmissionError",
    "DEFAULT_POOL_SIZE",
    "ExperimentRequest",
    "FleetGrid",
    "FleetResult",
    "FleetScheduler",
    "OUTSIDER_DN",
    "ROLLUP_SDE",
    "SiteLease",
    "SitePool",
    "Tenant",
    "TenantOutcome",
    "TenantRegistry",
    "build_fleet_grid",
    "default_fleet_fault_policy",
    "drive_request",
    "solo_displacement_history",
    "tenant_subject",
    "tenant_sweep",
]
