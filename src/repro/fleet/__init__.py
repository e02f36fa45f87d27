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
* :mod:`repro.fleet.scheduler` holds the campaign drive loop
  (:func:`drive_request`: provision, coordinate, resume a redelivery on a
  granted lease) and :func:`tenant_sweep`, the campaign everyone drives.

A campaign runs through the durable queue (:mod:`repro.queue`); a plain
fleet campaign is one that never crashes, over an in-memory journal.

Quickstart::

    from repro.fleet import SitePool, TenantRegistry, build_fleet_grid
    from repro.queue import (ExperimentQueue, FencingAuthority,
                             InMemoryJournalStore, QueueSubmission,
                             run_durable_campaign)

    grid = build_fleet_grid(8)
    pool = SitePool(grid.kernel, grid.sites.values())
    queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                            FencingAuthority(grid.kernel))
    submissions = [QueueSubmission(f"{tenant}-r{run}", tenant,
                                   n_steps=25, n_sites=2)
                   for tenant in ("alice", "bob") for run in range(3)]
    result = run_durable_campaign(grid, pool, TenantRegistry(grid), queue,
                                  submissions)
    print(result.summary())
"""

from repro.fleet.grid import DEFAULT_POOL_SIZE, FleetGrid, build_fleet_grid
from repro.fleet.pool import AdmissionError, SiteLease, SitePool
from repro.fleet.scheduler import (
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
    "FleetGrid",
    "OUTSIDER_DN",
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
