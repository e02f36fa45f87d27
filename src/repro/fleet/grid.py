"""The shared fleet grid: K pooled simulation sites behind one coordinator host.

Unlike :func:`repro.most.assembly.build_most` — which wires the three named
MOST facilities and hands the whole deployment to a single coordinator —
the fleet grid is a :class:`repro.grid.Grid` star of anonymous
``site-0 .. site-{K-1}`` simulation sites, to which it adds the shared
``repo`` host (NMDS) and the hub's own ``coord_container`` for fleet-level
services.  Nothing is provisioned per-experiment here: a tenant's lease
installs fresh substructure state behind each leased site's NTCP server via
:func:`repro.most.assembly.provision_simulation_site`.

All coordinator–site links are fixed-latency with zero jitter and zero
loss, so the network never consumes shared randomness — this is what makes
a tenant's history bit-exact between a crowded fleet run and its solo
re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control import SimulationPlugin
from repro.grid import Grid, single_dof
from repro.most.config import MOSTConfig
from repro.ogsi import GridServiceHandle, ServiceContainer
from repro.repository import NMDSService
from repro.util.errors import ConfigurationError

#: default number of pooled sites (the bench's "≤ 8 shared sites" bound)
DEFAULT_POOL_SIZE = 8


@dataclass(kw_only=True)
class FleetGrid(Grid):
    """The assembled shared grid, ready for a pool and scheduler.

    ``sites`` holds one :class:`~repro.grid.SiteDeployment` per pooled
    site (host name == site name); ``coord_container`` hosts fleet-level
    services (a campaign's status SDE; per-lease failover surrogates
    bind their own ports); ``nmds`` is the shared metadata service on
    the ``repo`` host, behind the tenants' repository gridmap and CAS.
    """

    config: MOSTConfig
    coord_container: ServiceContainer = field(init=False)
    repo_container: ServiceContainer = field(init=False)
    nmds: NMDSService = field(init=False)
    nmds_handle: GridServiceHandle = field(init=False)
    extras: dict = field(default_factory=dict)


def build_fleet_grid(n_sites: int = DEFAULT_POOL_SIZE, *,
                     config: MOSTConfig | None = None,
                     network_seed: int | None = None) -> FleetGrid:
    """Construct a shared grid with ``n_sites`` pooled simulation sites.

    Per-site latencies follow a small deterministic spread (near-campus to
    across-the-WAN, like MOST's UIUC/NCSA/CU triangle) but carry no
    jitter, so concurrent tenants cannot perturb each other's numerics.
    """
    config = config or MOSTConfig()
    if n_sites < 1:
        raise ConfigurationError(f"a fleet grid needs at least one site, "
                                 f"got {n_sites}")
    grid = FleetGrid.star(
        seed=(network_seed if network_seed is not None
              else config.network_seed), config=config)
    grid.network.add_host("repo")
    grid.network.connect("coord", "repo", latency=config.latency_ncsa)

    latencies = (config.latency_ncsa, config.latency_uiuc,
                 config.latency_cu)
    for index in range(n_sites):
        host = f"site-{index}"
        # A placeholder plugin keeps the server well-formed before the
        # first lease; every lease re-provisions with fresh state.
        grid.add_site(
            host, SimulationPlugin(single_dof(f"{host}-unleased", 1.0),
                                   compute_time=0.0),
            latency=latencies[index % len(latencies)])

    grid.repo_container = ServiceContainer(grid.network, "repo")
    grid.nmds = NMDSService()
    grid.nmds_handle = grid.repo_container.deploy(grid.nmds)
    grid.coord_container = ServiceContainer(grid.network, "coord")
    return grid
