"""Reusable single-site test harness.

Used by this repository's own tests and benchmarks, and handy for
downstream users writing plugin integration tests: a
:class:`repro.grid.Grid` with one site (host ``site``) around the plugin
of your choice and one retry-capable client, flattened into a
:class:`SiteEnv` so a test reaches server, handle and client by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import NTCPClient, NTCPServer
from repro.grid import Grid
from repro.net import FaultInjector, Network
from repro.ogsi import GridServiceHandle, ServiceContainer
from repro.sim import Kernel


@dataclass
class SiteEnv:
    """One coordinator host + one site host running an NTCP server."""

    kernel: Kernel
    network: Network
    container: ServiceContainer
    server: NTCPServer
    handle: GridServiceHandle
    client: NTCPClient
    faults: FaultInjector
    extra: dict = field(default_factory=dict)

    def run(self, gen):
        """Drive a client generator to completion; return its value."""
        return self.kernel.run(until=self.kernel.process(gen))


def make_site(plugin, *, latency: float = 0.02, loss: float = 0.0,
              seed: int = 0, timeout: float = 30.0, retries: int = 3,
              service_id: str = "ntcp-site") -> SiteEnv:
    """Wire a coordinator host to a single NTCP site over one link."""
    grid = Grid.star(seed=seed)
    site = grid.add_site("site", plugin, latency=latency, loss=loss,
                         service_id=service_id)
    return SiteEnv(kernel=grid.kernel, network=grid.network,
                   container=site.container, server=site.server,
                   handle=site.handle,
                   client=grid.client(timeout=timeout, retries=retries),
                   faults=grid.faults)
