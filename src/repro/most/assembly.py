"""Wiring the full MOST deployment (paper Figures 5, 9, 10).

Hosts: ``coord`` (the simulation coordinator, run from UIUC), ``uiuc``,
``cu``, ``ncsa`` (the three substructure sites), ``repo`` (data/metadata
repository at NCSA), and ``portal`` (the CHEF server remote participants
log in to).  Site back-ends follow Figure 9 exactly:

* UIUC: NTCP server → Shore-Western plugin → simulated controller →
  servo-hydraulics on a yielding steel column specimen;
* NCSA: NTCP server → MPlugin → polling Matlab backend → numerical middle
  section;
* CU: NTCP server → the *same* MPlugin code → polling Matlab application →
  xPC real-time target → servo-hydraulics on the second column.

DAQ systems at UIUC and CU (and a pseudo-DAQ capturing the NCSA
simulation output, §3.2) deposit files into staging stores; ingestion
tools upload them through NFMS/GridFTP; NSDS services stream live samples;
cameras stream frames; the CHEF worksite hosts chat/notebook/viewers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chef import ChefWorksite
from repro.control import (
    MatlabBackend,
    MPlugin,
    ShoreWesternController,
    ShoreWesternPlugin,
    SimulationPlugin,
    XPCBackend,
    XPCTarget,
)
from repro.coordinator import (
    DegradationPolicy,
    EnsembleCoordinator,
    FailoverManager,
    SimulationCoordinator,
    SiteBinding,
    SubstructurePredictor,
    SurrogateSpec,
)
from repro.core import NTCPClient, NTCPServer
from repro.core.policy import SitePolicy as _SitePolicy
from repro.daq import DAQSystem, SensorChannel, StagingStore
from repro.daq.filestore import RepositoryFileStore
from repro.most.config import MOSTConfig
from repro.net import (
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    Network,
    RpcClient,
)
from repro.nsds import NSDSService
from repro.ogsi import GridServiceHandle, ServiceContainer
from repro.repository import (
    GridFTPTransport,
    HttpsBridgeTransport,
    IngestionTool,
    NFMSService,
    NMDSService,
    RepositoryCheckpointStore,
    RepositoryFacade,
)
from repro.sim import Kernel
from repro.structural import (
    BilinearSpring,
    GroundMotion,
    LinearSubstructure,
    PhysicalSpecimen,
    StructuralModel,
    kanai_tajimi_record,
)
from repro.structural.specimen import Actuator, Sensor
from repro.telepresence import CameraService, ReferralService


@dataclass
class SiteDeployment:
    """One site's moving parts, for tests and scenario scripting."""

    name: str
    container: ServiceContainer
    server: NTCPServer
    handle: GridServiceHandle
    specimen: PhysicalSpecimen | None = None
    backend: Any = None
    daq: DAQSystem | None = None
    staging: StagingStore | None = None
    nsds: NSDSService | None = None
    ingest: IngestionTool | None = None
    camera: CameraService | None = None


@dataclass
class MOSTDeployment:
    """The assembled experiment, ready for a scenario to drive."""

    config: MOSTConfig
    kernel: Kernel
    network: Network
    faults: FaultInjector
    motion: GroundMotion
    model: StructuralModel
    sites: dict[str, SiteDeployment]
    coordinator_rpc: RpcClient
    ntcp_client: NTCPClient
    repo_store: RepositoryFileStore
    nmds: NMDSService
    nfms: NFMSService
    chef: ChefWorksite
    extras: dict = field(default_factory=dict)

    def make_coordinator(self, *, run_id: str, variants=None,
                         **options) -> SimulationCoordinator:
        """A coordinator bound to the three sites (Figure 5).

        ``options`` go to :class:`SimulationCoordinator` untouched — its
        signature is the one list of coordinator options (checkpointing,
        resume ``state``/``prior_records`` from
        :func:`~repro.coordinator.state.load_resume`, ``breakers`` /
        ``failover`` from :meth:`make_breakers` / :meth:`make_failover`,
        pipelining with :meth:`make_predictor`).  With ``variants`` (N
        ground-motion records on a shared time grid) the result is an
        :class:`EnsembleCoordinator` stepping them all at once, and the
        deployment's own ``motion`` is ignored.
        """
        options = dict(
            run_id=run_id, client=self.ntcp_client, model=self.model,
            sites=[SiteBinding(name, site.handle, dof_indices=[0])
                   for name, site in self.sites.items()],
            execution_timeout=self.config.execution_timeout, **options)
        if variants is not None:
            return EnsembleCoordinator(variants=variants, **options)
        return SimulationCoordinator(motion=self.motion, **options)

    def make_predictor(self) -> SubstructurePredictor:
        """A force predictor for pipelined stepping, one model per site.

        Each site gets its *design* substructure — exactly what the
        simulation-only deployment evaluates, so speculation there is
        bit-exact and never rolls back; against physical specimens the
        prediction is the nominal linear response (pair with a
        ``mispredict_tolerance``).
        """
        return SubstructurePredictor({
            name: LinearSubstructure(f"{name}-predictor", [[k]], [0])
            for name, k in self.config.site_stiffness.items()
            if name in self.sites})

    def make_breakers(self, config: BreakerConfig | None = None,
                      ) -> dict[str, CircuitBreaker]:
        """One circuit breaker per site, for the coordinator to consult."""
        return {name: CircuitBreaker(self.kernel, name, config)
                for name in sorted(self.sites)}

    def make_failover(self, *, policy: DegradationPolicy | None = None,
                      compute_time: float | None = None,
                      port: str = "ogsi-failover") -> FailoverManager:
        """A failover manager with one numerical surrogate per site.

        Each surrogate is a fresh :class:`LinearSubstructure` built from
        the site's design stiffness — exactly the model the simulation-only
        rehearsal ran — behind the same displacement-limit policy the real
        site enforces.  Surrogates deploy in a dedicated container on the
        coordinator host (its ``ogsi`` port belongs to other kit in
        monitored runs).
        """
        config = self.config
        stroke = config.actuator_stroke
        site_policy = (_SitePolicy()
                       .limit("set-displacement", "value",
                              minimum=-stroke, maximum=stroke))
        specs = [
            SurrogateSpec(
                site=name,
                substructure_factory=(
                    lambda name=name, k=k: LinearSubstructure(
                        f"{name}-surrogate", [[k]], [0])),
                compute_time=(compute_time if compute_time is not None
                              else config.ncsa_compute),
                policy=site_policy)
            for name, k in sorted(config.site_stiffness.items())
            if name in self.sites]
        container = ServiceContainer(self.network, "coord", port=port)
        return FailoverManager(container=container, specs=specs,
                               policy=policy)

    def make_facade(self, rpc: RpcClient, *, staging=None,
                    credential_factory=None) -> RepositoryFacade:
        """The repository client for ``rpc``'s host: NMDS + NFMS on
        ``repo``, GridFTP for the bytes."""
        return RepositoryFacade(
            rpc, self.nmds.handle, self.nfms.handle,
            {"gridftp": GridFTPTransport(self.network)},
            repo_store=self.repo_store, staging=staging,
            credential_factory=credential_factory)

    def make_checkpoint_store(self) -> RepositoryCheckpointStore:
        """A checkpoint store writing through NFMS/GridFTP to ``repo``."""
        return RepositoryCheckpointStore(self.make_facade(
            RpcClient(self.network, "coord", default_timeout=30.0,
                      default_retries=2)))

    def start_backends(self) -> None:
        for site in self.sites.values():
            if site.backend is not None and not site.backend.running:
                site.backend.start(self.kernel)

    def start_observation(self) -> None:
        """Start DAQ sampling and ingestion at the physical sites."""
        for site in self.sites.values():
            if site.daq is not None and not site.daq.running:
                site.daq.start()
            if site.ingest is not None and not site.ingest.running:
                site.ingest.start()

    def stop_observation(self) -> None:
        for site in self.sites.values():
            if site.daq is not None:
                site.daq.stop()
            if site.ingest is not None:
                site.ingest.stop()
            if site.backend is not None:
                site.backend.stop()


def _physical_site(dep: "MOSTDeployment", name: str, host: str,
                   config: MOSTConfig, k: float, seed: int) -> tuple:
    """Common physical-site kit: specimen, DAQ, staging, NSDS, camera."""
    specimen = PhysicalSpecimen(
        f"{name}-column",
        BilinearSpring(k=k, fy=config.yield_force,
                       alpha=config.hardening_ratio),
        actuator=Actuator(min_settle=config.settle_min,
                          max_rate=config.actuator_rate,
                          max_stroke=config.actuator_stroke,
                          tracking_std=config.tracking_std),
        lvdt=Sensor(noise_std=1e-5),
        load_cell=Sensor(noise_std=config.force_noise),
        strain_gauge=Sensor(gain=1e3, noise_std=1e-3),
        seed=seed)
    staging = StagingStore(name=f"{name}-staging")
    daq = DAQSystem(host, dep.kernel, staging,
                    sample_interval=config.daq_interval,
                    block_size=config.daq_block,
                    seed=config.seeds.get("daq", 0) + seed)
    daq.add_channel(SensorChannel(
        f"{name}-displacement", lambda s=specimen: s.actuator.position,
        Sensor(noise_std=1e-5), units="m"))
    # The force channel reports the last load-cell measurement: re-probing
    # the element would advance its hysteresis state, which a sensor must
    # never do.
    daq.add_channel(SensorChannel(
        f"{name}-force",
        lambda s=specimen: s.history[-1].force if s.history else 0.0,
        Sensor(noise_std=0.0), units="N"))
    return specimen, staging, daq


def build_most(config: MOSTConfig | None = None) -> MOSTDeployment:
    """Construct the full MOST deployment; nothing is running yet."""
    config = config or MOSTConfig()
    kernel = Kernel()
    network = Network(kernel, seed=config.network_seed)
    for host in ("coord", "uiuc", "cu", "ncsa", "repo", "portal"):
        network.add_host(host)
    # Coordinator at UIUC; NCSA and the repository share the Urbana campus;
    # CU is across the WAN.  Star topology from the coordinator plus the
    # repo links the uploaders need.
    network.connect("coord", "uiuc", latency=config.latency_uiuc,
                    jitter=config.jitter)
    network.connect("coord", "ncsa", latency=config.latency_ncsa,
                    jitter=config.jitter)
    network.connect("coord", "cu", latency=config.latency_cu,
                    jitter=config.jitter)
    network.connect("uiuc", "repo", latency=config.latency_ncsa)
    network.connect("cu", "repo", latency=config.latency_cu)
    network.connect("ncsa", "repo", latency=0.001)
    # The coordinator writes experiment checkpoints into the repository;
    # this link is distinct from the coordinator-site links, so an outage
    # that kills a step usually leaves the abort-time checkpoint reachable.
    network.connect("coord", "repo", latency=config.latency_ncsa)
    network.connect("portal", "repo", latency=0.02)
    network.connect("coord", "portal", latency=0.02)

    motion = kanai_tajimi_record(
        duration=config.n_steps * config.dt, dt=config.dt, pga=config.pga,
        seed=config.motion_seed)
    model = StructuralModel(
        mass=[[config.mass]], stiffness=[[config.k_total]]
    ).with_rayleigh_damping(config.damping_ratio)

    dep = MOSTDeployment(
        config=config, kernel=kernel, network=network,
        faults=FaultInjector(network), motion=motion, model=model,
        sites={}, coordinator_rpc=None, ntcp_client=None,  # type: ignore
        repo_store=RepositoryFileStore(), nmds=NMDSService(),
        nfms=NFMSService(), chef=ChefWorksite())

    policy = (_SitePolicy()
              .limit("set-displacement", "value",
                     minimum=-config.actuator_stroke,
                     maximum=config.actuator_stroke))

    # ---- UIUC: Shore-Western ------------------------------------------------
    uiuc_container = ServiceContainer(network, "uiuc")
    uiuc_spec, uiuc_staging, uiuc_daq = _physical_site(
        dep, "uiuc", "uiuc", config, config.k_uiuc, config.seeds["uiuc"])
    uiuc_controller = ShoreWesternController({0: uiuc_spec})
    uiuc_server = NTCPServer("ntcp-uiuc", ShoreWesternPlugin(
        uiuc_controller, link_delay=0.002, policy=policy))
    uiuc_handle = uiuc_container.deploy(uiuc_server)
    uiuc_nsds = NSDSService("nsds-uiuc")
    uiuc_container.deploy(uiuc_nsds)
    uiuc_daq.on_sample(uiuc_nsds.ingest)
    uiuc_camera = CameraService("camera-uiuc")
    uiuc_container.deploy(uiuc_camera)
    dep.sites["uiuc"] = SiteDeployment(
        name="uiuc", container=uiuc_container, server=uiuc_server,
        handle=uiuc_handle, specimen=uiuc_spec, daq=uiuc_daq,
        staging=uiuc_staging, nsds=uiuc_nsds, camera=uiuc_camera)
    dep.extras["uiuc_controller"] = uiuc_controller

    # ---- NCSA: MPlugin + Matlab simulation ----------------------------------
    ncsa_container = ServiceContainer(network, "ncsa")
    ncsa_plugin = MPlugin(policy=policy)
    ncsa_backend = MatlabBackend(
        ncsa_plugin, LinearSubstructure("ncsa-middle", [[config.k_ncsa]], [0]),
        poll_interval=config.poll_interval, compute_time=config.ncsa_compute)
    ncsa_server = NTCPServer("ntcp-ncsa", ncsa_plugin)
    ncsa_handle = ncsa_container.deploy(ncsa_server)
    dep.sites["ncsa"] = SiteDeployment(
        name="ncsa", container=ncsa_container, server=ncsa_server,
        handle=ncsa_handle, backend=ncsa_backend)

    # ---- CU: MPlugin + Matlab + xPC target -----------------------------------
    cu_container = ServiceContainer(network, "cu")
    cu_spec, cu_staging, cu_daq = _physical_site(
        dep, "cu", "cu", config, config.k_cu, config.seeds["cu"])
    cu_plugin = MPlugin(policy=policy)
    cu_target = XPCTarget({0: cu_spec}, comm_latency=config.xpc_comm)
    cu_backend = XPCBackend(cu_plugin, cu_target,
                            poll_interval=config.poll_interval)
    cu_server = NTCPServer("ntcp-cu", cu_plugin)
    cu_handle = cu_container.deploy(cu_server)
    cu_nsds = NSDSService("nsds-cu")
    cu_container.deploy(cu_nsds)
    cu_daq.on_sample(cu_nsds.ingest)
    cu_camera = CameraService("camera-cu")
    cu_container.deploy(cu_camera)
    dep.sites["cu"] = SiteDeployment(
        name="cu", container=cu_container, server=cu_server,
        handle=cu_handle, specimen=cu_spec, backend=cu_backend, daq=cu_daq,
        staging=cu_staging, nsds=cu_nsds, camera=cu_camera)
    dep.extras["cu_target"] = cu_target

    # ---- repository + portal ----------------------------------------------------
    repo_container = ServiceContainer(network, "repo")
    repo_container.deploy(dep.nmds)
    repo_container.deploy(dep.nfms)
    dep.nfms.install_transport("gridftp")
    dep.nfms.install_transport("https")
    for name in ("uiuc", "cu"):
        site = dep.sites[name]
        site_rpc = RpcClient(network, name, default_timeout=30.0,
                             default_retries=2)
        site.ingest = IngestionTool(
            dep.make_facade(site_rpc, staging=site.staging),
            experiment="most", sweep_interval=config.ingest_interval)
    portal_container = ServiceContainer(network, "portal")
    portal_container.deploy(dep.chef)
    # Telepresence referral (TR 2003-09): the portal's directory of what a
    # remote participant can watch — the CHEF "Video buttons" render this.
    referral = ReferralService("referral-most")
    portal_container.deploy(referral)
    referral._op_register(None, experiment="most", kind="worksite",
                          label="MOST collaboration worksite",
                          handle=str(GridServiceHandle(
                              "portal", "ogsi", dep.chef.service_id)),
                          site="portal")
    referral._op_register(None, experiment="most", kind="repository",
                          label="MOST data and metadata repository",
                          handle=str(dep.nmds.handle), site="repo")
    for name in ("uiuc", "cu"):
        site = dep.sites[name]
        referral._op_register(
            None, experiment="most", kind="camera",
            label=f"{name.upper()} laboratory camera",
            handle=str(GridServiceHandle(name, "ogsi",
                                         site.camera.service_id)),
            site=name)
        referral._op_register(
            None, experiment="most", kind="stream",
            label=f"{name.upper()} structural response stream",
            handle=str(GridServiceHandle(name, "ogsi",
                                         site.nsds.service_id)),
            site=name)
    dep.extras["referral"] = referral
    dep.extras["https_bridge"] = HttpsBridgeTransport(network)

    # ---- coordinator client -------------------------------------------------------
    dep.coordinator_rpc = RpcClient(network, "coord",
                                    default_timeout=config.rpc_timeout,
                                    default_retries=config.rpc_retries)
    dep.ntcp_client = NTCPClient(dep.coordinator_rpc,
                                 timeout=config.rpc_timeout,
                                 retries=config.rpc_retries)
    return dep


def provision_simulation_site(site: SiteDeployment, kernel: Kernel,
                              substructure: LinearSubstructure, *,
                              compute_time: float = 1.0,
                              policy: Any = None) -> SimulationPlugin:
    """Put a fresh :class:`SimulationPlugin` behind ``site``'s NTCP server.

    The swap happens behind the *same* server and grid handle, so a
    coordinator cannot tell the difference — the paper's "the use of NTCP
    made this substitution transparent".  Both the simulation-only
    rehearsal and the fleet's per-lease site provisioning go through
    here: a lease always gets brand-new substructure state, so nothing
    numerical leaks from one tenant's run into the next.
    """
    sim = SimulationPlugin(substructure, compute_time=compute_time,
                           policy=(policy if policy is not None
                                   else getattr(site.server.plugin,
                                                "policy", None)))
    site.server.plugin = sim
    sim.attach(kernel, site=site.server.service_id)
    site.server.service_data.set("plugin", sim.plugin_type)
    return sim


def build_simulation_only(config: MOSTConfig | None = None) -> MOSTDeployment:
    """The incremental-development variant: all three sites are simulations.

    "First, we implemented and tested a distributed simulation-only
    experiment.  Once the correctness of the distributed simulation was
    verified, two of the numerical simulations were replaced with physical
    substructures.  The use of NTCP made this substitution transparent to
    the coordinator."  Everything (hosts, links, coordinator) is identical
    to :func:`build_most` except the plugins behind the NTCP servers.
    """
    config = config or MOSTConfig()
    dep = build_most(config)
    for name in ("uiuc", "cu"):
        site = dep.sites[name]
        provision_simulation_site(
            site, dep.kernel,
            LinearSubstructure(f"{name}-sim",
                               [[config.site_stiffness[name]]], [0]),
            compute_time=config.ncsa_compute)
        site.specimen = None
        site.backend = None
    return dep
