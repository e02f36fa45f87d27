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
    SubstructurePredictor,
)
from repro.core import NTCPClient
from repro.core.policy import SitePolicy as _SitePolicy
from repro.daq import DAQSystem, SensorChannel, StagingStore
from repro.daq.filestore import RepositoryFileStore
from repro.grid import Grid, SiteDeployment, single_dof
from repro.most.config import MOSTConfig
from repro.net import BreakerConfig, RpcClient
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


@dataclass(kw_only=True)
class MOSTDeployment(Grid):
    """The assembled experiment, ready for a scenario to drive: the
    :class:`~repro.grid.Grid` of three sites plus the data plane."""

    config: MOSTConfig
    motion: GroundMotion
    model: StructuralModel
    repo_store: RepositoryFileStore
    nmds: NMDSService
    nfms: NFMSService
    chef: ChefWorksite
    #: created last in :func:`build_most`, after every site-side client
    ntcp_client: NTCPClient = field(init=False)
    extras: dict = field(default_factory=dict)

    @property
    def coordinator_rpc(self) -> RpcClient:
        """The RPC client under :attr:`ntcp_client`."""
        return self.ntcp_client.rpc

    def make_coordinator(self, *, run_id: str, variants=None,
                         **options) -> SimulationCoordinator:
        """A coordinator bound to the three sites (Figure 5).

        ``options`` go to :class:`SimulationCoordinator` untouched — its
        signature is the one list of coordinator options (checkpointing,
        resume ``state``/``prior_records`` from
        :func:`~repro.coordinator.state.load_resume`, ``failover`` from
        :meth:`make_failover`, pipelining with a ``predictor`` from
        :meth:`make_predictor`).  With ``variants`` (N
        ground-motion records on a shared time grid) the result is an
        :class:`EnsembleCoordinator` stepping them all at once, and the
        deployment's own ``motion`` is ignored.
        """
        options = dict(
            run_id=run_id, client=self.ntcp_client, model=self.model,
            sites=self.bindings(),
            execution_timeout=self.config.execution_timeout, **options)
        if variants is not None:
            return EnsembleCoordinator(variants=variants, **options)
        return SimulationCoordinator(motion=self.motion, **options)

    def _design_stiffness(self) -> dict[str, float]:
        """Design stiffness of each deployed site, in site-name order."""
        return {name: k
                for name, k in sorted(self.config.site_stiffness.items())
                if name in self.sites}

    def make_predictor(self) -> SubstructurePredictor:
        """A force predictor for pipelined stepping, one model per site.

        Each site gets its *design* substructure — exactly what the
        simulation-only deployment evaluates, so speculation there is
        bit-exact and never rolls back; against physical specimens the
        prediction is only the nominal linear response, and a speculation
        that is not bit-exact with the measurement is rolled back.
        """
        return self.predictor(self._design_stiffness(),
                              name="{}-predictor".format)

    def make_failover(self, *, policy: DegradationPolicy | None = None,
                      breaker_config: BreakerConfig | None = None,
                      ) -> FailoverManager:
        """A failover manager with one circuit breaker (labelled with the
        site's name) and one numerical surrogate per site.

        Each surrogate is a fresh linear substructure built from the
        site's design stiffness — exactly the model the simulation-only
        rehearsal ran — behind the same displacement-limit policy the real
        site enforces, answering as fast as the NCSA simulation.
        """
        return self.failover(
            self._design_stiffness(), port="ogsi-failover",
            compute_time=self.config.ncsa_compute,
            surrogate_name="{}-surrogate".format,
            site_policy=_stroke_policy(self.config),
            breaker_config=breaker_config, policy=policy)

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


def _stroke_policy(config: MOSTConfig) -> _SitePolicy:
    """The facility limit every MOST site (and its surrogate) enforces:
    commanded displacement within the actuator stroke."""
    return (_SitePolicy()
            .limit("set-displacement", "value",
                   minimum=-config.actuator_stroke,
                   maximum=config.actuator_stroke))


def _observe_site(site: SiteDeployment) -> None:
    """A physical site's observation kit: NSDS fed by the DAQ, a camera."""
    site.nsds = NSDSService(f"nsds-{site.name}")
    site.container.deploy(site.nsds)
    site.daq.on_sample(site.nsds.ingest)
    site.camera = CameraService(f"camera-{site.name}")
    site.container.deploy(site.camera)


def build_most(config: MOSTConfig | None = None) -> MOSTDeployment:
    """Construct the full MOST deployment; nothing is running yet."""
    config = config or MOSTConfig()
    motion = kanai_tajimi_record(
        duration=config.n_steps * config.dt, dt=config.dt, pga=config.pga,
        seed=config.motion_seed)
    model = StructuralModel(
        mass=[[config.mass]], stiffness=[[config.k_total]]
    ).with_rayleigh_damping(config.damping_ratio)
    dep = MOSTDeployment.star(
        seed=config.network_seed, config=config, motion=motion, model=model,
        repo_store=RepositoryFileStore(), nmds=NMDSService(),
        nfms=NFMSService(), chef=ChefWorksite())
    network = dep.network
    policy = _stroke_policy(config)
    # Coordinator at UIUC; NCSA and the repository share the Urbana campus;
    # CU is across the WAN.

    # ---- UIUC: Shore-Western ------------------------------------------------
    uiuc_spec, uiuc_staging, uiuc_daq = _physical_site(
        dep, "uiuc", "uiuc", config, config.k_uiuc, config.seeds["uiuc"])
    uiuc_controller = ShoreWesternController({0: uiuc_spec})
    _observe_site(dep.add_site(
        "uiuc", ShoreWesternPlugin(uiuc_controller, link_delay=0.002,
                                   policy=policy),
        latency=config.latency_uiuc, jitter=config.jitter,
        specimen=uiuc_spec, daq=uiuc_daq, staging=uiuc_staging))
    dep.extras["uiuc_controller"] = uiuc_controller

    # ---- NCSA: MPlugin + Matlab simulation ----------------------------------
    ncsa_plugin = MPlugin(policy=policy)
    dep.add_site(
        "ncsa", ncsa_plugin, latency=config.latency_ncsa,
        jitter=config.jitter,
        backend=MatlabBackend(
            ncsa_plugin, single_dof("ncsa-middle", config.k_ncsa),
            poll_interval=config.poll_interval,
            compute_time=config.ncsa_compute))

    # ---- CU: MPlugin + Matlab + xPC target -----------------------------------
    cu_spec, cu_staging, cu_daq = _physical_site(
        dep, "cu", "cu", config, config.k_cu, config.seeds["cu"])
    cu_plugin = MPlugin(policy=policy)
    cu_target = XPCTarget({0: cu_spec}, comm_latency=config.xpc_comm)
    _observe_site(dep.add_site(
        "cu", cu_plugin, latency=config.latency_cu, jitter=config.jitter,
        specimen=cu_spec, daq=cu_daq, staging=cu_staging,
        backend=XPCBackend(cu_plugin, cu_target,
                           poll_interval=config.poll_interval)))
    dep.extras["cu_target"] = cu_target

    # ---- the repo and portal hosts, and the links the uploaders need --------
    network.add_host("repo")
    network.add_host("portal")
    network.connect("uiuc", "repo", latency=config.latency_ncsa)
    network.connect("cu", "repo", latency=config.latency_cu)
    network.connect("ncsa", "repo", latency=0.001)
    # The coordinator writes experiment checkpoints into the repository;
    # this link is distinct from the coordinator-site links, so an outage
    # that kills a step usually leaves the abort-time checkpoint reachable.
    network.connect("coord", "repo", latency=config.latency_ncsa)
    network.connect("portal", "repo", latency=0.02)
    network.connect("coord", "portal", latency=0.02)

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
    dep.ntcp_client = dep.client(timeout=config.rpc_timeout,
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
            single_dof(f"{name}-sim", config.site_stiffness[name]),
            compute_time=config.ncsa_compute)
        site.specimen = None
        site.backend = None
    return dep
