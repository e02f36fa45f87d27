"""Soil-structure interaction experiment (paper §5, RPI/UIUC/Lehigh/NCSA).

"Earthquake engineers at RPI, UIUC and Lehigh University plan to use the
NEESgrid framework to study soil-structure interaction in an experiment
involving two structural sites (UIUC and Lehigh), one geotechnical site
(RPI), and a computational simulation node at NCSA.  The experiment will
focus on an idealized model of the Collector-Distributor 36 of the Santa
Monica Freeway that was damaged in the 1994 Northridge earthquake."

Idealization: a 3-DOF model — DOF 0 is the foundation/soil (tested on the
RPI centrifuge), DOFs 1 and 2 are two bridge piers (tested at UIUC and
Lehigh) — coupled by the deck, which NCSA simulates as a stiffness matrix
across all three DOFs.  The new framework element is the
:class:`CentrifugePlugin`: a geotechnical centrifuge tests a 1/N scale
model at N g, so prototype displacements map to model scale divided by N
and model forces map to prototype scale multiplied by N² (standard
centrifuge similitude) — the plugin owns that conversion, invisibly to the
coordinator, exactly the heterogeneity NTCP was designed to hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.control.actions import displacement_targets
from repro.control.shore_western import ShoreWesternController, ShoreWesternPlugin
from repro.control.sim_plugin import SimulationPlugin
from repro.coordinator import FaultTolerantFaultPolicy, SimulationCoordinator
from repro.core import NTCPServer
from repro.core.messages import Proposal
from repro.core.plugin import ControlPlugin
from repro.core.policy import SitePolicy
from repro.grid import Grid
from repro.net import Network
from repro.sim import Kernel
from repro.structural import (
    BilinearSpring,
    LinearSubstructure,
    PhysicalSpecimen,
    StructuralModel,
    kanai_tajimi_record,
)
from repro.structural.specimen import Actuator, Sensor


class CentrifugePlugin(ControlPlugin):
    """NTCP plugin for a geotechnical centrifuge site.

    The coordinator speaks prototype-scale units; the plugin converts to
    model scale (÷N for displacement), drives the in-flight model package,
    and converts measured forces back to prototype scale (×N²).  Proposal
    review checks the *model-scale* stroke, since that is the physical
    limit of the in-flight actuator.
    """

    plugin_type = "centrifuge"

    def __init__(self, specimen: PhysicalSpecimen, *, scale: float = 50.0,
                 spin_up_check: bool = True,
                 policy: SitePolicy | None = None):
        super().__init__(policy=policy)
        self.specimen = specimen
        self.scale = scale
        self.at_speed = not spin_up_check
        self.moves = 0

    def spin_up(self) -> None:
        """Bring the centrifuge to N g (required before any motion)."""
        self.at_speed = True

    def review(self, proposal: Proposal) -> None:
        from repro.util.errors import PolicyViolation

        self.policy.check(proposal.actions)
        if not self.at_speed:
            raise PolicyViolation(
                "centrifuge is not at speed; refusing motion commands")
        for dof, proto_disp in displacement_targets(proposal.actions).items():
            self.specimen.check(proto_disp / self.scale)

    def execute(self, proposal: Proposal):
        readings = {"displacements": {}, "forces": {}, "settle_time": 0.0}
        for dof, proto_disp in displacement_targets(proposal.actions).items():
            model_disp = proto_disp / self.scale
            m = self.specimen.apply(model_disp)
            yield self.kernel.timeout(m.settle_time)
            readings["displacements"][dof] = m.achieved * self.scale
            readings["forces"][dof] = m.force * self.scale ** 2
            readings["settle_time"] += m.settle_time
            self.moves += 1
        return readings


@dataclass
class SoilStructureConfig:
    """Constants for the CD-36 idealization."""

    # prototype-scale masses [kg]: foundation block, two pier tributary
    masses: tuple = (2.0e5, 8.0e4, 8.0e4)
    k_soil: float = 4.0e7        # N/m — soil/foundation (RPI, prototype)
    k_pier: float = 2.5e7        # N/m — each pier (UIUC, Lehigh)
    k_deck: float = 1.5e7        # N/m — deck coupling (NCSA simulation)
    pier_yield: float = 6.0e5    # N
    damping_ratio: float = 0.05
    centrifuge_scale: float = 50.0
    n_steps: int = 200
    dt: float = 0.02
    pga: float = 4.0             # m/s^2 — Northridge-class shaking
    motion_seed: int = 1994      # Northridge
    settle_min: float = 2.0
    compute_time: float = 0.3


@dataclass
class SoilStructureRig:
    """The assembled four-site experiment."""

    config: SoilStructureConfig
    kernel: Kernel
    network: Network
    coordinator: SimulationCoordinator
    centrifuge: CentrifugePlugin
    piers: dict[str, PhysicalSpecimen]
    deck: LinearSubstructure
    servers: dict[str, NTCPServer] = field(default_factory=dict)


def deck_coupling_matrix(k_deck: float) -> np.ndarray:
    """The NCSA-simulated deck: couples foundation and both piers.

    Spring k_deck between DOF0-DOF1 and DOF1-DOF2 (foundation → pier A →
    pier B along the collector-distributor), assembled as a standard
    2-spring chain stiffness matrix.
    """
    k = k_deck
    return np.array([[k, -k, 0.0],
                     [-k, 2 * k, -k],
                     [0.0, -k, k]])


def build_soil_structure(config: SoilStructureConfig | None = None
                         ) -> SoilStructureRig:
    config = config or SoilStructureConfig()
    grid = Grid.star(seed=36)  # CD-36

    # RPI: centrifuge with the soil/foundation model package.
    # Model-scale stiffness: prototype k scales by 1/N (k_model = k_proto/N).
    n = config.centrifuge_scale
    soil_model = PhysicalSpecimen(
        "soil-package",
        BilinearSpring(k=config.k_soil / n, fy=config.k_soil / n * 0.004,
                       alpha=0.3),
        actuator=Actuator(min_settle=config.settle_min, max_rate=0.005,
                          max_stroke=0.01, tracking_std=1e-6),
        lvdt=Sensor(noise_std=1e-6), load_cell=Sensor(noise_std=2.0),
        seed=41)
    centrifuge = CentrifugePlugin(soil_model, scale=n)
    grid.add_site("rpi", centrifuge, latency=0.018)

    # UIUC and Lehigh: pier columns on servo-hydraulics.
    piers: dict[str, PhysicalSpecimen] = {}
    for i, (host, latency) in enumerate((("uiuc", 0.012),
                                         ("lehigh", 0.020))):
        spec = PhysicalSpecimen(
            f"{host}-pier",
            BilinearSpring(k=config.k_pier, fy=config.pier_yield, alpha=0.1),
            actuator=Actuator(min_settle=config.settle_min,
                              max_stroke=0.15, tracking_std=2e-5),
            lvdt=Sensor(noise_std=1e-5), load_cell=Sensor(noise_std=100.0),
            seed=42 + i)
        piers[host] = spec
        grid.add_site(host, ShoreWesternPlugin(
            ShoreWesternController({0: spec})), latency=latency)

    # NCSA: the simulated deck coupling all three DOFs.
    deck = LinearSubstructure("deck", deck_coupling_matrix(config.k_deck),
                              dof_indices=[0, 1, 2])
    grid.add_site("ncsa", SimulationPlugin(
        deck, compute_time=config.compute_time), latency=0.012)

    model = StructuralModel(
        mass=np.diag(config.masses),
        stiffness=(np.diag([config.k_soil, config.k_pier, config.k_pier])
                   + deck_coupling_matrix(config.k_deck))
    ).with_rayleigh_damping(config.damping_ratio)
    motion = kanai_tajimi_record(duration=config.n_steps * config.dt,
                                 dt=config.dt, pga=config.pga,
                                 seed=config.motion_seed)
    coordinator = SimulationCoordinator(
        run_id="cd36", client=grid.client(timeout=30.0, retries=3),
        model=model, motion=motion,
        sites=grid.bindings({"rpi": [0], "uiuc": [1], "lehigh": [2],
                             "ncsa": [0, 1, 2]}),
        fault_policy=FaultTolerantFaultPolicy(max_attempts=5, backoff=5.0),
        execution_timeout=120.0)
    return SoilStructureRig(
        config=config, kernel=grid.kernel, network=grid.network,
        coordinator=coordinator, centrifuge=centrifuge, piers=piers,
        deck=deck,
        servers={name: site.server for name, site in grid.sites.items()})


def run_soil_structure_experiment(config: SoilStructureConfig | None = None):
    """Spin up the centrifuge and run the coupled test; returns
    ``(result, rig)``."""
    rig = build_soil_structure(config)
    rig.centrifuge.spin_up()
    result = rig.kernel.run(until=rig.kernel.process(rig.coordinator.run()))
    return result, rig
