"""Building and running the Mini-MOST rig."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.control import LabVIEWPlugin, StepperMotor
from repro.coordinator import (
    FaultPolicy,
    NaiveFaultPolicy,
    SimulationCoordinator,
    SiteBinding,
)
from repro.core import NTCPClient, NTCPServer
from repro.core.policy import SitePolicy
from repro.daq import DAQSystem, SensorChannel, StagingStore
from repro.grid import Grid
from repro.mini_most.beam import BeamProperties, FirstOrderKineticBeam
from repro.net import Network
from repro.sim import Kernel
from repro.structural import StructuralModel, kanai_tajimi_record
from repro.structural.elements import LinearSpring
from repro.structural.specimen import Sensor


@dataclass
class MiniMOSTConfig:
    """Mini-MOST constants — the paper's "small changes to the MATLAB code
    to accommodate these differences" (mass, spring constant, inertia...)."""

    beam: BeamProperties = field(default_factory=BeamProperties)
    damping_ratio: float = 0.02
    n_steps: int = 200
    dt: float = 0.02
    pga: float = 0.5             # m/s^2 — tabletop-scale shaking
    motion_seed: int = 7
    step_size: float = 5e-5      # m per motor step
    step_rate: float = 400.0     # steps/s
    max_travel: float = 0.02     # m
    daq_read_time: float = 0.05
    # Kinetic relaxation per command: a lagging restoring force acts like
    # negative damping in a PSD loop, so the rate is kept high enough that
    # the simulator tracks the elastic rig instead of blowing up.
    kinetic_rate: float = 0.9
    rpc_timeout: float = 30.0
    execution_timeout: float = 60.0


@dataclass
class MiniMOSTDeployment:
    """The single-PC deployment: everything on host ``pc``."""

    config: MiniMOSTConfig
    kernel: Kernel
    network: Network
    server: NTCPServer
    motor: StepperMotor
    element: Any
    daq: DAQSystem
    staging: StagingStore
    client: NTCPClient
    coordinator: SimulationCoordinator


def build_mini_most(config: MiniMOSTConfig | None = None, *,
                    use_kinetic_simulator: bool = False,
                    fault_policy: FaultPolicy | None = None,
                    ) -> MiniMOSTDeployment:
    """Wire the tabletop rig (optionally with the beam replaced by the
    first-order kinetic simulator) and its coordinator, all on one PC."""
    config = config or MiniMOSTConfig()
    grid = Grid.star(hub="pc")
    kernel = grid.kernel

    k_beam = config.beam.stiffness
    element = (FirstOrderKineticBeam(k_beam, rate=config.kinetic_rate)
               if use_kinetic_simulator else LinearSpring(k_beam))
    motor = StepperMotor(step_size=config.step_size,
                         step_rate=config.step_rate,
                         max_travel=config.max_travel)
    policy = SitePolicy().limit("set-displacement", "value",
                                minimum=-config.max_travel,
                                maximum=config.max_travel)
    plugin = LabVIEWPlugin({0: (motor, element)},
                           daq_read_time=config.daq_read_time, policy=policy)
    site = grid.add_site("pc", plugin, latency=0.0,
                         service_id="ntcp-minimost")

    staging = StagingStore("minimost-staging")
    daq = DAQSystem("pc", kernel, staging, sample_interval=1.0,
                    block_size=30)
    daq.add_channel(SensorChannel("beam-position", lambda: motor.position,
                                  Sensor(noise_std=1e-6), units="m"))
    daq.add_channel(SensorChannel(
        "beam-strain", lambda: motor.position / config.beam.length,
        Sensor(gain=1e3, noise_std=1e-4), units="ustrain"))

    motion = kanai_tajimi_record(duration=config.n_steps * config.dt,
                                 dt=config.dt, pga=config.pga,
                                 seed=config.motion_seed)
    model = StructuralModel(
        mass=[[config.beam.tip_mass]], stiffness=[[k_beam]]
    ).with_rayleigh_damping(config.damping_ratio)

    client = grid.client(timeout=config.rpc_timeout, retries=2)
    coordinator = SimulationCoordinator(
        run_id="minimost", client=client, model=model, motion=motion,
        sites=[SiteBinding("beam", site.handle, dof_indices=[0])],
        fault_policy=fault_policy or NaiveFaultPolicy(),
        execution_timeout=config.execution_timeout)
    return MiniMOSTDeployment(config=config, kernel=kernel,
                              network=grid.network, server=site.server,
                              motor=motor, element=element,
                              daq=daq, staging=staging, client=client,
                              coordinator=coordinator)


def run_mini_most(config: MiniMOSTConfig | None = None, *,
                  use_kinetic_simulator: bool = False):
    """Build, run to completion, return ``(result, deployment)``."""
    dep = build_mini_most(config, use_kinetic_simulator=use_kinetic_simulator)
    dep.daq.start()
    result = dep.kernel.run(until=dep.kernel.process(dep.coordinator.run()))
    dep.daq.stop()
    return result, dep
