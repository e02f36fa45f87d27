"""Invariance properties tying the whole stack together.

The deepest correctness claim of the architecture: *the physics of a
coordinated experiment is independent of the network* (latency, jitter,
transient faults) — the grid layer affects only when things happen, never
what is measured.  These tests pin that down, plus full-scale determinism.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import SimulationPlugin
from repro.coordinator import (
    FaultTolerantFaultPolicy,
    SimulationCoordinator,
    SiteBinding,
)
from repro.core import NTCPClient, NTCPServer
from repro.net import Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import GroundMotion, LinearSubstructure, StructuralModel


def run_with_network(latency, jitter, *, seed=0, n_steps=40):
    k = Kernel()
    net = Network(k, seed=seed)
    net.add_host("coord")
    handles = {}
    for name, kk in (("a", 60.0), ("b", 40.0)):
        net.add_host(name)
        net.connect("coord", name, latency=latency, jitter=jitter)
        c = ServiceContainer(net, name)
        handles[name] = c.deploy(NTCPServer(f"ntcp-{name}", SimulationPlugin(
            LinearSubstructure(name, [[kk]], [0]), compute_time=0.05)))
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(n_steps) * 0.1))
    client = NTCPClient(RpcClient(net, "coord", default_timeout=60.0,
                                  default_retries=3), timeout=60.0,
                        retries=3)
    coord = SimulationCoordinator(
        run_id="inv", client=client, model=model, motion=motion,
        sites=[SiteBinding(n, handles[n], [0]) for n in handles],
        fault_policy=FaultTolerantFaultPolicy())
    result = k.run(until=k.process(coord.run()))
    assert result.completed
    return result


class TestNetworkInvariance:
    @given(latency=st.floats(min_value=0.001, max_value=0.5),
           jitter=st.floats(min_value=0.0, max_value=0.1),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_physics_independent_of_network(self, latency, jitter, seed):
        """Any latency/jitter/seed: identical displacement history."""
        baseline = run_with_network(0.001, 0.0)
        varied = run_with_network(latency, jitter, seed=seed)
        assert np.allclose(baseline.displacement_history(),
                           varied.displacement_history())

    def test_wall_time_does_depend_on_network(self):
        fast = run_with_network(0.001, 0.0)
        slow = run_with_network(0.3, 0.0)
        assert slow.wall_duration > 2 * fast.wall_duration


class TestFullScaleDeterminism:
    def test_public_run_fails_at_1493_reproducibly(self):
        """The headline number, at full scale, twice."""
        from repro.most import ExperimentSession, MOSTConfig

        def run_public():
            return (ExperimentSession(MOSTConfig(), run_id="most-public")
                    .with_observers()
                    .with_faults()
                    .run())

        first = run_public()
        second = run_public()
        assert first.result.aborted_at_step == 1493
        assert second.result.aborted_at_step == 1493
        assert first.result.steps_completed == second.result.steps_completed
        assert np.array_equal(first.result.displacement_history(),
                              second.result.displacement_history())
