"""Tests for the §5 near-real-time coordinator."""

import numpy as np
import pytest

from repro.control import SimulationPlugin
from repro.coordinator import (
    RealTimeCoordinator,
    SimulationCoordinator,
    SiteBinding,
)
from repro.core import NTCPClient, NTCPServer
from repro.grid import ChaosEvent, Grid
from repro.net import Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import GroundMotion, LinearSubstructure, StructuralModel
from repro.util.errors import ConfigurationError


def rig(backend_time, *, n_steps=120, seed=0):
    k = Kernel()
    net = Network(k, seed=seed)
    net.add_host("coord")
    handles = {}
    for name, kk in (("a", 60.0), ("b", 40.0)):
        net.add_host(name)
        net.connect("coord", name, latency=0.005)
        c = ServiceContainer(net, name)
        handles[name] = c.deploy(NTCPServer(f"ntcp-{name}", SimulationPlugin(
            LinearSubstructure(name, [[kk]], [0]),
            compute_time=backend_time)))
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(n_steps) * 0.1))
    client = NTCPClient(RpcClient(net, "coord", default_timeout=100.0),
                        timeout=100.0, retries=0)
    sites = [SiteBinding(n, handles[n], [0]) for n in handles]
    return k, client, model, motion, sites


def reference_trace(n_steps=120):
    k, client, model, motion, sites = rig(0.01, n_steps=n_steps)
    coord = SimulationCoordinator(run_id="ref", client=client, model=model,
                                  motion=motion, sites=sites)
    result = k.run(until=k.process(coord.run()))
    return result.displacement_history().ravel()


class TestRealTimeCoordinator:
    def test_generous_period_is_exact(self):
        d_ref = reference_trace()
        k, client, model, motion, sites = rig(0.01)
        rt = RealTimeCoordinator(run_id="rt", client=client, model=model,
                                 motion=motion, sites=sites, period=0.5)
        result = k.run(until=k.process(rt.run()))
        assert result.completed
        assert rt.stats.prediction_fraction == 0.0
        assert rt.stats.skipped_dispatches == 0
        assert np.allclose(result.displacement_history().ravel(), d_ref)

    def test_fixed_period_pacing(self):
        k, client, model, motion, sites = rig(0.01, n_steps=50)
        rt = RealTimeCoordinator(run_id="rt", client=client, model=model,
                                 motion=motion, sites=sites, period=0.25)
        result = k.run(until=k.process(rt.run()))
        durations = result.step_durations()
        assert np.allclose(durations, 0.25)

    def test_aggressive_period_predicts_but_stays_bounded(self):
        d_ref = reference_trace()
        k, client, model, motion, sites = rig(0.08)
        rt = RealTimeCoordinator(run_id="rt", client=client, model=model,
                                 motion=motion, sites=sites, period=0.05)
        result = k.run(until=k.process(rt.run()))
        assert result.completed
        assert rt.stats.prediction_fraction > 0.2
        assert rt.stats.skipped_dispatches > 0
        peak = float(np.max(np.abs(result.displacement_history())))
        assert peak < 10 * float(np.max(np.abs(d_ref)))  # degraded, not
        # divergent

    def test_faster_period_is_faster_wall_clock(self):
        walls = []
        for period in (0.5, 0.1):
            k, client, model, motion, sites = rig(0.01)
            rt = RealTimeCoordinator(run_id="rt", client=client,
                                     model=model, motion=motion,
                                     sites=sites, period=period)
            result = k.run(until=k.process(rt.run()))
            walls.append(result.wall_duration)
        assert walls[1] < walls[0] / 3

    def test_prediction_accounting_per_site(self):
        k, client, model, motion, sites = rig(0.08, n_steps=60)
        rt = RealTimeCoordinator(run_id="rt", client=client, model=model,
                                 motion=motion, sites=sites, period=0.05)
        k.run(until=k.process(rt.run()))
        assert set(rt.stats.site_predictions) == {"a", "b"}
        assert sum(rt.stats.site_predictions.values()) == \
            rt.stats.predicted_forces

    def test_a_scripted_fault_hits_a_real_time_step(self):
        """Real-time transactions carry the step marker ``Grid.arm``
        watches for, so an armed drop lands on its step."""
        grid = Grid.star()
        grid.add_simulation_sites({"a": 60.0, "b": 40.0}, latency=0.005,
                                  compute_time=0.01)
        grid.arm(ChaosEvent("transient_drop", 10, "a"))
        rt = RealTimeCoordinator(
            run_id="rt", client=grid.client(timeout=100.0, retries=0),
            model=StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                                  damping=[[1.0]]),
            motion=GroundMotion(dt=0.02,
                                accel=np.sin(np.arange(60) * 0.1)),
            sites=grid.bindings(), period=0.5)
        assert grid.run(rt.run()).completed
        assert grid.network.stats["dropped"] == 1

    def test_invalid_period_rejected(self):
        k, client, model, motion, sites = rig(0.01)
        with pytest.raises(ConfigurationError):
            RealTimeCoordinator(run_id="rt", client=client, model=model,
                                motion=motion, sites=sites, period=0.0)

    def test_dof_coverage_checked(self):
        k, client, model, motion, sites = rig(0.01)
        two_dof = StructuralModel(mass=np.eye(2), stiffness=np.eye(2) * 10)
        with pytest.raises(ConfigurationError, match="cover"):
            RealTimeCoordinator(run_id="rt", client=client, model=two_dof,
                                motion=motion, sites=sites, period=0.1)
