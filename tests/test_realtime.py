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

    def test_a_diverging_integrator_aborts_the_run(self):
        """Real time inherits the base loop's INTEGRATE: a site far past
        the central-difference stability limit (omega * dt = 200) ends
        the run aborted, not integrating non-finite commands."""
        grid = Grid.star()
        grid.add_simulation_sites({"a": 1e8}, latency=0.005,
                                  compute_time=0.01)
        rt = RealTimeCoordinator(
            run_id="rt", client=grid.client(timeout=100.0, retries=0),
            model=StructuralModel(mass=[[1.0]], stiffness=[[1e8]]),
            motion=GroundMotion(dt=0.02,
                                accel=np.sin(np.arange(120) * 0.1)),
            sites=grid.bindings(), period=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            result = grid.run(rt.run())
        assert not result.completed
        assert result.aborted_reason.startswith("integrator diverged")
        assert result.steps_completed == result.aborted_at_step - 1


def trt_build():
    """The T-RT rig (``benchmarks/bench_trt_realtime.py``): two simulated
    sites answering in 80 ms, 150 steps of a 20 ms record."""
    grid = Grid.star()
    grid.add_simulation_sites({"a": 60.0, "b": 40.0}, latency=0.005,
                              compute_time=0.08)
    return grid, dict(
        client=grid.client(timeout=100.0, retries=0),
        model=StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                              damping=[[1.0]]),
        motion=GroundMotion(dt=0.02, accel=np.sin(np.arange(150) * 0.1)),
        sites=grid.bindings())


#: period -> (predicted %, skipped dispatches, rms error / peak), the
#: T-RT table's rows to 3 decimals (the bench prints % to 0 decimals)
TRT_ROWS = {0.5: (0.0, 0, 0.0), 0.2: (0.0, 0, 0.0),
            0.1: (20.134, 60, 0.092), 0.05: (63.758, 188, 0.609),
            0.02: (83.893, 248, 54.619)}


def test_trt_table_is_pinned():
    grid, rig_args = trt_build()
    d_ref = grid.run(SimulationCoordinator(
        run_id="ref", **rig_args).run()).displacement_history().ravel()
    scale = float(np.max(np.abs(d_ref)))
    rows = {}
    for period in TRT_ROWS:
        grid, rig_args = trt_build()
        rt = RealTimeCoordinator(run_id="rt", period=period, **rig_args)
        d = grid.run(rt.run()).displacement_history().ravel()
        n = min(len(d), len(d_ref))
        rms = float(np.sqrt(np.mean((d[:n] - d_ref[:n]) ** 2))) / scale
        rows[period] = (round(100 * rt.stats.prediction_fraction, 3),
                        rt.stats.skipped_dispatches, round(rms, 3))
    assert rows == TRT_ROWS
