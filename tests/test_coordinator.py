"""Tests for the MS-PSDS simulation coordinator."""

import numpy as np
import pytest

from repro.control import SimulationPlugin
from repro.coordinator import (
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
    SimulationCoordinator,
    SiteBinding,
)
from repro.core import NTCPClient, NTCPServer
from repro.core.policy import SitePolicy
from repro.net import FaultInjector, Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.structural import (
    CentralDifferencePSD,
    GroundMotion,
    LinearSubstructure,
    StructuralModel,
    el_centro_like,
)
from repro.util.errors import ConfigurationError


def build_three_site_rig(*, n_steps=80, dt=0.02, compute_time=0.05,
                         latency=0.01, policies=None, seed=0):
    """Coordinator + three simulation sites restraining one shared DOF."""
    k = Kernel()
    net = Network(k, seed=seed)
    net.add_host("coord")
    stiffs = {"uiuc": 30.0, "ncsa": 40.0, "cu": 30.0}
    handles = {}
    servers = {}
    for name, kk in stiffs.items():
        net.add_host(name)
        net.connect("coord", name, latency=latency)
        container = ServiceContainer(net, name)
        plugin = SimulationPlugin(
            LinearSubstructure(name, [[kk]], [0]),
            compute_time=compute_time,
            policy=(policies or {}).get(name, SitePolicy()))
        server = NTCPServer(f"ntcp-{name}", plugin)
        handles[name] = container.deploy(server)
        servers[name] = server
    model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]]
                            ).with_rayleigh_damping(0.05)
    motion = el_centro_like(duration=n_steps * dt, dt=dt).scaled_to_pga(1.0)
    rpc = RpcClient(net, "coord", default_timeout=10.0, default_retries=3)
    client = NTCPClient(rpc, timeout=10.0, retries=3)
    sites = [SiteBinding(name, handles[name], [0]) for name in stiffs]
    return k, net, model, motion, client, sites, servers


class TestHappyPath:
    def test_completes_and_matches_local_psd(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig()
        coord = SimulationCoordinator(
            run_id="t", client=client, model=model, motion=motion,
            sites=sites)
        result = k.run(until=k.process(coord.run()))
        assert result.completed
        assert result.steps_completed == motion.n_steps - 1

        # The distributed run must equal a purely local PSD integration of
        # the same assembled stiffness (all substructures are exact).
        local = CentralDifferencePSD(model, motion.dt).integrate(
            motion, restoring=lambda d: 100.0 * d)
        d_remote = result.displacement_history().ravel()
        d_local = np.array([r.displacement[0] for r in local])
        assert np.allclose(d_remote, d_local, atol=1e-12)

    def test_forces_assembled_from_all_sites(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            n_steps=20)
        coord = SimulationCoordinator(run_id="t", client=client, model=model,
                                      motion=motion, sites=sites)
        result = k.run(until=k.process(coord.run()))
        rec = result.steps[-1]
        d = rec.displacement[0]
        assert rec.site_forces["uiuc"][0] == pytest.approx(30.0 * d)
        assert rec.site_forces["ncsa"][0] == pytest.approx(40.0 * d)
        assert rec.restoring_force[0] == pytest.approx(100.0 * d)

    def test_every_server_saw_every_step(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            n_steps=15)
        coord = SimulationCoordinator(run_id="t", client=client, model=model,
                                      motion=motion, sites=sites)
        k.run(until=k.process(coord.run()))
        for server in servers.values():
            assert server.metrics()["executed"] == 15  # steps 0..14

    def test_step_wall_time_dominated_by_slowest_site(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            n_steps=10, compute_time=0.05)
        # make one site very slow
        servers["cu"].plugin.compute_time = 2.0
        coord = SimulationCoordinator(run_id="t", client=client, model=model,
                                      motion=motion, sites=sites)
        result = k.run(until=k.process(coord.run()))
        assert float(np.mean(result.step_durations())) >= 2.0
        assert float(np.mean(result.step_durations())) < 3.0

    def test_config_validation(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig()
        with pytest.raises(ConfigurationError, match="at least one site"):
            SimulationCoordinator(run_id="t", client=client, model=model,
                                  motion=motion, sites=[])
        bad = [SiteBinding("s", sites[0].handle, dof_indices=[1])]
        with pytest.raises(ConfigurationError, match="cover"):
            SimulationCoordinator(run_id="t", client=client, model=model,
                                  motion=motion, sites=bad)


class TestRejectionHandling:
    def test_policy_rejection_aborts_without_retry(self):
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-1e-6, maximum=1e-6)
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            policies={"cu": policy})
        coord = SimulationCoordinator(
            run_id="t", client=client, model=model, motion=motion,
            sites=sites, fault_policy=FaultTolerantFaultPolicy())
        result = k.run(until=k.process(coord.run()))
        assert not result.completed
        assert "rejected" in result.aborted_reason
        k.run()  # let the in-flight sibling cancellations finish
        cancelled = (servers["uiuc"].metrics()["cancelled"]
                     + servers["ncsa"].metrics()["cancelled"])
        assert cancelled >= 1

    def test_a_step_zero_abort_is_in_the_kernel_log(self):
        # the at-rest command (0.0) is outside the site's limits, so the
        # run dies in _initialize, before the integrator starts
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=1.0, maximum=2.0)
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            policies={"cu": policy})
        sink = k.telemetry.add_sink(InMemorySink())
        coord = SimulationCoordinator(run_id="t", client=client, model=model,
                                      motion=motion, sites=sites)
        result = k.run(until=k.process(coord.run()))
        assert result.aborted_at_step == 0
        assert result.aborted_reason.startswith("initialization failed: ")
        [aborted] = [r for r in sink.records
                     if r.kind == "experiment.aborted"]
        assert aborted.subsystem == "coordinator.t"
        assert aborted.detail == {"step": 0, "site": "cu",
                                  "error": result.aborted_reason}
        assert result.aborted_site == "cu"


class TestFaultHandling:
    def test_naive_policy_dies_on_persistent_outage(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            n_steps=60)
        inj = FaultInjector(net)
        inj.schedule_outage("coord", "cu", start=3.0)  # permanent
        coord = SimulationCoordinator(
            run_id="t", client=client, model=model, motion=motion,
            sites=sites, fault_policy=NaiveFaultPolicy())
        result = k.run(until=k.process(coord.run()))
        assert not result.completed
        assert 0 < result.steps_completed < 59
        assert result.aborted_at_step == result.steps_completed + 1

    def test_ft_policy_rides_out_long_outage(self):
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            n_steps=40)
        inj = FaultInjector(net)
        inj.schedule_outage("coord", "cu", start=3.0, duration=120.0)
        coord = SimulationCoordinator(
            run_id="t", client=client, model=model, motion=motion,
            sites=sites,
            fault_policy=FaultTolerantFaultPolicy(max_attempts=10,
                                                  backoff=30.0))
        result = k.run(until=k.process(coord.run()))
        assert result.completed
        # The outage was masked somewhere in the stack: either the NTCP
        # client's retransmission (long execute timeouts) or the
        # coordinator's step retries.  Both are NTCP fault tolerance.
        assert result.recoveries >= 1 or client.rpc.stats.retries >= 1

    def test_retried_steps_never_double_execute(self):
        """The at-most-once invariant end-to-end: despite coordinator-level
        retries, each server executed each step exactly once."""
        k, net, model, motion, client, sites, servers = build_three_site_rig(
            n_steps=30)
        inj = FaultInjector(net)
        # drop a handful of NTCP replies mid-run
        inj.drop_matching(
            lambda m: m.src == "cu" and m.port.startswith("rpc-reply"),
            count=3)
        coord = SimulationCoordinator(
            run_id="t", client=client, model=model, motion=motion,
            sites=sites, fault_policy=FaultTolerantFaultPolicy(backoff=1.0))
        result = k.run(until=k.process(coord.run()))
        assert result.completed
        for server in servers.values():
            assert server.metrics()["executed"] == 30
            # duplicates were deduplicated, not re-executed
            assert server.plugin.steps_executed == 30

    def test_ft_trace_matches_clean_trace(self):
        """Faults + recovery must not corrupt the physics: the displacement
        history equals the fault-free run's."""
        def run(inject):
            k, net, model, motion, client, sites, servers = \
                build_three_site_rig(n_steps=30, seed=5)
            if inject:
                FaultInjector(net).drop_matching(
                    lambda m: m.src == "ncsa"
                    and m.port.startswith("rpc-reply"), count=2)
            coord = SimulationCoordinator(
                run_id="t", client=client, model=model, motion=motion,
                sites=sites,
                fault_policy=FaultTolerantFaultPolicy(backoff=1.0))
            result = k.run(until=k.process(coord.run()))
            assert result.completed
            return result.displacement_history()

        clean = run(inject=False)
        faulty = run(inject=True)
        assert np.allclose(clean, faulty)


class TestMDOFDistribution:
    def test_two_sites_two_dofs(self):
        """A 2-DOF structure split by DOF (not in parallel): site A holds
        DOF 0, site B holds DOF 1, coupling comes through mass/damping."""
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("coord")
        handles = {}
        for name, kk in (("a", 50.0), ("b", 30.0)):
            net.add_host(name)
            net.connect("coord", name, latency=0.005)
            c = ServiceContainer(net, name)
            server = NTCPServer(f"ntcp-{name}", SimulationPlugin(
                LinearSubstructure(name, [[kk]], [0]), compute_time=0.0))
            handles[name] = c.deploy(server)
        model = StructuralModel(mass=np.diag([1.0, 1.5]),
                                stiffness=np.diag([50.0, 30.0]),
                                damping=np.diag([0.5, 0.5]))
        dt = 0.02
        motion = GroundMotion(dt=dt, accel=np.sin(np.arange(50) * dt * 4))
        rpc = RpcClient(net, "coord", default_timeout=10.0)
        client = NTCPClient(rpc)
        coord = SimulationCoordinator(
            run_id="t", client=client, model=model, motion=motion,
            sites=[SiteBinding("a", handles["a"], [0]),
                   SiteBinding("b", handles["b"], [1])])
        result = k.run(until=k.process(coord.run()))
        assert result.completed
        local = CentralDifferencePSD(model, dt).integrate(
            motion, restoring=lambda d: np.diag([50.0, 30.0]) @ d)
        assert np.allclose(result.displacement_history(),
                           np.array([r.displacement for r in local]))
