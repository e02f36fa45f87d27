"""A stiff structure hybrid test needs alpha-OS: coordinator-level check."""

import numpy as np

from repro.control import SimulationPlugin
from repro.coordinator import SimulationCoordinator, SiteBinding
from repro.core import NTCPClient, NTCPServer
from repro.net import Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import (
    AlphaOSPSD,
    GroundMotion,
    LinearSubstructure,
    NewmarkBeta,
    StructuralModel,
)


def stiff_rig(integrator_factory, n_steps=200):
    """A stiff 1-DOF structure (omega=200 rad/s) at dt=0.02 (2x the
    central-difference limit) split across two sites."""
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("coord")
    handles = {}
    for name, kk in (("a", 2.5e4), ("b", 1.5e4)):
        net.add_host(name)
        net.connect("coord", name, latency=0.005)
        c = ServiceContainer(net, name)
        handles[name] = c.deploy(NTCPServer(f"ntcp-{name}", SimulationPlugin(
            LinearSubstructure(name, [[kk]], [0]), compute_time=0.0)))
    model = StructuralModel(mass=[[1.0]], stiffness=[[4.0e4]]
                            ).with_rayleigh_damping(0.02)
    dt = 0.02
    motion = GroundMotion(dt=dt, accel=np.sin(np.arange(n_steps) * dt * 3))
    client = NTCPClient(RpcClient(net, "coord", default_timeout=30.0),
                        timeout=30.0, retries=2)
    coord = SimulationCoordinator(
        run_id="stiff", client=client, model=model, motion=motion,
        sites=[SiteBinding(n, handles[n], [0]) for n in handles],
        integrator_factory=integrator_factory)
    return k, coord, model, motion


class TestPluggableIntegrator:
    def test_alpha_os_coordinates_a_stiff_hybrid_test(self):
        k, coord, model, motion = stiff_rig(AlphaOSPSD)
        result = k.run(until=k.process(coord.run()))
        assert result.completed
        d = result.displacement_history().ravel()
        # bounded and tracking the implicit reference
        nm = NewmarkBeta(model, motion.dt).integrate(motion)
        d_ref = np.array([r.displacement[0] for r in nm])
        scale = np.max(np.abs(d_ref))
        assert np.max(np.abs(d)) < 3 * scale
        corr = np.corrcoef(d, d_ref)[0, 1]
        assert corr > 0.9

    def test_central_difference_diverges_on_the_same_rig(self):
        with np.errstate(over="ignore", invalid="ignore"):
            k, coord, model, motion = stiff_rig(None)  # default: CD
            result = k.run(until=k.process(coord.run()))
        # CD at 2x its limit: the run either aborts on a policy/numeric
        # failure or completes with a divergent trace
        if result.completed:
            d = result.displacement_history().ravel()
            finite = d[np.isfinite(d)]
            assert finite.size == 0 or np.max(np.abs(finite)) > 1.0
        else:
            assert result.aborted_reason
