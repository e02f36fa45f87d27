"""Tests for the design-choice ablation switches (DESIGN.md §6).

These verify the *mechanisms* the benchmarks measure: turning off
at-most-once really does double-execute, and dropping the negotiation
barrier really does move hardware before a sibling site's rejection lands.
"""

import numpy as np

from repro.control import (
    ShoreWesternController,
    ShoreWesternPlugin,
    make_displacement_actions,
)
from repro.coordinator import SimulationCoordinator, SiteBinding
from repro.core import NTCPClient, NTCPServer
from repro.core.plugin import ControlPlugin
from repro.core.policy import SitePolicy
from repro.net import Network, RpcClient
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import (
    BilinearSpring,
    GroundMotion,
    PhysicalSpecimen,
    StructuralModel,
)
from repro.structural.specimen import Actuator, Sensor
from repro.verify.explorer import mutated

from conftest import make_site


class CountingPlugin(ControlPlugin):
    """A plugin that counts executions and advances hysteretic state."""

    plugin_type = "counting"

    def __init__(self, specimen):
        super().__init__()
        self.specimen = specimen
        self.executions = 0

    def execute(self, proposal):
        self.executions += 1
        from repro.control.actions import displacement_targets

        targets = displacement_targets(proposal.actions)
        m = self.specimen.apply(targets[0])
        yield self.kernel.timeout(0.01)
        return {"displacements": {0: m.achieved}, "forces": {0: m.force}}


def hysteretic_specimen(seed=0):
    return PhysicalSpecimen(
        "col", BilinearSpring(k=100.0, fy=1.0, alpha=0.1),
        actuator=Actuator(max_stroke=1.0, tracking_std=0.0),
        lvdt=Sensor(), load_cell=Sensor(), seed=seed)


class TestAtMostOnceAblation:
    def run_with_dropped_reply(self):
        spec = hysteretic_specimen()
        plugin = CountingPlugin(spec)
        env = make_site(plugin, timeout=2.0, retries=3)

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.05}))
            # lose the first execute *response*: client retries
            env.faults.drop_matching(
                lambda m: m.src == "site" and m.port.startswith("rpc-reply"),
                count=1)
            result = yield from env.client.execute(env.handle, "t")
            return result

        env.run(go())
        return plugin, spec

    def test_dedup_on_executes_once(self):
        plugin, spec = self.run_with_dropped_reply()
        assert plugin.executions == 1
        assert len(spec.history) == 1

    def test_dedup_off_double_executes(self):
        """At-least-once semantics: the retry physically re-runs the step —
        exactly the "danger of the same action being executed twice" NTCP
        was designed to remove."""
        with mutated("dedupe_execute"):
            plugin, spec = self.run_with_dropped_reply()
        assert plugin.executions >= 2
        assert len(spec.history) >= 2


def two_site_rig(*, barrier, cu_policy=None, n_steps=5):
    """Asymmetric sites: UIUC has a fast link but a slow actuator, CU a
    slow link but a fast actuator — the configuration where the
    negotiation barrier costs real time (the slow proposer gates the slow
    executor's start)."""
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("coord")
    handles = {}
    specimens = {}
    site_params = {"uiuc": (0.01, 3.0), "cu": (0.5, 0.1)}
    for name in ("uiuc", "cu"):
        latency, settle = site_params[name]
        net.add_host(name)
        net.connect("coord", name, latency=latency)
        container = ServiceContainer(net, name)
        spec = PhysicalSpecimen(
            "col", BilinearSpring(k=100.0, fy=1.0, alpha=0.1),
            actuator=Actuator(max_stroke=1.0, tracking_std=0.0,
                              min_settle=settle),
            lvdt=Sensor(), load_cell=Sensor(), seed=0)
        specimens[name] = spec
        controller = ShoreWesternController({0: spec})
        plugin = ShoreWesternPlugin(
            controller, link_delay=0.0,
            policy=cu_policy if (name == "cu" and cu_policy) else SitePolicy())
        server = NTCPServer(f"ntcp-{name}", plugin)
        handles[name] = container.deploy(server)
    model = StructuralModel(mass=[[2.0]], stiffness=[[200.0]],
                            damping=[[1.0]])
    motion = GroundMotion(dt=0.02, accel=np.full(n_steps, 2.0))
    rpc = RpcClient(net, "coord", default_timeout=60.0, default_retries=1)
    client = NTCPClient(rpc, timeout=60.0, retries=1)
    coord = SimulationCoordinator(
        run_id="abl", client=client, model=model, motion=motion,
        sites=[SiteBinding(n, handles[n], [0]) for n in ("uiuc", "cu")],
        execution_timeout=60.0, negotiation_barrier=barrier)
    return k, coord, specimens


class TestNegotiationBarrierAblation:
    def test_no_barrier_is_faster(self):
        k1, c1, _ = two_site_rig(barrier=True)
        r1 = k1.run(until=k1.process(c1.run()))
        k2, c2, _ = two_site_rig(barrier=False)
        r2 = k2.run(until=k2.process(c2.run()))
        assert r1.completed and r2.completed
        # same physics either way
        assert np.allclose(r1.displacement_history(),
                           r2.displacement_history())
        # barrier costs roughly one extra round trip per step
        assert r2.wall_duration < r1.wall_duration

    def test_barrier_prevents_motion_on_rejection(self):
        strict = SitePolicy().limit("set-displacement", "value",
                                    minimum=-1e-9, maximum=1e-9)
        k, coord, specimens = two_site_rig(barrier=True, cu_policy=strict)
        result = k.run(until=k.process(coord.run()))
        assert not result.completed
        # Only the zero-displacement initialization move happened: CU's
        # step-1 rejection arrived before either site executed step 1.
        assert all(len(s.history) == 1 for s in specimens.values())

    def test_no_barrier_moves_hardware_despite_rejection(self):
        strict = SitePolicy().limit("set-displacement", "value",
                                    minimum=-1e-9, maximum=1e-9)
        k, coord, specimens = two_site_rig(barrier=False, cu_policy=strict)
        result = k.run(until=k.process(coord.run()))
        k.run()  # drain the in-flight sibling chain
        assert not result.completed
        # The UIUC specimen moved (beyond the step-0 initialization) even
        # though the step was rejected at CU — the safety property the
        # propose/execute barrier exists to provide.
        assert len(specimens["uiuc"].history) >= 2
