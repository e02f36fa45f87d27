"""Edge-case integration tests across subsystem boundaries."""

import numpy as np
import pytest

from repro.control import (
    HumanApprovalPlugin,
    SimulationPlugin,
    make_displacement_actions,
)
from repro.coordinator import (
    FaultTolerantFaultPolicy,
    NaiveFaultPolicy,
    SimulationCoordinator,
    SiteBinding,
)
from repro.core import Action, NTCPClient, NTCPServer, SitePolicy
from repro.core.plugin import ControlPlugin
from repro.net import Network, RemoteException, RpcClient
from repro.nsds import NSDSService, NSDSReceiver
from repro.ogsi import NotificationSink, ServiceContainer
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.structural import GroundMotion, LinearSubstructure, StructuralModel
from repro.telepresence import CameraService, VideoViewer
from repro.testing import make_site


class TestHostCrash:
    def build(self, policy):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("coord")
        handles = {}
        for name, kk in (("a", 60.0), ("b", 40.0)):
            net.add_host(name)
            net.connect("coord", name, latency=0.01)
            c = ServiceContainer(net, name)
            server = NTCPServer(f"ntcp-{name}", SimulationPlugin(
                LinearSubstructure(name, [[kk]], [0]), compute_time=0.1))
            handles[name] = c.deploy(server)
        model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                                damping=[[1.0]])
        motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(60) * 0.1))
        client = NTCPClient(RpcClient(net, "coord", default_timeout=3.0,
                                      default_retries=1),
                            timeout=3.0, retries=1)
        coord = SimulationCoordinator(
            run_id="crash", client=client, model=model, motion=motion,
            sites=[SiteBinding(n, handles[n], [0]) for n in handles],
            fault_policy=policy, execution_timeout=10.0)
        return k, net, coord

    def test_site_host_crash_aborts_naive_run(self):
        k, net, coord = self.build(NaiveFaultPolicy())

        def crash(kernel):
            yield kernel.timeout(5.0)
            net.host("b").up = False

        k.process(crash(k))
        result = k.run(until=k.process(coord.run()))
        assert not result.completed
        assert result.steps_completed > 0

    def test_site_reboot_recovered_by_ft(self):
        k, net, coord = self.build(
            FaultTolerantFaultPolicy(max_attempts=8, backoff=10.0))

        def bounce(kernel):
            yield kernel.timeout(5.0)
            net.host("b").up = False
            yield kernel.timeout(30.0)
            net.host("b").up = True

        k.process(bounce(k))
        result = k.run(until=k.process(coord.run()))
        assert result.completed


class TestTimedReviewConcurrency:
    def test_two_pending_approvals_interleave(self):
        """Two proposals under human review at once: both decided, state
        kept straight per transaction."""
        inner = SimulationPlugin(LinearSubstructure("s", [[10.0]], [0]),
                                 compute_time=0.0)
        plugin = HumanApprovalPlugin(
            inner, decision_time=5.0,
            decide=lambda p: not p.transaction.endswith("deny"))
        env = make_site(plugin, timeout=60.0)
        verdicts = {}

        def propose(name):
            verdict = yield from env.client.propose(
                env.handle, name, make_displacement_actions({0: 0.01}),
                timeout=30.0)
            verdicts[name] = verdict.state

        env.kernel.process(propose("t-allow"))
        env.kernel.process(propose("t-deny"))
        env.kernel.run()
        assert verdicts == {"t-allow": "accepted", "t-deny": "rejected"}
        assert plugin.approved == 1 and plugin.vetoed == 1


class TestExecutionTimingRaces:
    class AlmostTooSlow(ControlPlugin):
        plugin_type = "slowish"

        def __init__(self, duration):
            super().__init__()
            self.duration = duration

        def execute(self, proposal):
            yield self.kernel.timeout(self.duration)
            return {"displacements": {0: 0.0}, "forces": {0: 0.0}}

    def test_completion_just_inside_timeout(self):
        env = make_site(self.AlmostTooSlow(4.99), timeout=60.0)

        def go():
            yield from env.client.propose(
                env.handle, "t", [Action("set-displacement",
                                         {"dof": 0, "value": 0.0})],
                execution_timeout=5.0)
            result = yield from env.client.execute(env.handle, "t",
                                                   timeout=30.0)
            return result

        result = env.run(go())
        assert result.transaction == "t"
        assert env.server.metrics()["executed"] == 1

    def test_completion_just_outside_timeout(self):
        env = make_site(self.AlmostTooSlow(5.01), timeout=60.0)

        def go():
            yield from env.client.propose(
                env.handle, "t", [Action("set-displacement",
                                         {"dof": 0, "value": 0.0})],
                execution_timeout=5.0)
            try:
                yield from env.client.execute(env.handle, "t", timeout=30.0)
            except RemoteException as exc:
                return exc.remote_message

        assert "exceeded timeout" in env.run(go())
        assert env.server.metrics()["failed"] == 1


class TestNotificationsUnderLoss:
    def test_sde_notifications_are_best_effort(self):
        k = Kernel()
        net = Network(k, seed=3)
        net.add_host("site")
        net.add_host("user")
        net.connect("site", "user", latency=0.01, loss=0.25, fifo=False)
        container = ServiceContainer(net, "site")
        plugin = SimulationPlugin(LinearSubstructure("s", [[10.0]], [0]),
                                  compute_time=0.0)
        server = NTCPServer("ntcp-x", plugin)
        container.deploy(server)
        sink = NotificationSink(net, "user")
        container._op_subscribe(None, service_id="ntcp-x",
                                sink_host="user", sink_port=sink.port,
                                sde_name="lastChanged", lifetime=1e9)
        client = NTCPClient(RpcClient(net, "user", default_timeout=2.0,
                                      default_retries=15),
                            timeout=2.0, retries=15)

        def go():
            for i in range(20):
                yield from env_step(i)

        def env_step(i):
            result = yield from client.propose_and_execute(
                container.services["ntcp-x"].handle, f"t{i}",
                make_displacement_actions({0: 0.001}))
            return result

        k.run(until=k.process(go()))
        k.run()
        # RPC retries pushed all 20 through; notifications lossy but nonzero
        assert server.metrics()["executed"] == 20
        received = sink.accepted
        # lastChanged changes 4x per transaction (proposed/accepted/
        # executing/executed) = 80 sent; ~25% were lost in flight
        assert 0 < received < 80

    def test_subscription_dies_with_service(self):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("site")
        net.add_host("user")
        net.connect("site", "user", latency=0.0)
        container = ServiceContainer(net, "site")
        nsds = NSDSService("stream")
        container.deploy(nsds)
        sink = NotificationSink(net, "user")
        container._op_subscribe(None, service_id="stream",
                                sink_host="user", sink_port=sink.port,
                                lifetime=1e9)
        receiver = NSDSReceiver(net, "user")
        nsds._op_subscribe(None, sink_host="user", sink_port=receiver.port,
                           lifetime=1e9)
        assert [len(table) for table in nsds.subscription_tables] == [1, 1]
        container.destroy("stream")
        # the SDE audience and the stream audience both end with the service
        assert [len(table) for table in nsds.subscription_tables] == [0, 0]


_SUBSCRIBE_OPS = {
    # operation -> (RPC method, params before the subscribe request)
    "container": ("subscribe", {"service_id": "stream"}),
    "nsds": ("invoke", {"service_id": "stream", "operation": "subscribe"}),
    "camera": ("invoke", {"service_id": "cam", "operation": "subscribe"}),
}
_HOSTILE_FIELDS = [
    ("lifetime", "soon"), ("lifetime", float("nan")),
    ("lifetime", float("inf")), ("lifetime", -5), ("lifetime", 0),
    ("lifetime", True),
    ("sink_host", ""), ("sink_host", 7), ("sink_host", None),
    ("sink_port", ""), ("sink_port", 7), ("sink_port", None),
]
_HOSTILE_ROWS = (
    [(op, field, value) for op in _SUBSCRIBE_OPS
     for field, value in _HOSTILE_FIELDS]
    + [("nsds", "channels", "force"), ("nsds", "channels", ["force", 2]),
       ("nsds", "channels", {"force": 1}), ("container", "sde_name", 5)])


class TestSubscriptionTable:
    """The one service-side table under SDE notifications, NSDS streams
    and camera frames."""

    def env(self):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("site")
        net.add_host("user")
        net.connect("site", "user", latency=0.01)
        container = ServiceContainer(net, "site")
        nsds, cam = NSDSService("stream"), CameraService("cam")
        container.deploy(nsds)
        container.deploy(cam)
        return k, net, nsds, cam, RpcClient(net, "user")

    def subscribe(self, k, rpc, op, request):
        method, params = _SUBSCRIBE_OPS[op]
        params = ({**params, **request} if method == "subscribe"
                  else {**params, "params": request})

        def go():
            try:
                return (yield from rpc.call("site", "ogsi", method, params))
            except RemoteException as exc:
                return exc

        return k.run(until=k.process(go()))

    @pytest.mark.parametrize(
        "op,field,value", _HOSTILE_ROWS,
        ids=[f"{op}-{field}-{value!r}" for op, field, value in _HOSTILE_ROWS])
    def test_a_hostile_subscribe_is_a_typed_refusal(self, op, field, value):
        k, net, nsds, cam, rpc = self.env()
        sink = k.telemetry.add_sink(InMemorySink())
        request = {"sink_host": "user", "sink_port": "p", "lifetime": 60.0}
        first = self.subscribe(k, rpc, op, request)
        tables = nsds.subscription_tables + cam.subscription_tables
        before = [len(table) for table in tables]
        refusal = self.subscribe(k, rpc, op, {**request, field: value})
        assert isinstance(refusal, RemoteException)
        assert refusal.remote_type == "ProtocolError"
        # the message leads with the offending field, as the table names it
        assert f"$.{field if field in request else 'topics'}" in str(refusal)
        assert [len(table) for table in tables] == before
        assert "rpc.handler_error" not in [r.kind for r in sink.records]
        # not even an id was spent on it
        second = self.subscribe(k, rpc, op, request)
        assert (first[-2:], second[-2:]) == ("-1", "-2")

    def test_unsubscribe_is_scoped_to_the_owning_table(self):
        k, net, nsds, cam, rpc = self.env()
        viewer = VideoViewer(net, "user")
        viewer_id = self.subscribe(k, rpc, "camera", {
            "sink_host": "user", "sink_port": viewer.port, "lifetime": 60.0})

        def unsubscribe(method, params):
            return k.run(until=k.process(rpc.call(
                "site", "ogsi", method, params)))

        assert unsubscribe("invoke", {
            "service_id": "stream", "operation": "unsubscribe",
            "params": {"subscription_id": viewer_id}}) is False
        assert unsubscribe("unsubscribe",
                           {"subscription_id": viewer_id}) is False
        assert len(cam.subscribers) == 1
        seen = viewer.frame_count
        k.run(until=k.now + 5.0)
        assert viewer.frame_count >= seen + 9
        assert unsubscribe("invoke", {
            "service_id": "cam", "operation": "unsubscribe",
            "params": {"viewer_id": viewer_id}}) is True


class TestCoordinatorStreamsResponse:
    def test_on_step_feeds_nsds(self):
        """§3: 'the structural response was streamed to remote users' —
        the coordinator's own step records flow through NSDS too."""
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("coord")
        net.add_host("site")
        net.add_host("viewer")
        net.connect("coord", "site", latency=0.01)
        net.connect("coord", "viewer", latency=0.02, fifo=False)
        site_container = ServiceContainer(net, "site")
        server = NTCPServer("ntcp-site", SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0]), compute_time=0.0))
        handle = site_container.deploy(server)

        coord_container = ServiceContainer(net, "coord", port="coord-ogsi")
        nsds = NSDSService("response-stream")
        coord_container.deploy(nsds)
        samples = []
        receiver = NSDSReceiver(net, "viewer", callback=samples.append)
        nsds._op_subscribe(None, sink_host="viewer",
                           sink_port=receiver.port, lifetime=1e9)

        model = StructuralModel(mass=[[2.0]], stiffness=[[100.0]],
                                damping=[[1.0]])
        motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(40) * 0.2))
        client = NTCPClient(RpcClient(net, "coord", default_timeout=10.0))
        coord = SimulationCoordinator(
            run_id="streamed", client=client, model=model, motion=motion,
            sites=[SiteBinding("site", handle, [0])],
            on_step=lambda rec: nsds.ingest(rec.wall_finished, {
                "displacement": float(rec.displacement[0]),
                "restoring_force": float(rec.restoring_force[0])}))
        result = k.run(until=k.process(coord.run()))
        k.run()
        assert result.completed
        assert receiver.received_count("displacement") == 39
        streamed = [s.value for s in sorted(samples,
                                            key=lambda s: s.sequence)
                    if s.channel == "displacement"]
        recorded = [float(r.displacement[0]) for r in result.steps]
        assert streamed == pytest.approx(recorded)


class TestPolicyEdgeCases:
    def test_max_actions_per_proposal(self):
        policy = SitePolicy(max_actions_per_proposal=2)
        plugin = SimulationPlugin(
            LinearSubstructure("s", np.eye(3), [0, 1, 2]), policy=policy,
            compute_time=0.0)
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "many",
                make_displacement_actions({0: 0.1, 1: 0.1, 2: 0.1}))
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "at most" in verdict.error

    def test_allowed_kinds_whitelist(self):
        policy = SitePolicy(allowed_kinds={"set-displacement"})
        plugin = SimulationPlugin(LinearSubstructure("s", [[1.0]], [0]),
                                  policy=policy, compute_time=0.0)
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "odd", [Action("open-valve", {})])
            return verdict

        assert env.run(go()).state == "rejected"

    def test_non_numeric_param_skips_limit(self):
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-1.0, maximum=1.0)
        policy.check([Action("set-displacement",
                             {"dof": 0, "value": "not-a-number"})])
        # no exception: limits only bind numeric values; the plugin's
        # action parser rejects the junk later
