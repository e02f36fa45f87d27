"""Targeted tests for thinner corners of the API surface."""

import pytest

from repro.control import MPlugin, make_displacement_actions
from repro.coordinator.records import ExperimentResult
from repro.core import Proposal
from repro.gsi import (
    CertificateAuthority,
    Crypto,
    Gridmap,
    GsiAuthenticator,
    GsiChecker,
)
from repro.net import Network, RpcService
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import ProtocolError, SecurityError


class TestLoopbackDelivery:
    def test_same_host_message_delivered(self):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("pc")
        got = []
        net.host("pc").bind("svc", lambda m: got.append(m.payload))
        net.send("pc", "pc", "svc", "local")
        k.run()
        assert got == ["local"]
        assert net.stats["delivered"] == 1

    def test_loopback_ignores_drop_filters_never(self):
        """Loopback bypasses links but not the host-down check."""
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("pc")
        got = []
        net.host("pc").bind("svc", lambda m: got.append(m))
        net.host("pc").up = False
        net.send("pc", "pc", "svc", "x")
        k.run()
        assert got == []


class TestRpcServiceRobustness:
    def test_non_request_payload_ignored(self):
        k = Kernel()
        sink = k.telemetry.add_sink(InMemorySink())
        net = Network(k, seed=0)
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", latency=0.0)
        svc = RpcService(net, "b", "svc")
        svc.register("ping", lambda caller: "pong")
        net.send("a", "b", "svc", {"random": "garbage"})
        k.run()  # must not raise
        assert [r.kind for r in sink.records] == ["rpc.bad_message"]

    def test_fifo_state_survives_outage(self):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("a")
        net.add_host("b")
        net.connect("a", "b", latency=0.01, jitter=0.05, fifo=True)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))

        def script(kernel):
            for i in range(5):
                net.send("a", "b", "svc", i)
            yield kernel.timeout(1.0)
            net.set_link_state("a", "b", up=False)
            net.send("a", "b", "svc", "lost")
            yield kernel.timeout(1.0)
            net.set_link_state("a", "b", up=True)
            for i in range(5, 10):
                net.send("a", "b", "svc", i)

        k.process(script(k))
        k.run()
        assert got == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


class TestGsiEdges:
    def test_required_right_without_assertion_rejects(self):
        crypto = Crypto()
        ca = CertificateAuthority(crypto, "/CN=CA")
        user = ca.issue_credential("/CN=User", not_after=1e9)
        gm = Gridmap()
        gm.add("/CN=User", "user")
        checker = GsiChecker(crypto, [ca.certificate], gm, lambda: 0.0,
                             required_right="repository:write")
        auth = GsiAuthenticator(user, lambda: 0.0)
        with pytest.raises(SecurityError, match="missing CAS right"):
            checker(auth.token("upload"), "upload")

    def test_token_for_other_credential_fails_signature(self):
        crypto = Crypto()
        ca = CertificateAuthority(crypto, "/CN=CA")
        alice = ca.issue_credential("/CN=Alice", not_after=1e9)
        bob = ca.issue_credential("/CN=Bob", not_after=1e9)
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        checker = GsiChecker(crypto, [ca.certificate], gm, lambda: 0.0)
        # Bob presents Alice's chain but signs with his own key.
        from dataclasses import replace

        token = GsiAuthenticator(bob, lambda: 0.0).token("m")
        forged = replace(token, chain=alice.chain)
        with pytest.raises(SecurityError, match="request signature"):
            checker(forged, "m")


class TestMPluginCancelSemantics:
    def test_cancel_after_pickup_is_noop(self):
        """Once the backend picked a request up, cancel can't unsend it;
        the posted result is simply discarded (unknown txn)."""
        plugin = MPlugin()
        from repro.testing import make_site

        env = make_site(plugin)
        k = env.kernel

        def flow():
            # buffer a request via execute (don't await it)
            proposal = Proposal(
                transaction="t1",
                actions=tuple(make_displacement_actions({0: 0.01})))
            plugin.attach(k, "test") if plugin.kernel is None else None
            exec_proc = k.process(plugin.execute(proposal))
            exec_proc.defuse()
            yield k.timeout(0.01)
            picked = plugin.poll()
            assert picked["transaction"] == "t1"
            plugin.cancel(proposal)  # too late: already picked up
            with pytest.raises(ProtocolError, match="unknown transaction"):
                plugin.post_result("t1", {})

        k.run(until=k.process(flow()))


class TestExperimentResultEdges:
    def test_empty_result_histories(self):
        r = ExperimentResult(run_id="x", target_steps=10, dt=0.02)
        assert r.displacement_history().shape == (0, 0)
        assert r.force_history().shape == (0, 0)
        assert r.steps_completed == 0
        assert r.recoveries == 0
        summary = r.summary()
        assert summary["peak_displacement"] == 0.0
        assert summary["mean_step_duration"] == 0.0

    def test_step_durations_empty(self):
        r = ExperimentResult(run_id="x", target_steps=1, dt=0.02)
        assert r.step_durations().size == 0


class TestGroundMotionResample:
    def test_resample_preserves_shape(self):
        from repro.structural import el_centro_like

        gm = el_centro_like(duration=8.0, dt=0.02)
        fine = gm.resampled(0.01)
        # interpolation passes through original samples
        assert fine.accel[0] == pytest.approx(gm.accel[0])
        assert fine.accel[2] == pytest.approx(gm.accel[1])
        assert fine.n_steps == pytest.approx(2 * gm.n_steps, abs=2)


class TestChefLogoutEdge:
    def test_logout_unknown_token(self):
        from repro.chef import ChefWorksite
        from repro.ogsi import ServiceContainer

        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("portal")
        c = ServiceContainer(net, "portal")
        chef = ChefWorksite()
        c.deploy(chef)
        assert chef._op_logout(None, token="nope") is False


class TestContainerFactoryLifetimeArming:
    def test_factory_created_service_reaped(self):
        from repro.ogsi import GridService, ServiceContainer

        class Trivial(GridService):
            pass

        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("h")
        c = ServiceContainer(net, "h")
        c.register_factory("trivial", lambda sid: Trivial(sid))
        c._op_createService(None, type_name="trivial",
                            params={"sid": "t1"}, lifetime=5.0)
        assert "t1" in c.services
        k.run(until=20.0)
        assert "t1" not in c.services
