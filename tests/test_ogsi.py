"""Unit + integration tests for the OGSI service container."""

import pytest

from repro.net import Network, RemoteException, RpcClient
from repro.ogsi import (
    GridService,
    GridServiceHandle,
    NotificationSink,
    ServiceContainer,
    ServiceDataSet,
)
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import ProtocolError


class Counter(GridService):
    """Toy grid service: a counter with an SDE mirroring its value."""

    def on_attach(self):
        self.count = 0
        self.service_data.set("count", 0)
        self.expose("increment", self._increment)
        self.expose("slowIncrement", self._slow_increment)

    def _increment(self, caller, by=1):
        self.count += by
        self.service_data.set("count", self.count)
        return self.count

    def _slow_increment(self, caller, delay=1.0):
        yield self.kernel.timeout(delay)
        self.count += 1
        self.service_data.set("count", self.count)
        return self.count


def make_env():
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("site")
    net.add_host("user")
    net.connect("site", "user", latency=0.01)
    container = ServiceContainer(net, "site")
    client = RpcClient(net, "user", default_timeout=60.0)
    return k, net, container, client


def call(k, client, method, params):
    return k.run(until=k.process(client.call("site", "ogsi", method, params)))


class TestHandles:
    def test_str_roundtrip(self):
        h = GridServiceHandle("site", "ogsi", "counter-1")
        assert GridServiceHandle.parse(str(h)) == h

    def test_parse_rejects_junk(self):
        for bad in ("http://x/y/z", "gsh://", "gsh://onlyhost", "gsh://a/b",
                    "gsh://a//c"):
            with pytest.raises(ProtocolError):
                GridServiceHandle.parse(bad)


class TestServiceData:
    def test_set_bumps_version_and_time(self):
        now = [0.0]
        sds = ServiceDataSet(lambda: now[0])
        sds.set("x", 1)
        now[0] = 5.0
        sde = sds.set("x", 2)
        assert sde.version == 2
        assert sde.last_modified == 5.0
        assert sds.value("x") == 2

    def test_snapshot_and_names(self):
        sds = ServiceDataSet(lambda: 0.0)
        sds.set("b", 2)
        sds.set("a", 1)
        assert sds.names() == ["a", "b"]
        assert sds.snapshot() == {"a": 1, "b": 2}

    def test_listener_fires_on_set(self):
        sds = ServiceDataSet(lambda: 0.0)
        seen = []
        sds.on_change(lambda name: seen.append((name, sds.value(name))))
        sds.set("x", 10)
        assert seen == [("x", 10)]

    def test_missing_value_default(self):
        sds = ServiceDataSet(lambda: 0.0)
        assert sds.value("nope", default=-1) == -1
        assert sds.get("nope") is None


class TestContainerDispatch:
    def test_invoke_operation(self):
        k, net, container, client = make_env()
        container.deploy(Counter("counter-1"))
        result = call(k, client, "invoke", {
            "service_id": "counter-1", "operation": "increment",
            "params": {"by": 5}})
        assert result == 5

    def test_generator_operation_takes_time(self):
        k, net, container, client = make_env()
        container.deploy(Counter("counter-1"))
        result = call(k, client, "invoke", {
            "service_id": "counter-1", "operation": "slowIncrement",
            "params": {"delay": 3.0}})
        assert result == 1
        assert k.now == pytest.approx(3.0 + 0.02)

    def test_find_service_data(self):
        k, net, container, client = make_env()
        container.deploy(Counter("counter-1"))
        call(k, client, "invoke", {"service_id": "counter-1",
                                   "operation": "increment"})
        sde = call(k, client, "findServiceData", {
            "service_id": "counter-1", "name": "count"})
        assert sde["value"] == 1 and sde["version"] == 2

    def test_find_all_service_data(self):
        k, net, container, client = make_env()
        container.deploy(Counter("counter-1"))
        snap = call(k, client, "findServiceData", {"service_id": "counter-1"})
        assert snap == {"count": 0}

    def test_unknown_service_is_remote_error(self):
        k, net, container, client = make_env()

        def go():
            try:
                yield from client.call("site", "ogsi", "invoke", {
                    "service_id": "ghost", "operation": "x"})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ServiceNotFound"

    def test_unknown_operation_is_remote_error(self):
        k, net, container, client = make_env()
        container.deploy(Counter("counter-1"))

        def go():
            try:
                yield from client.call("site", "ogsi", "invoke", {
                    "service_id": "counter-1", "operation": "nope"})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ProtocolError"

    def test_list_services(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        container.deploy(Counter("c2"))
        handles = call(k, client, "listServices", {})
        assert sorted(handles) == ["gsh://site/ogsi/c1", "gsh://site/ogsi/c2"]

    def test_duplicate_deploy_rejected(self):
        from repro.util.errors import ConfigurationError

        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        with pytest.raises(ConfigurationError):
            container.deploy(Counter("c1"))


class TestLifetime:
    def test_service_reaped_after_termination_time(self):
        k, net, container, client = make_env()
        sink = k.telemetry.add_sink(InMemorySink())
        container.deploy(Counter("c1"), termination_time=100.0)
        k.run(until=50.0)
        assert "c1" in container.services
        k.run(until=150.0)
        assert "c1" not in container.services
        recs = [r for r in sink.records if r.kind == "service.destroyed"]
        assert recs[0].detail["reason"] == "lifetime-expired"

    def test_keepalive_extends_lifetime(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"), termination_time=100.0)

        def keepalive():
            yield k.timeout(90.0)
            yield from client.call("site", "ogsi", "setTerminationTime", {
                "service_id": "c1", "termination_time": 300.0})

        k.process(keepalive())
        k.run(until=200.0)
        assert "c1" in container.services
        k.run(until=400.0)
        assert "c1" not in container.services

    def test_immortal_service_survives(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))  # no termination time
        k.run(until=10_000.0)
        assert "c1" in container.services

    def test_explicit_destroy(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        assert call(k, client, "destroy", {"service_id": "c1"}) is True
        assert "c1" not in container.services

    def test_on_destroy_hook_called(self):
        k, net, container, client = make_env()
        destroyed = []

        class Hooked(Counter):
            def on_destroy(self):
                destroyed.append(self.service_id)

        container.deploy(Hooked("h1"), termination_time=5.0)
        k.run(until=10.0)
        assert destroyed == ["h1"]

    @pytest.mark.parametrize("bad", ["soon", float("nan"), float("inf"),
                                     True])
    def test_a_bad_termination_time_is_refused(self, bad):
        """``setTerminationTime`` takes None or a finite number; anything
        else is a ProtocolError that keeps the old deadline, so a later
        deploy works and the reaper still destroys the service on time."""
        k, net, container, client = make_env()
        container.deploy(Counter("c1"), termination_time=100.0)

        def go():
            try:
                yield from client.call("site", "ogsi", "setTerminationTime", {
                    "service_id": "c1", "termination_time": bad})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ProtocolError"
        assert container.services["c1"].termination_time == 100.0
        container.deploy(Counter("c2"))
        k.run(until=99.0)
        assert set(container.services) == {"c1", "c2"}
        k.run(until=101.0)
        assert set(container.services) == {"c2"}

    @pytest.mark.parametrize("bad", ["soon", float("nan"), True])
    def test_deploy_and_create_refuse_a_bad_lifetime(self, bad):
        k, net, container, client = make_env()
        with pytest.raises(ProtocolError):
            container.deploy(Counter("c1"), termination_time=bad)
        made = []
        container.register_factory(
            "counter", lambda sid: made.append(sid) or Counter(sid))

        def go():
            try:
                yield from client.call("site", "ogsi", "createService", {
                    "type_name": "counter", "params": {"sid": "m"},
                    "lifetime": bad})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ProtocolError"
        assert (container.services, made) == ({}, [])
        container.deploy(Counter("c1"), termination_time=5.0)
        k.run(until=10.0)
        assert container.services == {}


class TestFactory:
    def test_create_service_via_rpc(self):
        k, net, container, client = make_env()
        container.register_factory("counter", lambda sid: Counter(sid))
        handle = call(k, client, "createService", {
            "type_name": "counter", "params": {"sid": "made-1"}})
        assert handle == "gsh://site/ogsi/made-1"
        assert call(k, client, "invoke", {
            "service_id": "made-1", "operation": "increment"}) == 1

    def test_factory_with_lifetime(self):
        k, net, container, client = make_env()
        container.register_factory("counter", lambda sid: Counter(sid))
        call(k, client, "createService", {
            "type_name": "counter", "params": {"sid": "m"}, "lifetime": 60.0})
        k.run(until=120.0)
        assert "m" not in container.services

    def test_unknown_factory_rejected(self):
        k, net, container, client = make_env()

        def go():
            try:
                yield from client.call("site", "ogsi", "createService",
                                       {"type_name": "nope"})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ProtocolError"


class TestNotifications:
    def test_subscribe_and_receive(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        notes = []
        sink = NotificationSink(net, "user", callback=notes.append)
        call(k, client, "subscribe", {
            "service_id": "c1", "sink_host": "user", "sink_port": sink.port,
            "sde_name": "count", "lifetime": 1000.0})
        for _ in range(3):
            call(k, client, "invoke", {"service_id": "c1",
                                       "operation": "increment"})
        k.run()
        assert [(n["service_id"], n["sde_name"], n["value"])
                for n in notes] == [("c1", "count", v) for v in (1, 2, 3)]
        assert sink.accepted == 3

    def test_subscription_filters_sde_name(self):
        k, net, container, client = make_env()

        class TwoSdes(Counter):
            def on_attach(self):
                super().on_attach()
                self.expose("touchOther", lambda caller: (
                    self.service_data.set("other", 1), None)[1])

        container.deploy(TwoSdes("c1"))
        notes = []
        sink = NotificationSink(net, "user", callback=notes.append)
        call(k, client, "subscribe", {
            "service_id": "c1", "sink_host": "user", "sink_port": sink.port,
            "sde_name": "count", "lifetime": 1000.0})
        call(k, client, "invoke", {"service_id": "c1", "operation": "touchOther"})
        call(k, client, "invoke", {"service_id": "c1", "operation": "increment"})
        k.run()
        assert [n["sde_name"] for n in notes] == ["count"]

    def test_subscription_expires(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        sink = NotificationSink(net, "user")
        call(k, client, "subscribe", {
            "service_id": "c1", "sink_host": "user", "sink_port": sink.port,
            "lifetime": 10.0})
        k.run(until=50.0)
        call(k, client, "invoke", {"service_id": "c1", "operation": "increment"})
        k.run()
        assert sink.accepted == 0

    def test_unsubscribe(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        sink = NotificationSink(net, "user")
        sub_id = call(k, client, "subscribe", {
            "service_id": "c1", "sink_host": "user", "sink_port": sink.port,
            "lifetime": 1000.0})
        assert call(k, client, "unsubscribe", {"subscription_id": sub_id}) is True
        call(k, client, "invoke", {"service_id": "c1", "operation": "increment"})
        k.run()
        assert sink.accepted == 0

    def test_only_the_subscriber_cancels_on_a_gated_container(self):
        """Subscription ids are sequential, so an unsubscribe names its
        caller: on a GSI-gated container an outsider DN (mapped, so the
        gate lets it in) is refused with a ``SecurityError``, the owner's
        sink keeps receiving, and the owner can still cancel."""
        import numpy as np

        from repro.gsi import (
            CertificateAuthority,
            Crypto,
            Gridmap,
            GsiAuthenticator,
            GsiChecker,
        )

        k, net, container, client = make_env()
        ca = CertificateAuthority(Crypto(np.random.default_rng(42)), "/CN=CA")
        gridmap = Gridmap({"/CN=alice": "alice", "/CN=outsider": "outsider"})
        container.rpc.checker = GsiChecker(ca.crypto, [ca.certificate],
                                           gridmap, lambda: k.now)
        container.deploy(Counter("c1"))
        got = []
        sink = NotificationSink(net, "user",
                                callback=lambda n: got.append(n["value"]))

        def as_user(dn, method, params):
            token = GsiAuthenticator(ca.issue_credential(dn, not_after=1e9),
                                     lambda: k.now).token(method)

            def go():
                try:
                    return (yield from client.call(
                        "site", "ogsi", method, params, credential=token))
                except RemoteException as exc:
                    return exc.remote_type
            return k.run(until=k.process(go()))

        sub = {"subscription_id": as_user("/CN=alice", "subscribe", {
            "service_id": "c1", "sink_host": "user", "sink_port": sink.port,
            "lifetime": 1000.0})}
        increment = {"service_id": "c1", "operation": "increment"}
        assert as_user("/CN=outsider", "unsubscribe", sub) == "SecurityError"
        as_user("/CN=alice", "invoke", increment)
        assert as_user("/CN=alice", "unsubscribe", sub) is True
        as_user("/CN=alice", "invoke", increment)
        k.run()
        assert got == [1]

    def test_callback_invoked(self):
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))
        got = []
        sink = NotificationSink(net, "user", callback=lambda n: got.append(n["value"]))
        call(k, client, "subscribe", {
            "service_id": "c1", "sink_host": "user", "sink_port": sink.port,
            "lifetime": 1000.0})
        call(k, client, "invoke", {"service_id": "c1", "operation": "increment"})
        k.run()
        assert got == [1]

    def test_raising_callback_does_not_break_delivery(self):
        """One broken subscriber cannot blind the others (or itself)."""
        k, net, container, client = make_env()
        container.deploy(Counter("c1"))

        def explode(note):
            raise RuntimeError("viewer crashed")

        broken = NotificationSink(net, "user", callback=explode)
        good_values = []
        healthy = NotificationSink(net, "user",
                                   callback=lambda n: good_values.append(
                                       n["value"]))
        for sink in (broken, healthy):
            call(k, client, "subscribe", {
                "service_id": "c1", "sink_host": "user",
                "sink_port": sink.port, "lifetime": 1000.0})
        for _ in range(3):
            call(k, client, "invoke", {"service_id": "c1",
                                       "operation": "increment"})
        k.run()
        # the healthy sink saw everything, the broken one still counted
        assert good_values == [1, 2, 3]
        assert broken.accepted == 3
        # and the failures are counted, per sink, in the telemetry hub
        assert broken.subscriber_errors == 3
        assert healthy.subscriber_errors == 0
        metric = k.telemetry.registry.find("ogsi.notify.subscriber_errors",
                                           host="user", port=broken.port)
        assert metric is not None and metric.value == 3
