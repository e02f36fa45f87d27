"""Unit tests for the RPC layer: correlation, retries, remote errors."""

import pytest

from repro.grid import Grid
from repro.net import (
    FaultInjector,
    Network,
    RemoteException,
    RpcClient,
    RpcService,
    RpcTimeout,
)
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import PolicyViolation, SecurityError


def make_rpc(latency=0.05, **link_kw):
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("client")
    net.add_host("server")
    net.connect("client", "server", latency=latency, **link_kw)
    svc = RpcService(net, "server", "svc")
    cli = RpcClient(net, "client")
    return k, net, svc, cli


def run_call(k, gen):
    """Drive a client-call generator to completion; return its value."""
    return k.run(until=k.process(gen))


class TestBasicCalls:
    def test_round_trip_value(self):
        k, net, svc, cli = make_rpc()
        svc.register("add", lambda caller, x, y: x + y)
        result = run_call(k, cli.call("server", "svc", "add", {"x": 2, "y": 3}))
        assert result == 5
        assert k.now == pytest.approx(0.1)  # two hops at 0.05

    def test_unknown_method_is_remote_exception(self):
        k, net, svc, cli = make_rpc()

        def caller():
            try:
                yield from cli.call("server", "svc", "nope")
            except RemoteException as exc:
                return exc.remote_type

        assert run_call(k, caller()) == "NoSuchMethod"

    def test_handler_exception_propagates_type_and_payload(self):
        k, net, svc, cli = make_rpc()

        def bad(caller):
            raise PolicyViolation("disp too large", parameter="disp",
                                  limit=0.05, requested=0.2)

        svc.register("propose", bad)

        def caller():
            try:
                yield from cli.call("server", "svc", "propose")
            except RemoteException as exc:
                return exc

        exc = run_call(k, caller())
        assert exc.remote_type == "PolicyViolation"
        assert "disp too large" in exc.remote_message
        assert exc.data["limit"] == 0.05

    def test_generator_handler_takes_sim_time(self):
        k, net, svc, cli = make_rpc(latency=0.0)

        def slow(caller, duration):
            yield k.timeout(duration)
            return f"done at {k.now}"

        svc.register("work", slow)
        result = run_call(k, cli.call("server", "svc", "work",
                                      {"duration": 7.5}, timeout=100.0))
        assert result == "done at 7.5"

    def test_generator_handler_exception(self):
        k, net, svc, cli = make_rpc(latency=0.0)

        def slow_fail(caller):
            yield k.timeout(1.0)
            raise ValueError("late failure")

        svc.register("work", slow_fail)

        def caller():
            try:
                yield from cli.call("server", "svc", "work")
            except RemoteException as exc:
                return exc.remote_type

        assert run_call(k, caller()) == "ValueError"

    def test_concurrent_calls_correlate(self):
        k, net, svc, cli = make_rpc(latency=0.0)

        def work(caller, duration, tag):
            yield k.timeout(duration)
            return tag

        svc.register("work", work)
        results = {}

        def one(duration, tag):
            value = yield from cli.call("server", "svc", "work",
                                        {"duration": duration, "tag": tag},
                                        timeout=100.0)
            results[tag] = (k.now, value)

        k.process(one(5.0, "slow"))
        k.process(one(1.0, "fast"))
        k.run()
        assert results["fast"] == (1.0, "fast")
        assert results["slow"] == (5.0, "slow")


class TestOnAGrid:
    """The same layer under a real deployment: the site container's RPC
    service and the hub's client, as :class:`repro.grid.Grid` wires them."""

    def test_sync_handler_bug_is_a_wire_error_not_a_hang(self):
        grid = Grid.star()
        site = grid.add_simulation_site("lab", 50.0, latency=0.05,
                                        compute_time=0.0)
        sink = grid.kernel.telemetry.add_sink(InMemorySink())

        def buggy(caller):
            raise ValueError("not a ReproError")

        site.container.rpc.register("boom", buggy)
        rpc = grid.client(timeout=30.0, retries=0).rpc

        def caller():
            try:
                yield from rpc.call("lab", "ogsi", "boom")
            except RemoteException as exc:
                return exc

        exc = grid.run(caller())
        assert exc.remote_type == "ValueError"
        assert "not a ReproError" in exc.remote_message
        assert grid.kernel.now == pytest.approx(0.1)  # one round trip
        errors = [r for r in sink.records if r.kind == "rpc.handler_error"]
        assert [r.detail["method"] for r in errors] == ["boom"]

    def test_site_on_the_hub_host_is_loopback_at_now_plus_zero(self):
        """Mini-MOST's shape: hub == site, so no link exists and every
        message is delivered at ``now + 0``."""
        grid = Grid.star(hub="pc")
        site = grid.add_simulation_site("pc", 50.0, latency=0.0,
                                        compute_time=0.0)
        assert grid.network.links() == []
        site.container.rpc.register("ping", lambda caller: "pong")
        rpc = grid.client(timeout=30.0, retries=0).rpc
        assert grid.run(rpc.call("pc", "ogsi", "ping")) == "pong"
        assert grid.kernel.now == 0.0
        assert grid.network.stats["delivered"] == 2  # request + reply


class TestTimeoutsAndRetries:
    def test_timeout_without_retries(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        FaultInjector(net).drop_next_on_port("svc", count=1)
        svc.register("ping", lambda caller: "pong")

        def caller():
            try:
                yield from cli.call("server", "svc", "ping", timeout=1.0)
            except RpcTimeout:
                return "timed out"

        assert run_call(k, caller()) == "timed out"
        assert cli.stats.timeouts == 1

    def test_retry_masks_single_loss(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        FaultInjector(net).drop_next_on_port("svc", count=1)
        svc.register("ping", lambda caller: "pong")
        result = run_call(k, cli.call("server", "svc", "ping",
                                      timeout=1.0, retries=2))
        assert result == "pong"
        assert cli.stats.retries == 1
        assert k.now == pytest.approx(1.0)  # one timeout burned

    def test_retries_reuse_request_id(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        FaultInjector(net).drop_next_on_port("svc", count=2)
        seen = []

        def ping(caller):
            seen.append("hit")
            return "pong"

        svc.register("ping", ping)
        run_call(k, cli.call("server", "svc", "ping", timeout=0.5, retries=5))
        # server saw exactly one delivery (two were dropped before arrival)
        assert seen == ["hit"]

    def test_duplicate_delivery_reaches_server_twice(self):
        # RPC itself is at-least-once under response loss: the server
        # executes twice.  (NTCP's dedup layer fixes this; tested there.)
        k, net, svc, cli = make_rpc(latency=0.0)
        inj = FaultInjector(net)
        inj.drop_matching(lambda m: m.port.startswith("rpc-reply"), count=1)
        hits = []
        svc.register("ping", lambda caller: hits.append(1) or "pong")
        result = run_call(k, cli.call("server", "svc", "ping",
                                      timeout=1.0, retries=2))
        assert result == "pong"
        assert len(hits) == 2

    def test_late_reply_ignored(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        sink = k.telemetry.add_sink(InMemorySink())

        def slow(caller):
            yield k.timeout(10.0)
            return "slow answer"

        svc.register("work", slow)

        def caller():
            try:
                yield from cli.call("server", "svc", "work", timeout=1.0)
            except RpcTimeout:
                pass
            yield k.timeout(30.0)  # let the late reply arrive
            return "ok"

        assert run_call(k, caller()) == "ok"
        late = [r for r in sink.records if r.kind == "rpc.late_reply"]
        assert len(late) >= 1


class TestSameInstantTimerAndReply:
    """Heap order settles a reply and a timer due in one instant: the
    attempt's timer was armed before anything its request caused, so it
    precedes the arrival of the reply to *that* transmission."""

    def tied(self, latency, handler, *, retries):
        k, net, svc, cli = make_rpc(latency=latency)
        sink = k.telemetry.add_sink(InMemorySink())
        wire = []
        net.add_drop_filter(
            lambda m: wire.append((k.now, m.port, m.payload.request_id))
            and False)
        svc.register("ping", handler)
        call = k.process(cli.call("server", "svc", "ping",
                                  timeout=1.0, retries=retries))
        call.defuse()
        k.run()  # drain: the dead timers and the late replies too
        late = [r.kind for r in sink.records].count("rpc.late_reply")
        return call, cli.stats, wire, late

    def test_latency_equal_to_timeout(self):
        """The request is still in flight when the timer fires: the timer
        wins, one retransmission under the same request id; the first
        transmission's reply then arrives before the second attempt's
        timer in their instant and is taken, and the second reply is the
        one late reply — all without ``already triggered``."""
        call, stats, wire, late = self.tied(
            1.0, lambda caller: "pong", retries=3)
        assert call.ok and call.value == "pong"
        assert (stats.retries, stats.timeouts) == (1, 0)
        requests = [(at, rid) for at, port, rid in wire if port == "svc"]
        assert requests == [(0.0, "client.req-1"), (1.0, "client.req-1")]
        assert late == 1  # as at b56f92e, where the call itself timed out

    def test_round_trip_equal_to_timeout_never_completes(self):
        """Every attempt's reply lands in its own timer's instant, behind
        it: each is dropped, silently, and the call exhausts its retries
        exactly as it did before the wait lost its ``AnyOf``."""
        call, stats, wire, late = self.tied(
            0.5, lambda caller: "pong", retries=2)
        assert not call.ok and isinstance(call._value, RpcTimeout)
        assert (stats.retries, stats.timeouts) == (2, 1)
        assert {rid for _, _, rid in wire} == {"client.req-1"}
        assert late == 0

    def test_reply_dropped_in_the_timers_instant_is_not_an_error(self):
        k, net, svc, cli = make_rpc(latency=0.25)
        sink = k.telemetry.add_sink(InMemorySink())
        served = []

        def slow_once(caller):
            served.append(k.now)
            if len(served) == 1:
                yield k.timeout(0.5)  # 0.25 + 0.5 + 0.25 == the timeout
            return "pong"

        svc.register("ping", slow_once)
        result = run_call(k, cli.call("server", "svc", "ping",
                                      timeout=1.0, retries=1))
        assert result == "pong" and k.now == pytest.approx(1.5)
        assert served == [0.25, 1.25] and cli.stats.retries == 1
        k.run()
        assert "rpc.late_reply" not in [r.kind for r in sink.records]


class TestFailureEdges:
    def test_retry_exhaustion_reports_attempt_count(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        FaultInjector(net).drop_matching(lambda m: m.port == "svc", count=10)
        svc.register("ping", lambda caller: "pong")

        def caller():
            try:
                yield from cli.call("server", "svc", "ping",
                                    timeout=1.0, retries=2)
            except RpcTimeout as exc:
                return str(exc)
            return None

        message = run_call(k, caller())
        assert message is not None and "3 attempt(s)" in message
        assert cli.stats.retries == 2

    def test_retransmission_rides_out_transient_outage(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        FaultInjector(net).schedule_outage("client", "server",
                                           start=0.0, duration=2.5)
        seen = []
        svc.register("ping", lambda caller: seen.append(1) or "pong")
        result = run_call(k, cli.call("server", "svc", "ping",
                                      timeout=1.0, retries=5))
        assert result == "pong"
        # the t=0 request slipped out just before the link went down, so
        # its *reply* was lost; the t=1 and t=2 retransmissions fell into
        # the outage and the t=3 one finally round-tripped.  The server
        # executed twice — RPC is at-least-once under reply loss; NTCP's
        # dedup layer absorbs this (tested there).
        assert cli.stats.retries == 3
        assert len(seen) == 2
        assert k.now == pytest.approx(3.0)

    def test_drop_predicate_is_selective_and_bounded(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        other = RpcService(net, "server", "other")
        other.register("ping", lambda caller: "other-pong")
        svc.register("ping", lambda caller: "svc-pong")
        FaultInjector(net).drop_matching(lambda m: m.port == "other",
                                         count=1)
        # non-matching traffic is untouched
        assert run_call(k, cli.call("server", "svc", "ping",
                                    timeout=1.0)) == "svc-pong"
        assert cli.stats.retries == 0
        # the first matching message is dropped; the count is then spent,
        # so the retransmission goes through
        result = run_call(k, cli.call("server", "other", "ping",
                                      timeout=1.0, retries=1))
        assert result == "other-pong"
        assert cli.stats.retries == 1


class TestSecurityHook:
    def test_checker_rejects(self):
        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("client")
        net.add_host("server")
        net.connect("client", "server", latency=0.0)

        def checker(credential, method):
            if credential != "good-token":
                raise SecurityError("bad credential")
            return "alice"

        svc = RpcService(net, "server", "svc", checker=checker)
        svc.register("whoami", lambda caller: caller)
        cli = RpcClient(net, "client")

        def denied():
            try:
                yield from cli.call("server", "svc", "whoami",
                                    credential="bad")
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(denied())) == "SecurityError"

        ok = k.run(until=k.process(
            cli.call("server", "svc", "whoami", credential="good-token")))
        assert ok == "alice"

    def test_latency_stats_recorded(self):
        k, net, svc, cli = make_rpc(latency=0.2)
        svc.register("ping", lambda caller: "pong")
        run_call(k, cli.call("server", "svc", "ping"))
        assert cli.stats.latencies == [pytest.approx(0.4)]
