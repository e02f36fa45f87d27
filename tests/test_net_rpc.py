"""Unit tests for the RPC layer: correlation, retries, remote errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import Grid
from repro.net import (
    FaultInjector,
    Network,
    RemoteException,
    RpcClient,
    RpcRequest,
    RpcResponse,
    RpcService,
    RpcTimeout,
)
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import ConfigurationError, PolicyViolation, SecurityError


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
        FaultInjector(net).drop_matching(lambda m: m.port == "svc",
                                         count=1)
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
        FaultInjector(net).drop_matching(lambda m: m.port == "svc",
                                         count=1)
        svc.register("ping", lambda caller: "pong")
        result = run_call(k, cli.call("server", "svc", "ping",
                                      timeout=1.0, retries=2))
        assert result == "pong"
        assert cli.stats.retries == 1
        assert k.now == pytest.approx(1.0)  # one timeout burned

    def test_retries_reuse_request_id(self):
        k, net, svc, cli = make_rpc(latency=0.0)
        FaultInjector(net).drop_matching(lambda m: m.port == "svc",
                                         count=2)
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


class TestBadCallPolicy:
    """A retry count that is not an int >= 0 or a timeout that is not a
    number > 0 is refused before anything is counted, sent or traced
    (``retries=-1`` once sent nothing and returned None, leaving a span
    open; ``timeout=-1`` once sent, then raised from the kernel)."""

    BAD = [{"retries": -1}, {"retries": 1.5}, {"retries": True},
           {"retries": "2"}, {"timeout": -1}, {"timeout": 0},
           {"timeout": float("nan")}, {"timeout": "5"}]

    @pytest.mark.parametrize("policy", BAD, ids=repr)
    def test_call_refuses(self, policy, monkeypatch):
        k, net, svc, cli = make_rpc()
        svc.register("ping", lambda caller: "pong")
        tracer = k.telemetry.tracer
        started = []
        start_span = tracer.start_span
        monkeypatch.setattr(tracer, "start_span", lambda *a, **kw:
                            started.append(a) or start_span(*a, **kw))

        def caller():
            try:
                yield from cli.call("server", "svc", "ping", **policy)
            except ConfigurationError as exc:
                return exc

        assert isinstance(run_call(k, caller()), ConfigurationError)
        assert (cli.stats.calls, net.stats["sent"], started,
                cli._pending) == (0, 0, [], {})

    @pytest.mark.parametrize("policy", BAD, ids=repr)
    def test_constructor_refuses_the_same_defaults(self, policy):
        k, net, *_ = make_rpc()
        with pytest.raises(ConfigurationError):
            RpcClient(net, "client", **{f"default_{key}": value
                                        for key, value in policy.items()})


#: a well-formed wire context (``Span.to_wire``), which each malformed
#: case below damages in one field
_WIRE = {"trace_id": "trace-7", "span_id": "span-3", "number": 3,
         "covered": False}

#: any value a decoded field might hold
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=True), st.text(max_size=8),
                    st.sampled_from(["span-3", "trace-7", "span-0"]),
                    st.lists(st.integers(), max_size=2))

#: arbitrary dicts, weighted toward the wire's own keys and toward
#: well-formed contexts damaged in a field or two
_TRACES = st.one_of(
    st.dictionaries(st.sampled_from(sorted(_WIRE)) | st.text(max_size=4),
                    _VALUES, max_size=5),
    st.fixed_dictionaries({}, optional={key: _VALUES | st.just(value)
                                        for key, value in _WIRE.items()}),
    st.builds(lambda number, covered: {
        **_WIRE, "span_id": f"span-{number}", "number": number,
        "covered": covered},
        st.integers(1, 2 ** 63 - 1), st.booleans()))


class TestMalformedWireTrace:
    """A request whose trace context is not the wire's shape, or whose
    ``number`` is not its ``span_id``'s, is served under a new root
    trace; it once raised out of ``Kernel.run``.  A well-formed one is
    served under the parsed parent."""

    @staticmethod
    def serve(trace):
        """Send one raw ``ping`` carrying ``trace``; the reply and the
        finished spans by name (the handler opens ``test.handler.op``)."""
        k, net, svc, cli = make_rpc()
        sink = k.telemetry.add_sink(InMemorySink())
        svc.register("ping", lambda caller: k.telemetry.start_span(
            "test.handler.op").end() and "pong")
        replies = []
        net.host("client").bind("raw-reply", replies.append)
        net.send("client", "server", "svc", RpcRequest(
            request_id="raw-1", method="ping", params={},
            reply_port="raw-reply", trace=trace))
        k.run()
        assert [m.payload for m in replies] == [RpcResponse(
            request_id="raw-1", ok=True, value="pong")]
        spans = {span.name: span for span in sink.spans}
        assert len(spans) == len(sink.spans)
        return spans

    @pytest.mark.parametrize("trace", [
        {"bogus": 1}, "x", {"trace_id": 1, "span_id": 2},
        {"trace_id": "t", "span_id": None}, ["trace_id", "span_id"],
        {"trace_id": "trace-7", "span_id": "span-3"},
        {**_WIRE, "number": True}, {**_WIRE, "number": -3},
        {**_WIRE, "number": 3.0}, {**_WIRE, "number": "3"},
        {**_WIRE, "number": 2 ** 63, "span_id": f"span-{2 ** 63}"},
        {**_WIRE, "number": 4}, {**_WIRE, "number": 0, "span_id": "span-0"},
        {**_WIRE, "covered": 1}, {**_WIRE, "covered": None},
        {**_WIRE, "trace_id": None}], ids=repr)
    def test_served_and_answered(self, trace):
        spans = self.serve(trace)
        server, op = spans["net.rpc.server"], spans["test.handler.op"]
        assert (server.parent_id, server.attrs["ok"]) == (None, True)
        assert server.trace_id.startswith("trace-")
        assert (op.trace_id, op.parent_id) == (server.trace_id,
                                               server.span_id)

    @pytest.mark.parametrize("covered", [False, True])
    def test_a_well_formed_context_is_the_parent(self, covered):
        """Uncovered, the server span is the wire span's child; covered,
        no server span opens and the handler's span is its child."""
        spans = self.serve({**_WIRE, "covered": covered})
        assert sorted(spans) == (["test.handler.op"] if covered else [
            "net.rpc.server", "test.handler.op"])
        parent = spans["test.handler.op" if covered else "net.rpc.server"]
        assert (parent.trace_id, parent.parent_id) == ("trace-7", "span-3")

    @settings(max_examples=150, deadline=None)
    @given(trace=_TRACES)
    def test_any_dict_is_served(self, trace):
        """Any dict at all: answered, every span finished, and the
        handler's span under a fresh trace or the parsed parent."""
        spans = self.serve(trace)
        op, server = spans.pop("test.handler.op"), spans.pop(
            "net.rpc.server", None)
        assert spans == {}
        if server is None:  # covered: the handler's span is the caller's
            assert trace["covered"] is True
            parent = op
        else:
            assert (op.trace_id, op.parent_id) == (server.trace_id,
                                                   server.span_id)
            parent = server
        assert (parent.trace_id, parent.parent_id) in (
            (trace.get("trace_id"), trace.get("span_id")),
            (parent.trace_id, None))


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
