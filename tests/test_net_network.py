"""Unit + property tests for the simulated network (hosts, links, faults)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FaultInjector, Message, Network, RpcRequest, RpcResponse
from repro.nsds import StreamSample
from repro.sim import Kernel
from repro.util.errors import ConfigurationError


def make_net(seed=0):
    k = Kernel()
    net = Network(k, seed=seed)
    for name in ("a", "b"):
        net.add_host(name)
    return k, net


class TestTopology:
    def test_duplicate_host_rejected(self):
        k, net = make_net()
        with pytest.raises(ConfigurationError):
            net.add_host("a")

    def test_connect_unknown_host_rejected(self):
        k, net = make_net()
        with pytest.raises(ConfigurationError):
            net.connect("a", "zzz")

    def test_self_link_rejected(self):
        k, net = make_net()
        with pytest.raises(ConfigurationError):
            net.connect("a", "a")

    def test_duplicate_link_rejected(self):
        k, net = make_net()
        net.connect("a", "b")
        with pytest.raises(ConfigurationError):
            net.connect("b", "a")

    def test_link_lookup_symmetric(self):
        k, net = make_net()
        link = net.connect("a", "b", latency=0.5)
        assert net.link("b", "a") is link
        assert net.links() == [link]

    @pytest.mark.parametrize("param, value", [
        ("latency", -0.01), ("latency", float("nan")),
        ("jitter", -1.0), ("jitter", float("nan")),
        ("loss", -0.1), ("loss", 2.0), ("loss", float("nan"))])
    def test_impossible_link_rejected_at_connect(self, param, value):
        """Once accepted: a negative latency failed at the first send, a
        negative jitter raised from numpy there, loss=2.0 dropped all."""
        k, net = make_net()
        with pytest.raises(ConfigurationError, match=param):
            net.connect("a", "b", **{param: value})
        assert net.links() == []
        net.connect("a", "b", **{param: 0.0})   # the boundary is a link

    def test_bind_conflict(self):
        k, net = make_net()
        net.host("a").bind("p", lambda m: None)
        with pytest.raises(ConfigurationError):
            net.host("a").bind("p", lambda m: None)


class TestDelivery:
    def test_message_arrives_after_latency(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.25)
        got = []
        net.host("b").bind("svc", lambda m: got.append((k.now, m.payload)))
        net.send("a", "b", "svc", "hello")
        k.run()
        assert got == [(0.25, "hello")]
        assert net.stats["delivered"] == 1

    def test_no_route_counted(self):
        k, net = make_net()
        net.send("a", "b", "svc", "x")  # no link
        k.run()
        assert net.stats["no_route"] == 1
        assert net.stats["delivered"] == 0

    def test_no_listener_counted(self):
        k, net = make_net()
        net.connect("a", "b")
        net.send("a", "b", "nobody", "x")
        k.run()
        assert net.stats["no_listener"] == 1

    def test_link_down_drops(self):
        k, net = make_net()
        net.connect("a", "b")
        got = []
        net.host("b").bind("svc", lambda m: got.append(m))
        net.set_link_state("a", "b", up=False)
        net.send("a", "b", "svc", "x")
        k.run()
        assert got == []
        assert net.stats["dropped"] == 1

    def test_link_restored_delivers_again(self):
        k, net = make_net()
        net.connect("a", "b")
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))
        net.set_link_state("a", "b", up=False)
        net.send("a", "b", "svc", "lost")
        net.set_link_state("a", "b", up=True)
        net.send("a", "b", "svc", "kept")
        k.run()
        assert got == ["kept"]

    def test_host_down_refuses_delivery(self):
        k, net = make_net()
        net.connect("a", "b")
        got = []
        net.host("b").bind("svc", lambda m: got.append(m))
        net.host("b").up = False
        net.send("a", "b", "svc", "x")
        k.run()
        assert got == [] and net.stats["no_listener"] == 1

    def test_fifo_ordering_despite_jitter(self):
        k, net = make_net(seed=3)
        net.connect("a", "b", latency=0.01, jitter=0.5, fifo=True)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))
        for i in range(50):
            net.send("a", "b", "svc", i)
        k.run()
        assert got == list(range(50))

    def test_non_fifo_can_reorder(self):
        k, net = make_net(seed=3)
        net.connect("a", "b", latency=0.01, jitter=0.5, fifo=False)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))
        for i in range(50):
            net.send("a", "b", "svc", i)
        k.run()
        assert sorted(got) == list(range(50))
        assert got != list(range(50))  # with this seed, jitter reorders

    def test_lossy_link_drops_some(self):
        k, net = make_net(seed=1)
        net.connect("a", "b", loss=0.5)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m))
        for i in range(200):
            net.send("a", "b", "svc", i)
        k.run()
        assert 0 < len(got) < 200
        assert net.stats["dropped"] + net.stats["delivered"] == 200

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_same_loss_pattern(self, seed):
        def pattern(s):
            k, net = make_net(seed=s)
            net.connect("a", "b", loss=0.3)
            got = []
            net.host("b").bind("svc", lambda m: got.append(m.payload))
            for i in range(40):
                net.send("a", "b", "svc", i)
            k.run()
            return got

        assert pattern(seed) == pattern(seed)


class TestFaultInjector:
    def test_scheduled_outage_window(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.schedule_outage("a", "b", start=10.0, duration=5.0)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))

        def sender(kernel):
            for t, tag in [(5.0, "before"), (12.0, "during"), (20.0, "after")]:
                yield kernel.timeout(t - kernel.now)
                net.send("a", "b", "svc", tag)

        k.process(sender(k))
        k.run()
        assert got == ["before", "after"]

    def test_permanent_outage(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        FaultInjector(net).schedule_outage("a", "b", start=1.0)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))

        def sender(kernel):
            yield kernel.timeout(2.0)
            net.send("a", "b", "svc", "x")

        k.process(sender(k))
        k.run()
        assert got == [] and not net.link("a", "b").up

    def test_overlapping_outages_extend_the_window(self):
        # Outage A [10, 15) and outage B [12, 30): the link must stay down
        # until the *last* outage ends, not pop back up when A expires.
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.schedule_outage("a", "b", start=10.0, duration=5.0)
        inj.schedule_outage("a", "b", start=12.0, duration=18.0)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))

        def sender(kernel):
            for t, tag in [(5.0, "before"), (13.0, "both"), (16.0, "b-only"),
                           (31.0, "after")]:
                yield kernel.timeout(t - kernel.now)
                net.send("a", "b", "svc", tag)

        k.process(sender(k))
        k.run()
        assert got == ["before", "after"]
        assert net.link("a", "b").up

    def test_overlapping_outage_reversed_endpoints_same_link(self):
        # The reference count keys on the link, not on argument order.
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.schedule_outage("a", "b", start=10.0, duration=5.0)
        inj.schedule_outage("b", "a", start=12.0, duration=18.0)

        def probe(kernel):
            yield kernel.timeout(16.0)
            return net.link("a", "b").up

        up_at_16 = k.run(until=k.process(probe(k)))
        assert not up_at_16
        k.run()
        assert net.link("a", "b").up

    def test_overlap_with_permanent_outage_never_restores(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.schedule_outage("a", "b", start=10.0)  # permanent
        inj.schedule_outage("a", "b", start=12.0, duration=5.0)
        k.run()
        assert not net.link("a", "b").up

    def test_back_to_back_outages_do_not_interfere(self):
        # Non-overlapping windows on the same link behave as two plain
        # outages: up in the gap, up at the end.
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.schedule_outage("a", "b", start=10.0, duration=5.0)
        inj.schedule_outage("a", "b", start=20.0, duration=5.0)

        def probe(kernel):
            yield kernel.timeout(17.0)
            return net.link("a", "b").up

        assert k.run(until=k.process(probe(k)))
        k.run()
        assert net.link("a", "b").up

    def test_a_duplicate_shares_the_payload_under_a_new_id(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.duplicate_matching(lambda m: m.port == "svc", count=1)
        got = []
        net.host("b").bind("svc", got.append)
        payload = {"k": [1, 2]}
        sent = net.send("a", "b", "svc", payload)
        k.run()
        original, clone = got
        assert original is sent and clone.payload is payload
        assert clone.msg_id != sent.msg_id
        assert clone.msg_id.startswith(f"{sent.msg_id}+dup")
        assert clone._replace(msg_id=sent.msg_id) == sent

    def test_drop_next_on_port_counts(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.drop_matching(lambda m: m.port == "svc", count=2)
        got = []
        net.host("b").bind("svc", lambda m: got.append(m.payload))
        net.host("b").bind("other", lambda m: got.append(m.payload))
        for i in range(4):
            net.send("a", "b", "svc", i)
        net.send("a", "b", "other", "o")
        k.run()
        assert got == [2, 3, "o"]

    @pytest.mark.parametrize("arm, named", [
        (lambda f: f.schedule_outage("a", "nohost", start=1.0,
                                     duration=5.0), "nohost"),
        (lambda f: f.schedule_outage("a", "b", start=1.0,
                                     duration=-5.0), "duration"),
        (lambda f: f.schedule_outage("a", "b", start=1.0,
                                     duration=float("nan")), "duration"),
        (lambda f: f.crash_host("nohost", start=1.0), "nohost"),
        (lambda f: f.crash_host("b", start=1.0, duration=-1.0), "duration"),
        (lambda f: f.jitter_burst("a", "nohost", jitter=0.1, start=1.0,
                                  duration=5.0), "nohost"),
        (lambda f: f.jitter_burst("a", "b", jitter=0.1, start=1.0,
                                  duration=float("nan")), "duration"),
        (lambda f: f.jitter_burst("a", "b", jitter=-0.1, start=1.0,
                                  duration=5.0), "jitter"),
    ])
    def test_a_timed_fault_is_refused_when_called(self, arm, named):
        # Refused at the call, with the parameter named — not a KeyError
        # or ValueError out of kernel.run when the window opens, and not
        # a negative jitter accepted with no effect.
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        with pytest.raises(ConfigurationError, match=named):
            arm(FaultInjector(net))
        k.run()
        assert net.link("a", "b").up and net.link("a", "b").jitter == 0.0

    def test_an_infinite_window_stays_legal(self):
        k, net = make_net()
        net.connect("a", "b", latency=0.0)
        inj = FaultInjector(net)
        inj.schedule_outage("a", "b", start=1.0, duration=float("inf"))
        inj.crash_host("b", start=1.0, duration=float("inf"))
        inj.jitter_burst("a", "b", jitter=0.0, start=1.0,
                         duration=float("inf"))
        k.run(until=2.0)
        assert not net.link("a", "b").up and not net.host("b").up


#: each record built per datagram, its fields (all hashable here) and
#: its ``repr`` as it read when the records were frozen dataclasses
_RECORDS = [
    (Message, dict(src="site", dst="viewer", port="nsds-sink-1",
                   payload="x", msg_id="msg-1", send_time=0.5),
     "Message(src='site', dst='viewer', port='nsds-sink-1', payload='x', "
     "msg_id='msg-1', send_time=0.5)"),
    (RpcRequest, dict(request_id="viewer.req-1", method="invoke",
                      params=(), reply_port="rpc-reply-1"),
     "RpcRequest(request_id='viewer.req-1', method='invoke', params=(), "
     "reply_port='rpc-reply-1', credential=None, trace=None)"),
    (RpcResponse, dict(request_id="viewer.req-1", ok=True, value=3),
     "RpcResponse(request_id='viewer.req-1', ok=True, value=3, "
     "error_type='', error_message='', error_data=None)"),
    (StreamSample, dict(channel="force", sequence=2, time=1.0, value=2.5),
     "StreamSample(channel='force', sequence=2, time=1.0, value=2.5)"),
]


@pytest.mark.parametrize("cls, fields, text", _RECORDS,
                         ids=[cls.__name__ for cls, *_ in _RECORDS])
class TestPerDatagramRecords:
    def test_immutable(self, cls, fields, text):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_equal_and_hashed_by_value(self, cls, fields, text):
        a, b = cls(**fields), cls(**fields)
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1
        first = next(iter(fields))
        assert a._replace(**{first: "other"}) != a

    def test_repr_unchanged(self, cls, fields, text):
        assert repr(cls(**fields)) == text
