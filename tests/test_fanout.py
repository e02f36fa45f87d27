"""One datagram per push per sink host: ``SubscriptionTable.publish``
merges consecutive subscribers on one host that are handed the same
payload object, and the host's fan-out port hands that datagram to each
of them in order.  The oracle is the loop it replaced, one datagram per
subscriber, kept below."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network, RpcClient
from repro.nsds import NSDSReceiver, NSDSService
from repro.ogsi import ServiceContainer, SubscriptionTable
from repro.sim import Kernel


class OneDatagramEach(SubscriptionTable):
    """The publish loop before the merge: a datagram per subscriber."""

    def publish(self, topic, make_payload):
        now = self.network.kernel.now
        sent, lapsed = 0, False
        for sub_id, (topics, sink_host, sink_port, _, expires) in \
                self._subs.items():
            if expires <= now:
                lapsed = True
            elif topics is None or topic in topics:
                self.network.send(self.host, sink_host, sink_port,
                                  make_payload(sub_id))
                sent += 1
        if lapsed:
            self._free_lapsed()
        return sent


#: the links' latencies (no jitter, no loss: nothing is drawn); each
#: publish also makes an entry due at each of them, after its own sends
_LATENCIES = (0.0, 0.01)
#: one sink host: its link's latency, FIFO or not, and its sinks' kinds
_HOST = st.tuples(st.sampled_from(_LATENCIES), st.booleans(),
                  st.lists(st.sampled_from(["raw", "nsds"]), min_size=1,
                           max_size=3))
#: which sink (modulo the sinks made), its topics, its lifetime
_SUBSCRIPTION = st.tuples(
    st.sampled_from(range(9)),
    st.sampled_from([None, None, ("a",), ("b",), ("a", "b"), ()]),
    st.sampled_from([1e9, 1e9, 2.0, 0.5]))
_OPS = st.one_of(
    st.tuples(st.just("subscribe"), _SUBSCRIPTION),
    st.tuples(st.just("unsubscribe"), st.integers(1, 12)),
    # topic, shared payload or one per subscriber, sequence, when
    st.tuples(st.just("publish"), st.sampled_from("ab"),
              st.sampled_from([True, True, False]), st.integers(1, 6),
              st.sampled_from([0.0, 0.01, 0.02])),
    st.tuples(st.just("outage"), st.integers(0, 2)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.01, 0.5, 3.0])))


def _world(table_cls, hosts, loopback, subscriptions, ops):
    """Subscribe, then run ``ops``, against a table of ``table_cls``;
    returns the one log every handler, publish and marker entry writes
    to, in the order they ran, the NSDS sinks' counts and the network's."""
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("site")
    ids = itertools.count(1)
    table = table_cls(net, "site", lambda: f"sub-{next(ids)}")
    log, issued, sinks, nsds_sinks, links = [], {}, [], [], []

    def raw_handler(name):
        def handler(msg):
            key = msg.payload["key"]
            log.append((name, k.now, key, msg.payload is issued[key]))
        return handler

    def nsds_callback(name):
        return lambda sample: log.append(
            (name, k.now, sample.channel, sample.sequence))

    for i, (latency, fifo, kinds) in enumerate(hosts):
        host = "site" if loopback and i == 0 else f"h{i}"
        if host != "site":
            net.add_host(host)
            links.append(net.connect("site", host, latency=latency,
                                     fifo=fifo))
        for j, kind in enumerate(kinds):
            name = f"{host}/{j}"
            if kind == "raw":
                port = f"raw-{j}"
                net.host(host).bind(port, raw_handler(name))
            else:
                receiver = NSDSReceiver(net, host, nsds_callback(name))
                nsds_sinks.append(receiver)
                port = receiver.port
            sinks.append((host, port))
    publishes = itertools.count(1)

    def subscribe(sink, topics, lifetime):
        host, port = sinks[sink % len(sinks)]
        table.subscribe(None, host, port, lifetime,
                        None if topics is None else list(topics))

    def publish(topic, shared, sequence):
        number = next(publishes)
        wire = {"channel": topic, "sequence": sequence, "time": k.now,
                "value": number}

        def make_payload(sub_id):
            key = (number,) if shared else (number, sub_id)
            if key not in issued:
                issued[key] = {**wire, "key": key}
            return issued[key]

        log.append(("published", k.now, number,
                    table.publish(topic, make_payload)))
        for delay in _LATENCIES:
            k.call_later(delay, lambda _, d=delay: log.append(
                ("mark", k.now, number, d)))

    for subscription in subscriptions:
        subscribe(*subscription)
    for op, *args in ops:
        if op == "subscribe":
            subscribe(*args[0])
        elif op == "unsubscribe":
            table.unsubscribe(f"sub-{args[0]}", None)
        elif op == "publish":
            k.call_later(args[3], lambda _, a=args: publish(*a[:3]))
        elif op == "outage" and links:
            link = links[args[0] % len(links)]
            net.set_link_state(link.a, link.b, not link.up)
        elif op == "advance":
            k.run(until=k.now + args[0])
    k.run()
    counts = [(r.accepted, r.gap_count, r.out_of_order) for r in nsds_sinks]
    return log, counts, net.stats


@settings(max_examples=150, deadline=None)
@given(hosts=st.lists(_HOST, min_size=1, max_size=3), loopback=st.booleans(),
       subscriptions=st.lists(_SUBSCRIPTION, min_size=1, max_size=8),
       ops=st.lists(_OPS, max_size=30))
def test_a_merged_push_runs_every_handler_as_a_datagram_each_did(
        hosts, loopback, subscriptions, ops):
    """Over any mix of sink hosts (loopback included), topic filters,
    lapses, cancellations, outages, shared and per-subscriber payloads
    and other entries due at the same instants: every handler sees the
    same payload object at the same instant, in the same global order,
    as under one datagram per subscriber; ``publish`` reaches as many;
    each NSDS receiver accepts and counts gaps and reorders the same;
    and no more datagrams are sent."""
    merged, merged_counts, merged_stats = _world(
        SubscriptionTable, hosts, loopback, subscriptions, ops)
    each, each_counts, each_stats = _world(
        OneDatagramEach, hosts, loopback, subscriptions, ops)
    assert merged == each
    assert all(entry[3] for entry in merged if len(entry) == 4
               and isinstance(entry[2], tuple))
    assert merged_counts == each_counts
    assert merged_stats["sent"] <= each_stats["sent"]


def _viewer_env(host="viewer"):
    """A publisher on ``site``, sinks on ``host`` and ``other``, and the
    destination port of every datagram sent, in order."""
    k = Kernel()
    net = Network(k, seed=0)
    for name in ("site", host, "other"):
        net.add_host(name)
    net.connect("site", host, latency=0.03, fifo=False)
    net.connect("site", "other", latency=0.01)
    ports = []

    def record(msg):
        ports.append(msg.port)
        return False

    net.add_drop_filter(record)
    ids = itertools.count(1)
    return k, net, SubscriptionTable(net, "site",
                                     lambda: f"sub-{next(ids)}"), ports


def _bind(net, host, port):
    got = []
    net.host(host).bind(port, got.append)
    return got


def test_a_run_of_one_subscriber_binds_no_fanout_port():
    """A lone subscriber, and runs of one host broken by another host,
    are sent to the sink ports themselves."""
    k, net, table, ports = _viewer_env()
    a, b = _bind(net, "viewer", "a"), _bind(net, "other", "b")
    for host, port in (("viewer", "a"), ("other", "b"), ("viewer", "a")):
        table.subscribe(None, host, port, 1e9)
    payload = {"n": 1}
    assert table.publish(None, lambda _: payload) == 3
    k.run()
    assert ports == ["a", "b", "a"]
    assert net.host("viewer")._fanouts == {} == net.host("other")._fanouts
    assert [m.payload for m in a] == [payload, payload] and len(b) == 1


def test_a_payload_built_per_subscriber_is_never_merged():
    """SDE notifications carry the ``sub_id``: two sinks on one host,
    subscribed to the same service data element, get a datagram each."""
    k, net, _, ports = _viewer_env()
    container = ServiceContainer(net, "site")
    service = NSDSService("stream")
    container.deploy(service)
    got = [_bind(net, "viewer", port) for port in ("n-1", "n-2")]
    rpc = RpcClient(net, "viewer")
    sub_ids = [k.run(until=k.process(rpc.call("site", "ogsi", "subscribe", {
        "service_id": "stream", "sde_name": "channels",
        "sink_host": "viewer", "sink_port": port, "lifetime": 1e9})))
        for port in ("n-1", "n-2")]
    del ports[:]
    service.ingest(0.0, {"force": 1.0})
    k.run()
    assert ports == ["n-1", "n-2"]
    assert [[m.payload["subscription"] for m in msgs] for msgs in got] \
        == [[sub_id] for sub_id in sub_ids]
    assert net.host("viewer")._fanouts == {}


def test_a_portal_outage_loses_the_push_for_every_cohosted_receiver():
    """One datagram carries a sample to the three viewers on ``portal``:
    an outage of that link drops it once, and each receiver counts the
    lost sequence in its own ``nsds.receiver.gaps``."""
    k, net, table, ports = _viewer_env("portal")
    receivers = [NSDSReceiver(net, "portal") for _ in range(3)]
    for receiver in receivers:
        table.subscribe(None, "portal", receiver.port, 1e9)

    def push(sequence):
        payload = {"channel": "force", "sequence": sequence,
                   "time": k.now, "value": 0.0}
        assert table.publish("force", lambda _: payload) == 3
        k.run()

    push(1)
    net.set_link_state("site", "portal", False)
    push(2)
    net.set_link_state("site", "portal", True)
    push(3)
    assert ports == ["fanout-1"] * 3
    assert net.stats["sent"] == 3 and net.stats["dropped"] == 1
    gaps = {record["labels"]["port"]: record["value"]
            for record in k.telemetry.metrics_snapshot()
            if record["name"] == "nsds.receiver.gaps"}
    assert gaps == {receiver.port: 1 for receiver in receivers}
    assert [(r.accepted, r.received_count("force"), r.loss_count("force"))
            for r in receivers] == [(2, 2, 1)] * 3


def test_a_member_with_no_listener_is_counted_as_unheard():
    """A subscription may name a port nobody bound: the fan-out hands the
    datagram to the bound members and counts the other as unheard, as a
    datagram of its own to that port was."""
    k, net, table, _ = _viewer_env()
    got = _bind(net, "viewer", "a")
    for port in ("ghost", "a"):
        table.subscribe(None, "viewer", port, 1e9)
    payload = {"n": 1}
    assert table.publish(None, lambda _: payload) == 2
    k.run()
    assert len(got) == 1
    assert (net.stats["delivered"], net.stats["no_listener"]) == (1, 1)


def test_a_run_for_an_unknown_host_is_one_unrouted_datagram():
    """``sink_host`` comes from a remote subscriber: a run of sinks on a
    host the network does not have binds nothing and is one datagram
    with no route, not a failure of the publisher."""
    k, net, table, _ = _viewer_env()
    for port in ("a", "b"):
        table.subscribe(None, "nowhere", port, 1e9)
    payload = {"n": 1}
    assert table.publish(None, lambda _: payload) == 2
    k.run()
    assert (net.stats["sent"], net.stats["no_route"]) == (1, 1)
