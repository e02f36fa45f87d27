"""Tests for the DAQ subsystem and the NSDS streaming service."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daq import DAQSystem, SensorChannel, StagingStore
from repro.net import Message, Network, RemoteException, RpcClient
from repro.nsds import NSDSReceiver, NSDSService, RingBuffer, StreamSample
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural.specimen import Sensor
from repro.telemetry import InMemorySink
from repro.util.errors import ConfigurationError


class TestStagingStore:
    def test_deposit_and_listing_order(self):
        s = StagingStore()
        s.deposit("b.dat", [(0.0, {"x": 1.0})], created=0.0)
        s.deposit("a.dat", [(1.0, {"x": 2.0})], created=1.0)
        assert s.names() == ["b.dat", "a.dat"]  # arrival order, not lexical

    def test_duplicate_name_rejected(self):
        s = StagingStore()
        s.deposit("f", [], created=0.0)
        with pytest.raises(ConfigurationError):
            s.deposit("f", [], created=1.0)

    def test_newer_than_cursor(self):
        s = StagingStore()
        for i in range(5):
            s.deposit(f"f{i}", [(float(i), {"x": 0.0})], created=float(i))
        newer = s.newer_than(3)
        assert [f.name for f in newer] == ["f3", "f4"]

    def test_checksum_distinguishes_content(self):
        s = StagingStore()
        f1 = s.deposit("f1", [(0.0, {"x": 1.0})], created=0.0)
        f2 = s.deposit("f2", [(0.0, {"x": 2.0})], created=0.0)
        assert f1.checksum != f2.checksum

    def test_size_scales_with_rows(self):
        s = StagingStore()
        small = s.deposit("s", [(0.0, {"x": 1.0})] * 2, created=0.0)
        big = s.deposit("b", [(0.0, {"x": 1.0})] * 200, created=0.0)
        assert big.size > small.size


class TestDAQSystem:
    def make_daq(self, kernel, **kw):
        store = StagingStore()
        daq = DAQSystem("uiuc", kernel, store, **kw)
        value = {"x": 0.0}
        daq.add_channel(SensorChannel("lvdt", lambda: value["x"],
                                      Sensor(noise_std=0.0)))
        return daq, store, value

    def test_sampling_cadence(self):
        k = Kernel()
        daq, store, _ = self.make_daq(k, sample_interval=0.5, block_size=10)
        daq.start()
        k.run(until=10.0)
        daq.stop()
        assert daq.samples_taken == 20

    def test_blocks_deposited(self):
        k = Kernel()
        daq, store, _ = self.make_daq(k, sample_interval=0.1, block_size=20)
        daq.start()
        k.run(until=10.0)
        daq.stop()
        assert len(store) == 5  # 100 samples / 20 per block
        first = store.get(store.names()[0])
        assert len(first.rows) == 20

    def test_stop_flushes_partial_block(self):
        k = Kernel()
        daq, store, _ = self.make_daq(k, sample_interval=0.1, block_size=1000)
        daq.start()
        k.run(until=1.0)
        daq.stop()
        assert len(store) == 1
        assert len(store.get(store.names()[0]).rows) == 10

    def test_live_listener_sees_every_sample(self):
        k = Kernel()
        daq, store, value = self.make_daq(k, sample_interval=1.0, block_size=5)
        seen = []
        daq.on_sample(lambda t, row: seen.append((t, row["lvdt"])))
        daq.start()

        def mover(kernel):
            for i in range(5):
                value["x"] = i * 0.1
                yield kernel.timeout(1.0)

        k.process(mover(k))
        k.run(until=5.5)
        daq.stop()
        assert len(seen) == 5
        assert seen[0][1] == pytest.approx(0.0)
        assert seen[-1][1] == pytest.approx(0.4)

    def test_duplicate_channel_rejected(self):
        k = Kernel()
        daq, _, _ = self.make_daq(k)
        with pytest.raises(ConfigurationError):
            daq.add_channel(SensorChannel("lvdt", lambda: 0.0))

    def test_start_without_channels_rejected(self):
        k = Kernel()
        daq = DAQSystem("x", k, StagingStore())
        with pytest.raises(ConfigurationError):
            daq.start()

    def test_invalid_config_rejected(self):
        k = Kernel()
        with pytest.raises(ConfigurationError):
            DAQSystem("x", k, StagingStore(), sample_interval=0)


class TestRingBuffer:
    def test_drops_oldest_when_full(self):
        rb = RingBuffer(capacity=3)
        for i in range(5):
            rb.append(StreamSample("c", i + 1, float(i), i))
        assert rb.dropped == 2
        assert [s.sequence for s in rb.drain()] == [3, 4, 5]

    def test_latest(self):
        rb = RingBuffer(capacity=2)
        assert rb.latest() is None
        rb.append(StreamSample("c", 1, 0.0, "a"))
        assert rb.latest().value == "a"

    def test_drain_partial(self):
        rb = RingBuffer(capacity=10)
        for i in range(5):
            rb.append(StreamSample("c", i + 1, 0.0, i))
        assert len(rb.drain(2)) == 2
        assert len(rb) == 3

    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, capacity, n):
        rb = RingBuffer(capacity=capacity)
        for i in range(n):
            rb.append(StreamSample("c", i + 1, 0.0, i))
        assert len(rb) == min(capacity, n)
        assert rb.dropped == max(0, n - capacity)
        assert rb.appended == n


def nsds_env(*, loss=0.0, seed=0, fifo=False):
    k = Kernel()
    net = Network(k, seed=seed)
    net.add_host("site")
    net.add_host("viewer")
    net.connect("site", "viewer", latency=0.01, loss=loss, fifo=fifo)
    container = ServiceContainer(net, "site")
    nsds = NSDSService("nsds-site")
    container.deploy(nsds)
    rpc = RpcClient(net, "viewer", default_timeout=30.0)
    return k, net, nsds, rpc


def call(k, rpc, op, params):
    return k.run(until=k.process(rpc.call(
        "site", "ogsi", "invoke",
        {"service_id": "nsds-site", "operation": op, "params": params})))


class TestNSDS:
    def test_ingest_creates_channels(self):
        k, net, nsds, rpc = nsds_env()
        nsds.ingest(0.0, {"force": 1.0, "disp": 0.01})
        assert call(k, rpc, "listChannels", {}) == ["disp", "force"]

    def test_get_latest(self):
        k, net, nsds, rpc = nsds_env()
        nsds.ingest(0.0, {"force": 1.0})
        nsds.ingest(1.0, {"force": 2.0})
        latest = call(k, rpc, "getLatest", {"channel": "force"})
        assert latest["value"] == 2.0 and latest["sequence"] == 2

    def test_unknown_channel_error(self):
        k, net, nsds, rpc = nsds_env()

        def go():
            try:
                yield from rpc.call("site", "ogsi", "invoke", {
                    "service_id": "nsds-site", "operation": "getLatest",
                    "params": {"channel": "ghost"}})
            except RemoteException as exc:
                return exc.remote_type

        assert k.run(until=k.process(go())) == "ProtocolError"

    def test_subscribe_and_push(self):
        k, net, nsds, rpc = nsds_env()
        samples = []
        recv = NSDSReceiver(net, "viewer", callback=samples.append)
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port,
                                   "lifetime": 1000.0})
        for i in range(10):
            nsds.ingest(float(i), {"force": float(i)})
        k.run()
        assert recv.received_count("force") == 10
        samples.sort(key=lambda s: s.sequence)  # late arrivals into place
        assert [s.value for s in samples] == [float(i) for i in range(10)]
        assert recv.loss_count("force") == 0

    def test_channel_filter(self):
        k, net, nsds, rpc = nsds_env()
        recv = NSDSReceiver(net, "viewer")
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port,
                                   "channels": ["force"],
                                   "lifetime": 1000.0})
        nsds.ingest(0.0, {"force": 1.0, "disp": 2.0})
        k.run()
        assert recv.received_count("force") == 1
        assert recv.received_count("disp") == 0

    def test_best_effort_loss_visible_in_gaps(self):
        k, net, nsds, rpc = nsds_env(loss=0.4, seed=7)
        recv = NSDSReceiver(net, "viewer")
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port,
                                   "lifetime": 1000.0})
        for i in range(200):
            nsds.ingest(float(i), {"force": float(i)})
        k.run()
        received = recv.received_count("force")
        assert 0 < received < 200
        assert recv.loss_count("force") > 0

    def test_ring_buffer_overflow_counted(self):
        k, net, nsds, rpc = nsds_env()
        nsds.buffer_capacity = 16
        for i in range(100):
            nsds.ingest(float(i), {"force": float(i)})
        assert nsds.drop_stats()["force"] == 84

    def test_drain_for_pull_viewers(self):
        k, net, nsds, rpc = nsds_env()
        for i in range(5):
            nsds.ingest(float(i), {"force": float(i)})
        out = call(k, rpc, "drain", {"channel": "force", "max_items": 3})
        assert [s["value"] for s in out] == [0.0, 1.0, 2.0]
        out2 = call(k, rpc, "drain", {"channel": "force"})
        assert [s["value"] for s in out2] == [3.0, 4.0]

    def test_gap_and_reorder_counters_in_telemetry_hub(self):
        """Receiver gap accounting is readable from the metric registry,
        labelled by host and port, exactly like every other metric."""
        k, net, nsds, rpc = nsds_env()
        recv = NSDSReceiver(net, "viewer")

        def deliver(seq):
            recv._on_message(Message(src="site", dst="viewer",
                                     port=recv.port,
                                     payload={"stream": "s", "channel": "c",
                                              "sequence": seq, "time": 0.0,
                                              "value": seq},
                                     msg_id=f"m{seq}", send_time=0.0))

        for seq in (1, 2, 5, 4, 9):
            deliver(seq)
        # 3 skipped (2->5 gap of 2, one later filled), 4 late, 6-8 skipped
        assert recv.gap_count == 5
        assert recv.out_of_order == 1
        gaps = k.telemetry.registry.find("nsds.receiver.gaps",
                                         host="viewer", port=recv.port)
        ooo = k.telemetry.registry.find("nsds.receiver.out_of_order",
                                        host="viewer", port=recv.port)
        assert gaps.value == 5 and ooo.value == 1

    def test_a_late_joiner_has_lost_nothing(self):
        """Loss is counted from the first sequence a subscriber sees:
        what was streamed before it subscribed was never its to lose."""
        k, net, nsds, rpc = nsds_env()
        for i in range(5):
            nsds.ingest(float(i), {"force": float(i)})
        samples = []
        recv = NSDSReceiver(net, "viewer", callback=samples.append)
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port,
                                   "lifetime": 1000.0})
        for i in range(5, 10):
            nsds.ingest(float(i), {"force": float(i)})
        k.run()
        assert [s.sequence for s in samples] == [6, 7, 8, 9, 10]
        assert recv.received_count("force") == 5
        assert recv.highest_seq == {"force": 10}
        assert (recv.gap_count, recv.loss_count("force")) == (0, 0)
        assert recv.loss_count("never-seen") == 0

    def test_loss_is_counted_between_the_lowest_and_highest_seen(self):
        k, net, nsds, rpc = nsds_env()
        recv = NSDSReceiver(net, "viewer")
        for seq in (7, 6, 9):   # joined at 7; 6 arrived late; 8 never did
            recv._on_message(Message(
                src="site", dst="viewer", port=recv.port,
                payload={"stream": "s", "channel": "c", "sequence": seq,
                         "time": 0.0, "value": seq},
                msg_id=f"m{seq}", send_time=0.0))
        assert (recv.gap_count, recv.out_of_order) == (1, 1)
        assert recv.received_count("c") == 3
        assert recv.loss_count("c") == 1

    def test_a_datagram_that_is_not_a_sample_is_dropped(self):
        k, net, nsds, rpc = nsds_env()
        samples = []
        recv = NSDSReceiver(net, "viewer", callback=samples.append)
        for payload in ("text", {"channel": "c"},
                        {"channel": "c", "sequence": "1", "time": 0.0,
                         "value": 1.0},
                        # an int to isinstance, not a sequence
                        {"channel": "c", "sequence": True, "time": 0.0,
                         "value": 1.0},
                        {"channel": 3, "sequence": 1, "time": 0.0,
                         "value": 1.0}):
            net.send("site", "viewer", recv.port, payload)
        k.run()
        assert samples == [] and recv.accepted == 0
        assert recv.highest_seq == {} and recv.received_count("c") == 0
        assert recv.subscriber_errors == 0

    @pytest.mark.parametrize("op, params", [
        ("getLatest", {"channel": ["force"]}),
        ("getLatest", {"channel": 3}),
        ("drain", {"channel": ["force"]}),
        ("drain", {"channel": "force", "max_items": "3"}),
        ("drain", {"channel": "force", "max_items": 2.5}),
        ("drain", {"channel": "force", "max_items": 0}),
        ("drain", {"channel": "force", "max_items": -1}),
        ("drain", {"channel": "force", "max_items": True}),
    ], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_a_malformed_read_is_a_typed_refusal(self, op, params):
        k, net, nsds, rpc = nsds_env()
        sink = k.telemetry.add_sink(InMemorySink())
        for i in range(5):
            nsds.ingest(float(i), {"force": float(i)})

        def go():
            try:
                yield from rpc.call("site", "ogsi", "invoke", {
                    "service_id": "nsds-site", "operation": op,
                    "params": params})
            except RemoteException as exc:
                return exc

        refusal = k.run(until=k.process(go()))
        assert isinstance(refusal, RemoteException)
        assert refusal.remote_type == "ProtocolError"
        assert "rpc.handler_error" not in [r.kind for r in sink.records]
        assert len(nsds.buffers["force"]) == 5

    def test_every_subscriber_gets_an_equal_payload(self):
        k, net, nsds, rpc = nsds_env()
        got = {}
        for i in range(3):
            port = f"raw-{i}"
            got[port] = []
            net.host("viewer").bind(port, got[port].append)
            call(k, rpc, "subscribe", {"sink_host": "viewer",
                                       "sink_port": port, "lifetime": 1e9})
        nsds.ingest(2.0, {"force": 7.5})
        k.run()
        wire = {"stream": "nsds-site", "channel": "force", "sequence": 1,
                "time": 2.0, "value": 7.5}
        assert [[m.payload for m in msgs] for msgs in got.values()] \
            == [[wire]] * 3
        assert nsds.pushed == 3

    def test_two_receivers_count_independently(self):
        k, net, nsds, rpc = nsds_env()
        first = NSDSReceiver(net, "viewer")
        second = NSDSReceiver(net, "viewer")
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": second.port,
                                   "lifetime": 1000.0})
        for i in range(5):
            nsds.ingest(float(i), {"force": float(i)})
        k.run()
        # only the subscribed receiver saw traffic; neither counted gaps
        assert second.received_count("force") == 5
        assert first.received_count("force") == 0
        assert first.gap_count == 0 and second.gap_count == 0

    def test_subscription_expires(self):
        k, net, nsds, rpc = nsds_env()
        recv = NSDSReceiver(net, "viewer")
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port, "lifetime": 5.0})
        k.run(until=10.0)
        nsds.ingest(10.0, {"force": 1.0})
        k.run()
        assert recv.received_count("force") == 0
        assert k.telemetry.counter("nsds.stream.expired_subs",
                                   service=nsds.service_id).value == 1

    def test_a_reaped_nsds_stops_pushing(self):
        """Soft-state lifetime ends the stream too: the DAQ tap may keep
        calling ``ingest``, pull viewers still find the buffer, but
        nothing is pushed to the old subscribers."""
        k, net, nsds, rpc = nsds_env()
        recv = NSDSReceiver(net, "viewer")
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port, "lifetime": 1e9})
        k.run(until=k.process(rpc.call(
            "site", "ogsi", "setTerminationTime",
            {"service_id": "nsds-site", "termination_time": 20.0})))
        nsds.ingest(1.0, {"force": 1.0})
        k.run(until=30.0)
        assert recv.received_count("force") == 1
        assert "nsds-site" not in nsds.container.services  # reaped at t=20
        nsds.ingest(30.0, {"force": 2.0})
        k.run()
        assert recv.received_count("force") == 1 and nsds.pushed == 1
        assert nsds.buffers["force"].latest().value == 2.0
        assert k.telemetry.counter("nsds.stream.expired_subs",
                                   service="nsds-site").value == 0

    def test_daq_to_nsds_wiring(self):
        """The deployment pattern: daq.on_sample(nsds.ingest)."""
        k, net, nsds, rpc = nsds_env()
        store = StagingStore()
        daq = DAQSystem("site", k, store, sample_interval=0.5, block_size=100)
        daq.add_channel(SensorChannel("load", lambda: 42.0,
                                      Sensor(noise_std=0.0)))
        daq.on_sample(nsds.ingest)
        samples = []
        recv = NSDSReceiver(net, "viewer", callback=samples.append)
        call(k, rpc, "subscribe", {"sink_host": "viewer",
                                   "sink_port": recv.port,
                                   "lifetime": 1000.0})
        daq.start()
        k.run(until=5.25)
        daq.stop()
        k.run()
        assert recv.received_count("load") == 10
        assert [s.value for s in samples] == [42.0] * 10


_CHANNELS = st.sampled_from(["a", "b"])
_SAMPLE = st.fixed_dictionaries({
    "stream": st.just("s"), "channel": _CHANNELS,
    "sequence": st.integers(1, 12), "time": st.floats(0, 10),
    "value": st.integers()})
_MALFORMED = st.one_of(
    st.text(max_size=3), st.none(), st.integers(),
    st.fixed_dictionaries({"channel": _CHANNELS,
                           "sequence": st.sampled_from([True, "1", 1.0]),
                           "time": st.just(0.0), "value": st.just(0)}),
    st.fixed_dictionaries({"channel": st.integers(),
                           "sequence": st.integers(1, 12),
                           "time": st.just(0.0), "value": st.just(0)}),
    st.fixed_dictionaries({"channel": _CHANNELS,
                           "sequence": st.integers(1, 12)}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_SAMPLE, _MALFORMED), max_size=40))
def test_a_consumer_changes_no_accounting(stream):
    """Duplicates, gaps, reorders and junk: a receiver with no callback
    (which builds no samples) counts exactly what a collecting one does,
    and the collecting one is handed one sample per accepted datagram."""
    k = Kernel()
    net = Network(k)
    net.add_host("viewer")
    bare = NSDSReceiver(net, "viewer")
    collected = []
    collecting = NSDSReceiver(net, "viewer", callback=collected.append)
    for i, payload in enumerate(stream):
        for recv in (bare, collecting):
            recv._on_message(Message("site", "viewer", recv.port, payload,
                                     f"m{i}", 0.0))
    for attr in ("accepted", "gap_count", "out_of_order", "highest_seq"):
        assert getattr(bare, attr) == getattr(collecting, attr)
    for channel in ("a", "b"):
        assert bare.received_count(channel) \
            == collecting.received_count(channel)
        assert bare.loss_count(channel) == collecting.loss_count(channel)
    accepted = [p for p in stream if isinstance(p, dict)
                and p.get("channel") in ("a", "b")
                and type(p.get("sequence")) is int and "time" in p]
    assert collected == [StreamSample(p["channel"], p["sequence"],
                                      p["time"], p["value"])
                         for p in accepted]
    assert collecting.accepted == len(collected)
    assert all(type(sample) is StreamSample for sample in collected)
