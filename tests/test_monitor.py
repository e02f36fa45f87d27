"""Tests for the live operations console (repro.monitor)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import SimulationPlugin, make_displacement_actions
from repro.monitor import (
    Alert,
    ExperimentMonitor,
    HealthPublisher,
    TelemetryStreamer,
    blame_table,
    critical_path_report,
    metrics_sample_checker,
    ntcp_health_probe,
    step_traces,
    validate_alert_payload,
    validate_health_payload,
    validate_metrics_sample,
)
from repro.monitor.schema import SCHEMA_ID, SUMMARY_KEYS, MonitorSchemaError
from repro.most import ExperimentSession, MOSTConfig
from repro.net import Network, RpcClient
from repro.net.network import Message
from repro.nsds import NSDSReceiver, NSDSService, StreamSample
from repro.ogsi import ServiceContainer
from repro.ogsi.notification import NotificationSink
from repro.sim import Kernel
from repro.structural import LinearSubstructure
from repro.telemetry import InMemorySink
from repro.telemetry.metrics import Counter, Gauge
from repro.telemetry.report import CORE_PHASES
from repro.testing import make_site


# -- payload builders ---------------------------------------------------------
def health(source="ntcp-uiuc", *, time=0.0, status="running", backlog=0,
           **extra):
    payload = {"schema": SCHEMA_ID, "kind": "health", "source": source,
               "time": time, "status": status, "backlog": backlog,
               "detail": {}}
    payload.update(extra)
    return payload


def counter_record(name, delta, total, **labels):
    return {"name": name, "type": "counter", "labels": labels,
            "value": delta, "total": total}


def hist_record(name, count, sum_, p95, **labels):
    mean = sum_ / count if count else 0.0
    return {"name": name, "type": "histogram", "labels": labels,
            "summary": {"count": count, "sum": sum_, "mean": mean,
                        "min": 0.0, "max": p95, "p50": mean, "p95": p95,
                        "p99": p95}}


def metrics_sample(seq, records, *, time=0.0, source="coord"):
    return {"schema": SCHEMA_ID, "kind": "metrics", "source": source,
            "time": time, "seq": seq, "metrics": records}


def stream_sample(seq, records, *, time=0.0):
    return StreamSample(channel=TelemetryStreamer.CHANNEL, sequence=seq,
                        time=time, value=metrics_sample(seq, records,
                                                        time=time))


def alert_payload(**overrides):
    payload = {"schema": SCHEMA_ID, "kind": "alert",
               "source": "monitor-console", "time": 10.0,
               "alert_id": "monitor-console-0001", "alert": "stall",
               "severity": "critical", "step": 3, "site": None,
               "message": "no committed step for 130s", "detail": {}}
    payload.update(overrides)
    return payload


class TestMonitorSchema:
    def test_health_payload_valid(self):
        validate_health_payload(health(step=17, plugin="simulation"))

    @pytest.mark.parametrize("mutation", [
        {"schema": "repro.monitor/v0"},
        {"kind": "metrics"},
        {"source": ""},
        {"time": "noon"},
        {"status": "on-fire"},
        {"backlog": -1},
        {"step": -2},
        {"plugin": 7},
        {"detail": []},
    ])
    def test_health_payload_rejected(self, mutation):
        with pytest.raises(MonitorSchemaError):
            validate_health_payload(health(**mutation))

    def test_metrics_sample_valid(self):
        validate_metrics_sample(metrics_sample(1, [
            counter_record("coordinator.mspsds.steps", 2, 10.0),
            hist_record("core.server.execute_time", 5, 60.0, 14.0,
                        site="ntcp-uiuc"),
        ]))

    def test_metrics_counter_total_below_delta_rejected(self):
        with pytest.raises(MonitorSchemaError):
            validate_metrics_sample(metrics_sample(1, [
                counter_record("coordinator.mspsds.steps", 5, 3.0)]))

    def test_metrics_histogram_missing_p95_rejected(self):
        record = hist_record("core.server.execute_time", 5, 60.0, 14.0)
        del record["summary"]["p95"]
        with pytest.raises(MonitorSchemaError):
            validate_metrics_sample(metrics_sample(1, [record]))

    def test_metrics_bad_seq_rejected(self):
        with pytest.raises(MonitorSchemaError):
            validate_metrics_sample(metrics_sample(0, []))

    def test_alert_payload_valid(self):
        validate_alert_payload(alert_payload())
        validate_alert_payload(alert_payload(alert="slow_site",
                                             severity="warning",
                                             site="ntcp-ncsa"))

    @pytest.mark.parametrize("mutation", [
        {"alert": "meltdown"},
        {"severity": "mild"},
        {"alert_id": ""},
        {"site": ""},
        {"message": ""},
        {"step": -2},
    ])
    def test_alert_payload_rejected(self, mutation):
        with pytest.raises(MonitorSchemaError):
            validate_alert_payload(alert_payload(**mutation))


def _verdict(validate, payload):
    try:
        validate(payload)
    except MonitorSchemaError as exc:
        return f"refused: {exc}"
    return "accepted"


#: a registry of identities a run could stream: (name, type, labels or
#: None for "no labels key")
_IDENTITIES = st.lists(st.tuples(
    st.sampled_from(["a.b.count", "a.b.depth", "x.y.z", "bad"]),
    st.sampled_from(["counter", "gauge", "histogram"]),
    st.one_of(st.none(), st.dictionaries(
        st.sampled_from(["site", "run", "stat"]),
        st.sampled_from(["", "uiuc", "ncsa"]), max_size=3))),
    min_size=1, max_size=4)
_NUMBERS = st.one_of(st.integers(0, 10**6),
                     st.floats(0.0, 1e9, allow_subnormal=False))
_HOSTILE_NUMBERS = (True, np.float64(1.5), 10**400, -10**400, float("nan"),
                    float("inf"), float("-inf"), -1.0, "1", None)
#: (record index, what to damage, hostile number index)
_MUTATIONS = st.lists(st.tuples(
    st.integers(0, 5),
    st.sampled_from(["value", "total", "p95", "time", "permute", "none",
                     "unhashable", "drop", "type", "seq"]),
    st.integers(0, len(_HOSTILE_NUMBERS) - 1)), max_size=2)


def _record(name, kind, labels, a, b):
    record = {"name": name, "type": kind}
    if labels is not None:
        record["labels"] = dict(labels)
    if kind == "counter":
        record.update(value=a, total=a + b)
    elif kind == "gauge":
        record["value"] = a
    else:
        record["summary"] = dict.fromkeys(SUMMARY_KEYS, b)
    return record


def _damage(sample, index, what, hostile):
    records = sample["metrics"]
    if what in ("time", "seq"):
        sample[what] = hostile
        return
    if not records:
        return
    record = records[index % len(records)]
    if what in ("value", "total") and what in record:
        record[what] = hostile
    elif what == "p95" and "summary" in record:
        record["summary"]["p95"] = hostile
    elif what == "permute" and record.get("labels"):
        record["labels"] = dict(reversed(record["labels"].items()))
    elif what == "none":
        record["labels"] = None
    elif what == "unhashable":
        record["labels"] = {**(record.get("labels") or {}),
                            "site": ["uiuc"]}
    elif what == "drop":
        record.pop("labels", None)
    elif what == "type":
        record["type"] = {"counter": "gauge", "gauge": "histogram",
                          "histogram": "counter"}[record["type"]]


def _route(record):
    """A route that names its record's identity, labels as handed."""
    return (record["name"], record["type"],
            repr(record.get("labels", "no labels")))


class TestPerReceiverChecker:
    @settings(max_examples=200, deadline=None)
    @given(identities=_IDENTITIES, samples=st.lists(st.tuples(
        st.lists(st.tuples(st.integers(0, 3), _NUMBERS, _NUMBERS),
                 max_size=5), _MUTATIONS), min_size=1, max_size=12))
    def test_a_checker_refuses_what_the_validator_refuses(self, identities,
                                                          samples):
        """A long-lived checker, fed valid samples of a few identities
        and hostile mutations of them, accepts and refuses exactly what
        the stateless validator does, with the same text; an accepted
        sample hands back ``route(record)`` per record, in order, and
        ``route`` runs once per identity."""
        routed = []
        check = metrics_sample_checker(
            lambda record: routed.append(_route(record)) or routed[-1])
        for seq, (picks, mutations) in enumerate(samples, 1):
            sample = metrics_sample(seq, [
                _record(*identities[i % len(identities)], a, b)
                for i, a, b in picks], time=float(seq))
            for index, what, hostile in mutations:
                _damage(sample, index, what, _HOSTILE_NUMBERS[hostile])
            expected = _verdict(validate_metrics_sample, sample)
            routes = []
            assert _verdict(lambda s: routes.extend(check(s)),
                            sample) == expected, sample
            if expected == "accepted":
                assert routes == [_route(r) for r in sample["metrics"]]
        assert len(routed) == len(set(routed))

    def test_absent_labels_and_null_labels_are_two_identities(self):
        check = metrics_sample_checker(_route)
        bare = {"name": "a.b.c", "type": "gauge", "value": 1.0}
        assert check(metrics_sample(1, [bare])) == [_route(bare)]
        with pytest.raises(MonitorSchemaError,
                           match=r"^\$\.metrics\[0\]\.labels: expected an "
                                 r"object, got NoneType$"):
            check(metrics_sample(2, [{**bare, "labels": None}]))
        assert check(metrics_sample(3, [bare, bare])) == [_route(bare)] * 2


class TestHealthPublisher:
    def make_env(self):
        return make_site(SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0]), compute_time=0.05))

    def test_publish_now_writes_versioned_sde(self):
        env = self.make_env()
        pub = HealthPublisher(env.kernel, env.server.service_data,
                              source=env.server.service_id,
                              probe=ntcp_health_probe(env.server))
        first = pub.publish_now()
        validate_health_payload(first)
        assert first["status"] == "running" and first["backlog"] == 0
        assert first["plugin"] == "simulation"
        v1 = env.server.service_data.get("health").version
        pub.publish_now()
        assert env.server.service_data.get("health").version == v1 + 1

    def test_periodic_loop_and_final_status(self):
        env = self.make_env()
        pub = HealthPublisher(env.kernel, env.server.service_data,
                              source=env.server.service_id,
                              probe=ntcp_health_probe(env.server),
                              interval=10.0)
        pub.start()
        env.kernel.run(until=35.0)
        assert pub.published == 4  # t=0, 10, 20, 30
        pub.stop(final_status="stopped")
        assert env.server.service_data.value("health")["status"] == "stopped"
        env.kernel.run(until=100.0)
        assert pub.published == 5  # loop really stopped
        assert env.kernel.telemetry.counter(
            "monitor.health.published",
            source=env.server.service_id).value == 5

    def test_backlog_counts_open_transactions(self):
        env = self.make_env()
        probe = ntcp_health_probe(env.server)

        def go():
            yield from env.client.propose(
                env.handle, "t1", make_displacement_actions({0: 0.001}))

        env.run(go())
        assert probe()["backlog"] == 1  # proposed, never executed/aborted


_NAN = float("nan")


def _leaf_types(value):
    """The type name of every leaf, in the shape of ``value``."""
    if isinstance(value, dict):
        return {key: _leaf_types(item) for key, item in value.items()}
    return type(value).__name__


def streamer_env(**kw):
    kernel = Kernel()
    network = Network(kernel, seed=1)
    network.add_host("coord")
    network.add_host("portal")
    network.connect("coord", "portal", latency=0.01)
    nsds = NSDSService("nsds-monitor")
    ServiceContainer(network, "coord").deploy(nsds)
    streamer = TelemetryStreamer(kernel, nsds, source="coord", **kw)
    return kernel, network, nsds, streamer


class TestTelemetryStreamer:
    def test_counter_deltas_and_totals(self):
        kernel, _, _, streamer = streamer_env()
        steps = kernel.telemetry.counter("coordinator.mspsds.steps")
        steps.inc(3)
        first = streamer.flush()
        steps.inc(2)
        second = streamer.flush()
        assert (first["seq"], second["seq"]) == (1, 2)
        rec1 = first["metrics"][0]
        rec2 = second["metrics"][0]
        assert rec1["value"] == 3 and rec1["total"] == 3
        assert rec2["value"] == 2 and rec2["total"] == 5

    def test_histogram_summary_carries_p95(self):
        kernel, _, _, streamer = streamer_env()
        hist = kernel.telemetry.histogram("core.server.execute_time",
                                          site="ntcp-uiuc")
        for v in range(1, 101):
            hist.observe(float(v))
        [record] = [r for r in streamer.flush()["metrics"]
                    if r["name"] == "core.server.execute_time"]
        summary = record["summary"]
        assert summary["count"] == 100
        assert summary["p95"] == pytest.approx(95.05)

    def test_prefix_filter(self):
        kernel, _, _, streamer = streamer_env(prefixes=("coordinator.",))
        kernel.telemetry.counter("coordinator.mspsds.steps").inc()
        kernel.telemetry.counter("chef.sessions.opened").inc()
        names = [r["name"] for r in streamer.flush()["metrics"]]
        assert names == ["coordinator.mspsds.steps"]

    def test_an_instrument_registered_after_a_flush_is_in_the_next(self):
        """The streamer re-filters the registry only when it has grown;
        a late instrument still streams, in key order."""
        kernel, _, _, streamer = streamer_env(prefixes=("coordinator.",))
        hub = kernel.telemetry
        hub.counter("coordinator.mspsds.steps").inc()
        names = [r["name"] for r in streamer.flush()["metrics"]]
        assert names == ["coordinator.mspsds.steps"]
        hub.counter("chef.sessions.opened").inc()
        hub.gauge("coordinator.link.lag").set(2.0)
        hub.histogram("coordinator.step.latency").observe(1.0)
        names = [r["name"] for r in streamer.flush()["metrics"]]
        assert names == ["coordinator.link.lag", "coordinator.mspsds.steps",
                         "coordinator.step.latency"]

    def test_first_flush_waits_one_interval(self):
        """No sample may be ingested before a subscriber can exist."""
        kernel, _, nsds, streamer = streamer_env(interval=30.0)
        streamer.start()
        kernel.run(until=29.0)
        assert streamer.seq == 0 and nsds.pushed == 0
        kernel.run(until=31.0)
        assert streamer.seq == 1

    def test_stop_final_flush(self):
        kernel, _, _, streamer = streamer_env()
        streamer.start()
        streamer.stop()
        assert streamer.seq == 1
        streamer.stop()  # idempotent: no second flush
        assert streamer.seq == 1

    def test_every_instrument_kind_streams_a_valid_sample(self):
        """The producer's pin: ``flush`` does not walk what it has just
        built, so the shape of each kind of record is held here."""
        kernel, _, _, streamer = streamer_env()
        hub = kernel.telemetry
        steps = hub.counter("coordinator.mspsds.steps", run_id="r")
        steps.inc(3)
        hub.counter("chef.sessions.opened").inc()             # no labels
        hub.gauge("net.breaker.state", site="uiuc").set(1.0)
        hub.histogram("net.rpc.latency", method="propose")    # empty
        populated = hub.histogram("core.server.execute_time", site="a")
        for value in (3.0, 1.0, 2.0):
            populated.observe(value)
        first = streamer.flush()
        validate_metrics_sample(first)
        assert {(r["type"], bool(r["labels"]), bool(r.get("summary", {})
                                                    .get("count")))
                for r in first["metrics"]} >= {
            ("counter", True, False), ("counter", False, False),
            ("gauge", True, False), ("histogram", True, False),
            ("histogram", True, True)}
        steps.inc(2)
        second = streamer.flush()
        validate_metrics_sample(second)
        moved = {r["name"]: (r["value"], r["total"])
                 for r in second["metrics"] if r["type"] == "counter"}
        assert moved["coordinator.mspsds.steps"] == (2, 5)
        assert moved["chef.sessions.opened"] == (0, 1)
        # records carry the instrument's own labels dict, not a copy
        assert all(r["labels"] is hub.registry.find(
                       r["name"], **r["labels"]).labels
                   for r in second["metrics"])

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("inc"), st.integers(0, 2),
                  st.sampled_from([0, 1, 2, 0.0, 0.5, 1.0, _NAN])),
        st.tuples(st.just("set"), st.integers(0, 1),
                  st.sampled_from([0.0, -0.0, _NAN, 1, 1.0, 2.5])),
        st.tuples(st.just("assign"), st.integers(0, 1),
                  st.sampled_from([0, 1, 1.0, -0.0])),
        st.tuples(st.just("observe"), st.integers(0, 1),
                  st.sampled_from([0.0, 1.5, -2.0, 1])),
        st.tuples(st.just("summary"), st.integers(0, 1), st.none()),
        st.tuples(st.just("flush"), st.none(), st.none())), max_size=60))
    def test_a_reused_record_is_exactly_a_fresh_one(self, ops):
        """Whatever the instruments do between flushes — int and float
        increments, ``inc(0)``, an int total turning float, a gauge at
        0.0, -0.0, NaN or an int, an observation, a summary read by
        someone else — every payload is what a streamer with no memory
        of its records would build, to the JSON text and the type of
        every leaf; and an instrument whose record would print and type
        as its last one (NaN aside) is re-sent as that very object."""
        kernel, _, _, streamer = streamer_env()
        hub = kernel.telemetry
        counters = [hub.counter("a.b.c", n=str(i)) for i in range(3)]
        gauges = [hub.gauge("a.b.g", n=str(i)) for i in range(2)]
        hists = [hub.histogram("a.b.h", n=str(i)) for i in range(2)]
        totals, shipped = {}, {}

        def fresh(metric):
            if isinstance(metric, Counter):
                delta = metric.value - totals.get(metric.key, 0)
                totals[metric.key] = metric.value
                return {"name": metric.name, "type": "counter",
                        "labels": metric.labels, "value": delta,
                        "total": metric.value}
            if isinstance(metric, Gauge):
                return {"name": metric.name, "type": "gauge",
                        "labels": metric.labels, "value": metric.value}
            summary = metric.summary()
            return {"name": metric.name, "type": "histogram",
                    "labels": metric.labels,
                    "summary": {key: summary[key] for key in SUMMARY_KEYS}}

        def printed(record):
            return json.dumps(record), repr(_leaf_types(record))

        for op, index, value in [*ops, ("flush", None, None)]:
            if op == "inc":
                counters[index].inc(value)
            elif op == "set":
                gauges[index].set(value)
            elif op == "assign":
                gauges[index].value = value
            elif op == "observe":
                hists[index].observe(value)
            elif op == "summary":
                hists[index].summary()
            else:
                records = streamer.flush()["metrics"]
                expected = [fresh(metric) for metric in hub.registry]
                assert [printed(r) for r in records] == \
                    [printed(r) for r in expected]
                for record in records:
                    key = (record["name"], repr(record["labels"]))
                    last = shipped.get(key)
                    if last is not None and "NaN" not in printed(record)[0]:
                        assert (record is last[0]) == \
                            (printed(record) == last[1])
                    shipped[key] = record, printed(record)

    def test_stream_reaches_receiver_with_contiguous_seqs(self):
        kernel, network, nsds, streamer = streamer_env(interval=10.0)
        samples = []
        recv = NSDSReceiver(network, "portal", callback=samples.append)
        nsds._op_subscribe(None, "portal", recv.port, lifetime=1000.0)
        kernel.telemetry.counter("coordinator.mspsds.steps").inc()
        streamer.start()
        kernel.run(until=45.0)
        assert recv.received_count(TelemetryStreamer.CHANNEL) == 4
        assert recv.gap_count == 0
        assert len(samples) == 4
        for sample in samples:
            validate_metrics_sample(sample.value)


def monitor_env(**kw):
    kernel = Kernel()
    network = Network(kernel, seed=2)
    network.add_host("portal")
    network.add_host("coord")
    network.connect("portal", "coord", latency=0.01)
    container = ServiceContainer(network, "portal")
    monitor = ExperimentMonitor(**kw)
    container.deploy(monitor)
    return kernel, network, container, monitor


class TestMonitorDetectors:
    def test_stall_fires_and_recovers(self):
        kernel, _, _, monitor = monitor_env()
        monitor.start()
        kernel.run(until=130.0)
        [alert] = monitor.alerts
        assert alert.kind == "stall" and alert.severity == "critical"
        assert alert.step == -1 and alert.time == 120.0
        # progress closes the open stall episode span
        monitor.on_notification({"sde_name": "health",
                                 "value": health(source="coordinator",
                                                 step=5)})
        episodes = kernel.telemetry.spans("monitor.stall.episode")
        assert len(episodes) == 1
        assert episodes[0].attrs["recovered_step"] == 5
        # and a fresh silence can fire a second stall
        kernel.run(until=280.0)
        assert [a.kind for a in monitor.alerts] == ["stall", "stall"]
        console = {"service": monitor.service_id}
        assert kernel.telemetry.counter("monitor.alerts.raised", kind="stall",
                                        **console).value == 2
        assert kernel.telemetry.counter("monitor.console.health_updates",
                                        **console).value == 1

    def test_no_stall_when_finished(self):
        kernel, _, _, monitor = monitor_env()
        monitor.start()
        monitor.on_notification({"sde_name": "health",
                                 "value": health(source="coordinator",
                                                 status="stopped", step=9)})
        kernel.run(until=500.0)
        assert monitor.alerts == []

    def test_slow_site_p95_over_budget(self):
        kernel, _, _, monitor = monitor_env()
        monitor.on_stream_sample(stream_sample(1, [
            hist_record("core.server.execute_time", 8, 90.0, 12.0,
                        site="ntcp-uiuc"),
            hist_record("core.server.execute_time", 8, 95.0, 12.5,
                        site="ntcp-cu"),
            hist_record("core.server.execute_time", 8, 320.0, 41.0,
                        site="ntcp-ncsa"),
        ]))
        monitor.check()
        [alert] = monitor.alerts
        assert (alert.kind, alert.site) == ("slow_site", "ntcp-ncsa")
        assert alert.detail["p95"] == 41.0
        monitor.check()  # alerted once, not on every sweep
        assert len(monitor.alerts) == 1

    def test_slow_site_needs_enough_samples(self):
        kernel, _, _, monitor = monitor_env()
        monitor.on_stream_sample(stream_sample(1, [
            hist_record("core.server.execute_time", 2, 90.0, 45.0,
                        site="ntcp-ncsa")]))
        monitor.check()
        assert monitor.alerts == []

    def test_dominant_shift_needs_margin(self):
        """Every p95 below is within the 30 s execute budget, so only the
        dominance rule can fire."""
        kernel, _, _, monitor = monitor_env()
        monitor.on_stream_sample(stream_sample(1, [
            hist_record("core.server.execute_time", 10, 100.0, 11.0,
                        site="ntcp-uiuc"),
            hist_record("core.server.execute_time", 10, 80.0, 9.0,
                        site="ntcp-cu"),
        ]))
        monitor.check()
        assert monitor.rollups()["dominant_site"] == "ntcp-uiuc"
        # cu edges ahead, but not by the 1.5x margin: no alert
        monitor.on_stream_sample(stream_sample(2, [
            hist_record("core.server.execute_time", 12, 110.0, 11.0,
                        site="ntcp-cu")]))
        monitor.check()
        assert monitor.alerts == []
        # cu now dominates decisively
        monitor.on_stream_sample(stream_sample(3, [
            hist_record("core.server.execute_time", 20, 400.0, 29.0,
                        site="ntcp-cu")]))
        monitor.check()
        [alert] = monitor.alerts
        assert (alert.kind, alert.site) == ("slow_site", "ntcp-cu")
        assert alert.detail["previous"] == "ntcp-uiuc"
        assert monitor.rollups()["dominant_site"] == "ntcp-cu"

    def deliver(self, recv, seq):
        recv._on_message(Message(
            src="coord", dst="portal", port=recv.port,
            payload={"stream": "s", "channel": "c", "sequence": seq,
                     "time": 0.0, "value": None},
            msg_id=f"m{seq}", send_time=0.0))

    def test_breaker_open_episodes_and_failover_escalation(self):
        kernel, _, _, monitor = monitor_env()

        def coordinator_health(detail):
            monitor.on_notification({"sde_name": "health",
                                     "value": health(source="coordinator",
                                                     step=10, detail=detail)})

        snap = {"site": "uiuc", "state": "open", "failures": 3, "trips": 1,
                "open_duration": 45.0}
        coordinator_health({"breakers": {"uiuc": snap}})
        monitor.check()
        [alert] = monitor.alerts
        assert (alert.kind, alert.severity, alert.site) == \
            ("breaker_open", "warning", "uiuc")
        assert alert.detail["trips"] == 1
        monitor.check()  # alerted once per open episode, not per sweep
        assert len(monitor.alerts) == 1

        # the breaker closing ends the episode; a later trip alerts again
        coordinator_health({"breakers": {"uiuc": dict(snap, state="closed")}})
        monitor.check()
        assert len(monitor.alerts) == 1
        coordinator_health({"breakers": {"uiuc": dict(snap, trips=2)}})
        monitor.check()
        assert len(monitor.alerts) == 2

        # surrogate failover escalates to critical, once per site
        coordinator_health({"breakers": {"uiuc": dict(snap, trips=2)},
                            "degraded_sites": ["uiuc"]})
        monitor.check()
        monitor.check()
        assert [(a.kind, a.severity) for a in monitor.alerts] == \
            [("breaker_open", "warning"), ("breaker_open", "warning"),
             ("breaker_open", "critical")]
        for alert in monitor.alerts:
            validate_alert_payload(alert.to_payload("monitor-console"))

    def test_stream_health_loss(self):
        kernel, network, _, monitor = monitor_env()
        recv = NSDSReceiver(network, "portal")
        monitor.bind_receiver(recv)
        for seq in range(1, 61, 2):  # every other sample lost
            self.deliver(recv, seq)
        monitor.check()
        [alert] = monitor.alerts
        assert alert.kind == "stream_health"
        assert "loss rate" in alert.message
        monitor.check()  # one-shot
        assert len(monitor.alerts) == 1

    def test_stream_health_alert_names_the_gapping_channel(self):
        """Regression: the alert detail must carry per-channel receiver
        counters, not just receiver-wide rates, so an operator can tell
        *which* stream is losing samples."""
        kernel, network, _, monitor = monitor_env()
        recv = NSDSReceiver(network, "portal")
        monitor.bind_receiver(recv)
        for seq in range(1, 61, 2):
            self.deliver(recv, seq)
        monitor.check()
        [alert] = monitor.alerts
        channels = alert.detail["channels"]
        assert channels == {"c": {"received": 30, "highest_seq": 59,
                                  "lost": 29}}
        assert channels["c"]["lost"] == recv.loss_count("c")
        validate_alert_payload(alert.to_payload("monitor-console"))

    def test_stream_health_quiet_below_min_samples(self):
        kernel, network, _, monitor = monitor_env()
        recv = NSDSReceiver(network, "portal")
        monitor.bind_receiver(recv)
        for seq in (1, 5, 9):
            self.deliver(recv, seq)
        monitor.check()
        assert monitor.alerts == []

    def test_counter_totals_survive_missed_flushes(self):
        kernel, _, _, monitor = monitor_env()
        monitor.on_stream_sample(stream_sample(1, [
            counter_record("net.rpc.retries", 2, 2.0, host="coord")]))
        # seq 2 lost; seq 3 carries the cumulative total
        monitor.on_stream_sample(stream_sample(3, [
            counter_record("net.rpc.retries", 1, 7.0, host="coord")]))
        assert monitor.counter_total("net.rpc.retries") == 7.0

    def test_alert_published_over_ogsi_notification(self):
        kernel, network, container, monitor = monitor_env()
        notes = []
        sink = NotificationSink(network, "coord", callback=notes.append)
        rpc = RpcClient(network, "coord", default_timeout=10.0)

        def subscribe():
            yield from rpc.call(
                "portal", "ogsi", "subscribe",
                {"service_id": monitor.service_id, "sde_name": "lastAlert",
                 "sink_host": "coord", "sink_port": sink.port,
                 "lifetime": 1000.0})

        kernel.run(until=kernel.process(subscribe()))
        monitor.raise_alert("stall", "critical", "no committed step")
        kernel.run(until=kernel.now + 5.0)
        note = notes[-1]
        assert (note["service_id"], note["sde_name"]) == \
            (monitor.service_id, "lastAlert")
        validate_alert_payload(note["value"])
        assert note["value"]["alert"] == "stall"

    def test_on_alert_callback_and_payloads(self):
        seen = []
        kernel, _, _, monitor = monitor_env(on_alert=seen.append)
        monitor.raise_alert("slow_site", "warning", "m", site="ntcp-cu")
        assert seen and isinstance(seen[0], Alert)
        validate_alert_payload(seen[0].to_payload(monitor.service_id))


def run_monitored(config, *, inject_faults=False):
    """A monitored run composed the way the retired shim built it."""
    session = (ExperimentSession(config, run_id="most-monitored")
               .with_fault_tolerance()
               .with_monitoring())
    if inject_faults:
        session.with_anomalies()
    return session.run()


@pytest.fixture(scope="module")
def faulted_report():
    return run_monitored(MOSTConfig().scaled(40), inject_faults=True)


@pytest.fixture(scope="module")
def clean_report():
    return run_monitored(MOSTConfig().scaled(40))


@pytest.fixture(scope="module")
def pipelined_report():
    return (ExperimentSession(MOSTConfig().scaled(30), simulation_only=True)
            .with_pipeline().run())


class TestMonitoredExperiment:
    def test_faulted_run_completes_with_expected_alerts(self, faulted_report):
        rep = faulted_report
        assert rep.result.completed
        kinds = {a.kind for a in rep.alerts}
        assert kinds == {"stall", "slow_site"}
        stalls = [a for a in rep.alerts if a.kind == "stall"]
        assert all(a.severity == "critical" for a in stalls)
        # the stall is raised during the injected outage window
        outage_step = rep.outage_at_step
        assert all(a.step >= outage_step - 1 for a in stalls)
        for alert in rep.alerts:
            validate_alert_payload(alert.to_payload("monitor-console"))

    def test_faulted_run_is_deterministic(self, faulted_report):
        again = run_monitored(MOSTConfig().scaled(40), inject_faults=True)
        key = lambda rep: [(a.kind, a.severity, a.site, a.step, a.time)
                           for a in rep.alerts]
        assert key(again) == key(faulted_report)
        # reply/sink ports are label- and wire-visible: they number per
        # deployment, so the whole snapshot is a function of the seed
        snapshot = lambda rep: \
            rep.deployment.kernel.telemetry.metrics_snapshot()
        assert snapshot(again) == snapshot(faulted_report)

    def test_ntcp_backlog_is_the_scan_at_every_publish(self, monkeypatch):
        """The probe derives backlog from the server's counters; pin it to
        the scan of non-terminal transactions at every health publish of
        the faulted run (an outage, retries, cancels, a slowed site)."""
        import repro.monitor.wiring as wiring

        seen = []

        def checked(server):
            probe = ntcp_health_probe(server)

            def check():
                payload = probe()
                seen.append((payload["backlog"], sum(
                    1 for txn in server.transactions.values()
                    if not txn.state.terminal)))
                return payload
            return check

        monkeypatch.setattr(wiring, "ntcp_health_probe", checked)
        rep = run_monitored(MOSTConfig().scaled(40), inject_faults=True)
        assert rep.result.completed
        assert len(seen) > 100 and all(got == scan for got, scan in seen)
        assert any(scan > 0 for _, scan in seen)  # it met open transactions

    def test_clean_run_raises_no_alerts(self, clean_report):
        rep = clean_report
        assert rep.result.completed
        assert rep.alerts == []
        rollups = rep.rollups
        assert rollups["stream"]["received"] > 0
        assert rollups["stream"]["gaps"] == 0
        assert rollups["last_committed_step"] == rep.result.steps_completed
        console = rep.monitoring.monitor
        assert console.samples_seen == rollups["stream"]["received"] == \
            rep.deployment.kernel.telemetry.counter(
                "observatory.store.samples").value

    def test_rollups_track_health_and_sites(self, clean_report):
        rollups = clean_report.rollups
        assert rollups["health"]["coordinator"] == "stopped"
        assert set(rollups["per_site"]) == {"ntcp-uiuc", "ntcp-cu",
                                            "ntcp-ncsa"}
        for site in rollups["per_site"].values():
            assert site["executed"] > 0 and site["execute_p95"] > 0.0

    def test_health_sdes_versioned_and_valid(self, clean_report):
        kit = clean_report.monitoring
        for name, publisher in kit.publishers.items():
            sde = publisher.service_data.get("health")
            validate_health_payload(sde.value)
            assert sde.version >= publisher.published


class TestABadDatagramCannotStopTheRun:
    """Observers are best-effort: what a console's decoder makes of a
    datagram is the console's problem, never the experiment's.  The
    consumers still raise when called directly (the schema tests above);
    only delivery is guarded, by the sink."""

    @staticmethod
    def run_poisoned(monkeypatch, poison, *, observatory=False):
        """A monitored sim-only run (80 simulated seconds) with
        ``poison(dep, kit)`` called half-way through; returns the outcome
        and a record sink attached with the monitoring."""
        import repro.monitor as monitor_package

        attach = monitor_package.attach_monitoring
        sink = InMemorySink()

        def attach_then_poison(dep, **options):
            kit = attach(dep, **options)
            dep.kernel.telemetry.add_sink(sink)
            dep.kernel.call_later(40.0, lambda _: poison(dep, kit))
            return kit

        monkeypatch.setattr(monitor_package, "attach_monitoring",
                            attach_then_poison)
        session = ExperimentSession(MOSTConfig().scaled(40), run_id="bad",
                                    simulation_only=True).with_monitoring()
        if observatory:
            session.with_observatory()
        outcome = session.run()
        assert outcome.completed and outcome.alerts == []
        assert outcome.result.wall_finished > 60.0   # it was mid-run
        return outcome, sink

    @pytest.mark.parametrize("observatory", [False, True])
    def test_a_malformed_metrics_sample(self, monkeypatch, observatory):
        """With or without the observatory, the console's one receiver
        is the only one the sample reaches, and it counts it once."""
        bogus = {"kind": "metrics", "schema": "bogus"}
        _, _, _, console = monitor_env()
        with pytest.raises(MonitorSchemaError):
            console.on_stream_sample(
                StreamSample(TelemetryStreamer.CHANNEL, 1, 0.0, bogus))

        outcome, sink = self.run_poisoned(
            monkeypatch, observatory=observatory,
            poison=lambda dep, kit: kit.nsds.ingest(
                dep.kernel.now, {TelemetryStreamer.CHANNEL: bogus}))
        kit = outcome.monitoring
        receiver = kit.receiver
        assert receiver.subscriber_errors == 1
        assert receiver.gap_count == 0
        [error] = [record for record in sink.records
                   if record.kind == "subscriber.error"]
        assert error.subsystem == "notify.portal"
        assert error.detail["port"] == receiver.port
        assert "SchemaError" in error.detail["error"]
        assert 40.0 < error.time < 41.0
        # every other sample got through, there and at the sink next door
        assert kit.monitor.samples_seen == receiver.accepted - 1 > 0
        assert kit.sink.accepted > 0 and kit.sink.subscriber_errors == 0
        if observatory:
            assert outcome.observatory.store is kit.monitor.store

    @pytest.mark.parametrize("observatory", [False, True])
    def test_a_counter_total_of_inf(self, monkeypatch, observatory):
        """One accepted ``total=inf`` made every later sample raise
        ``OverflowError`` in the console (``int(inf)``): a counter's
        numbers must be finite, so only the bad datagram is counted."""
        poisoned = metrics_sample(1, [counter_record(
            "coordinator.mspsds.steps", 0, float("inf"), x="y")], time=40.0)
        outcome, _ = self.run_poisoned(
            monkeypatch, observatory=observatory,
            poison=lambda dep, kit: kit.nsds.ingest(
                dep.kernel.now, {TelemetryStreamer.CHANNEL: poisoned}))
        kit = outcome.monitoring
        assert kit.receiver.subscriber_errors == 1
        assert kit.monitor.samples_seen == kit.receiver.accepted - 1 > 1

    def test_a_sample_timed_nan(self, monkeypatch):
        """A NaN-timed sample put NaN-timed points in the store (and turned
        every later window of those series into a linear filter)."""
        poisoned = metrics_sample(1, [counter_record(
            "coordinator.mspsds.steps", 0, 0)], time=float("nan"))
        outcome, _ = self.run_poisoned(
            monkeypatch, observatory=True,
            poison=lambda dep, kit: kit.nsds.ingest(
                dep.kernel.now, {TelemetryStreamer.CHANNEL: poisoned}))
        kit, obs = outcome.monitoring, outcome.observatory
        assert kit.receiver.subscriber_errors == 1
        assert obs.store.samples_ingested == kit.receiver.accepted - 1 > 1
        assert all(time == time for series in obs.store.series()
                   for time in series.times)

    def test_a_producer_bug_is_counted_where_it_lands(self, monkeypatch):
        """``flush`` used to validate its own payload inside the
        ``streamer.<source>`` kernel process, where a bug in
        ``snapshot_records`` ended the experiment; now the malformed
        sample reaches the one receiver, which counts it; the run goes
        on."""
        monkeypatch.setattr(
            TelemetryStreamer, "snapshot_records",
            lambda self: [{"name": "Not A Metric", "type": "counter"}])
        outcome = (ExperimentSession(MOSTConfig().scaled(40), run_id="bad",
                                     simulation_only=True)
                   .with_observatory().run())
        assert outcome.completed and outcome.alerts == []
        kit, obs = outcome.monitoring, outcome.observatory
        assert kit.streamer.seq > 1
        assert kit.receiver.subscriber_errors == kit.receiver.accepted \
            == kit.streamer.seq
        assert kit.monitor.samples_seen == obs.store.samples_ingested == 0

    def test_nobody_writes_through_a_streamed_labels_dict(self):
        """Records hand out each instrument's frozen ``labels``; after a
        whole observed run every one still spells the key it was created
        under."""
        outcome = (ExperimentSession(MOSTConfig().scaled(40), run_id="ok")
                   .with_observers(n_chef=4).with_observatory().run())
        assert outcome.completed
        assert outcome.observatory.store.samples_ingested > 0
        registry = outcome.deployment.kernel.telemetry.registry
        assert len(registry) > 60
        for metric in registry:
            assert metric.key == (metric.name,
                                  tuple(sorted(metric.labels.items())))

    def test_a_health_notification_that_is_not_one(self, monkeypatch):
        outcome, sink = self.run_poisoned(
            monkeypatch,
            poison=lambda dep, kit: dep.network.send(
                "coord", "portal", kit.sink.port,
                {"sde_name": "health", "value": {"kind": "health"}}))
        kit = outcome.monitoring
        assert kit.sink.subscriber_errors == 1
        [error] = [record for record in sink.records
                   if record.subsystem == "notify.portal"
                   and record.kind == "subscriber.error"]
        assert error.detail == {"port": kit.sink.port,
                                "error": "KeyError: 'source'"}
        assert 40.0 < error.time < 41.0
        updates = outcome.deployment.kernel.telemetry.counter(
            "monitor.console.health_updates",
            service=kit.monitor.service_id).value
        assert updates == kit.sink.accepted - 1 > 0
        assert kit.receiver.accepted > 0
        assert kit.receiver.subscriber_errors == 0


class TestCriticalPath:
    def rows(self, report):
        spans = [s.to_dict() for s in
                 report.deployment.kernel.telemetry.spans()]
        return step_traces(spans), spans

    def test_phase_sums_match_step_totals(self, clean_report):
        rows, _ = self.rows(clean_report)
        assert len(rows) == clean_report.result.steps_completed + 1
        for row in rows:
            core = sum(row["phases"].get(p, 0.0) for p in CORE_PHASES)
            assert core == pytest.approx(row["total"], rel=1e-6)

    def test_per_site_legs_bounded_by_phases(self, clean_report):
        rows, _ = self.rows(clean_report)
        for row in rows:
            assert set(row["sites"]) == {"ntcp-uiuc", "ntcp-cu", "ntcp-ncsa"}
            max_exec = max(per["execute"] for per in row["sites"].values())
            assert max_exec <= row["phases"]["execute"] + 1e-9
            assert row["dominant"] is not None
            assert row["critical"] <= row["total"] + 1e-9
            assert row["sites"][row["dominant"]]["execute"] == max_exec

    def test_blame_table_accounting(self, clean_report):
        rows, _ = self.rows(clean_report)
        table = blame_table(rows)
        assert sum(agg["dominated"] for agg in table) == len(rows)
        assert sum(agg["dominated_share"] for agg in table) \
            == pytest.approx(1.0)
        for agg in table:
            assert agg["steps"] == len(rows)
            assert agg["execute_p95"] >= agg["execute_mean"] * 0.5

    def test_a_pipelined_run_blames_every_committed_step(
            self, pipelined_report):
        """A pipelined step's legs hang under its ``round`` child or under
        the root ``speculate`` span it adopted, never right under the
        step span: each is still the step's, so every site counts every
        committed step (step 0's initialization included)."""
        report = pipelined_report
        rows = step_traces(report.deployment.kernel.telemetry.spans())
        assert len(rows) == report.result.steps_completed + 1
        table = blame_table(rows)
        assert {agg["site"]: agg["steps"] for agg in table} == dict.fromkeys(
            ("ntcp-uiuc", "ntcp-cu", "ntcp-ncsa"), len(rows))
        assert sum(agg["dominated"] for agg in table) == len(rows)

    def test_a_pipelined_critical_path_fits_in_its_step(
            self, pipelined_report):
        """An adopted speculation ran mostly during the step before: the
        critical path counts only the part of each leg inside the step's
        own span, so it never exceeds the step (the mean critical path
        of this run read 2.033 s against a 1.067 s mean step when whole
        legs were added up), while ``sites`` keeps the whole legs."""
        rows = step_traces(
            pipelined_report.deployment.kernel.telemetry.spans())
        assert len(rows) == 30
        for row in rows:
            assert row["critical"] <= row["total"] + 1e-9, row["step"]
        assert any(per["execute"] > row["total"] for row in rows
                   for per in row["sites"].values())

    def test_a_rolled_back_speculation_counts_for_no_step(self):
        """Steps 1 and 2 run verified rounds (step 2's speculation was
        rolled back); step 3 adopted its speculation, so that span's legs
        are step 3's and the rolled-back one's are nobody's."""
        spans = []

        def span(name, parent=None, start=0.0, duration=1.0, **attrs):
            spans.append({"name": name, "trace_id": "t",
                          "span_id": f"span-{len(spans) + 1}",
                          "parent_id": parent, "start": start,
                          "end": start + duration, "duration": duration,
                          "attrs": attrs})
            return spans[-1]["span_id"]

        def round_(parent, start, propose, execute):
            for phase, took in (("propose", propose), ("execute", execute)):
                span(f"core.client.{phase}", span(
                    f"coordinator.step.{phase}", parent, start, took),
                    start, took, service="ntcp-uiuc")

        pipelined = {"speculated": True, "attempts": 1}
        round_(span("coordinator.step.round",
                    span("coordinator.step", None, 0.0, 9.0, step=1,
                         run_id="r", adopted=False, **pipelined), 0.0),
               0.0, 1.0, 2.0)
        round_(span("coordinator.step.speculate", None, 1.0, step=2),
               1.0, 5.0, 7.0)
        round_(span("coordinator.step.round",
                    span("coordinator.step", None, 10.0, 9.0, step=2,
                         run_id="r", adopted=True, **pipelined), 10.0),
               10.0, 1.5, 2.5)
        round_(span("coordinator.step.speculate", None, 11.0, step=3),
               11.0, 0.5, 3.0)
        span("coordinator.step", None, 20.0, 2.0, step=3, run_id="r",
             adopted=False, **pipelined)
        assert [row["sites"] for row in step_traces(spans)] == [
            {"ntcp-uiuc": {"propose": p, "execute": e}}
            for p, e in ((1.0, 2.0), (1.5, 2.5), (0.5, 3.0))]

    def test_slowed_site_dominates_faulted_run(self, faulted_report):
        rows, _ = self.rows(faulted_report)
        table = blame_table(rows)
        assert table[0]["site"] == "ntcp-ncsa"  # the injected slowdown
        assert table[0]["slack_total"] > 0.0

    def test_render_and_report(self, clean_report):
        _, spans = self.rows(clean_report)
        text = critical_path_report(spans)
        assert "mean critical path" in text
        for site in ("ntcp-uiuc", "ntcp-cu", "ntcp-ncsa"):
            assert site in text
        assert critical_path_report([]) \
            == "no coordinator.step spans in trace"

    def test_report_cli_critical_path_flag(self, clean_report, tmp_path,
                                           capsys):
        from repro.telemetry.report import main

        trace = tmp_path / "trace.jsonl"
        clean_report.deployment.kernel.telemetry.export_jsonl(
            trace, experiment="most-monitored")
        assert main(["--critical-path", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-site blame table — most-monitored" in out
        assert "ntcp-ncsa" in out
        assert main([str(trace)]) == 0  # plain mode unaffected
        assert "step" in capsys.readouterr().out
