"""The grid observatory: TSDB tiers, queries, SLO burn rates, flight box.

Covers :mod:`repro.observatory` from the rollup arithmetic up: bounded
series rings with 10-/100-step rollup tiers and staleness-aware tier
fallback, the label-selector query engine (aggregation, pagination,
validated documents), SLO burn-rate firing and re-arming with error
budgets, the black-box flight recorder and its step-1493-style
postmortem, the OGSI service front end, and the full session wiring
(``with_observatory``) on both a clean and an aborted MOST campaign.
"""

import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.most import ExperimentSession, MOSTConfig
from repro.net import Network, RpcClient
from repro.nsds import StreamSample
from repro.observatory import (
    BurnRateRule,
    FlightRecorder,
    ObservatoryService,
    QueryError,
    SLOEvaluator,
    SLOSpec,
    Series,
    TimeSeriesStore,
    default_slos,
    postmortem_timeline,
    run_query,
    validate_query_result,
)
from repro.observatory.recorder import _jsonable, extract_step
from repro.observatory.schema import (TIERS, ObservatorySchemaError,
                                      validate_dump)
from repro.observatory.tsdb import ROLLUP_SPANS
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import ReproError

MONITOR_SCHEMA = "repro.monitor/v1"


# -- payload builders ---------------------------------------------------------
def counter_record(name, delta, total, **labels):
    return {"name": name, "type": "counter", "labels": labels,
            "value": delta, "total": total}


def gauge_record(name, value, **labels):
    return {"name": name, "type": "gauge", "labels": labels, "value": value}


def hist_record(name, count, sum_, p95, **labels):
    mean = sum_ / count if count else 0.0
    return {"name": name, "type": "histogram", "labels": labels,
            "summary": {"count": count, "sum": sum_, "mean": mean,
                        "min": 0.0, "max": p95, "p50": mean, "p95": p95,
                        "p99": p95}}


def metrics_sample(seq, records, *, time=0.0, source="coord"):
    return {"schema": MONITOR_SCHEMA, "kind": "metrics", "source": source,
            "time": time, "seq": seq, "metrics": records}


# ---------------------------------------------------------------------------
# the TSDB core


class TestSeriesRollups:
    def test_buckets_finalize_every_span_appends(self):
        s = Series("a.b.c", {})
        for i in range(25):
            s.append(float(i), float(i))
        assert s.appended == 25
        assert len(s.points("raw")) == 25
        first, second = s.points("r10")
        assert (first["start"], first["end"]) == (0.0, 9.0)
        assert first["count"] == 10 and first["sum"] == 45.0
        assert (first["min"], first["max"]) == (0.0, 9.0)
        assert (first["first"], first["last"]) == (0.0, 9.0)
        assert second["sum"] == 145.0
        # 25 < 100: the r100 bucket is still open, hence invisible
        assert s.points("r100") == []

    def test_raw_eviction_falls_back_to_the_rollup_tier(self):
        s = Series("a.b.c", {}, raw_capacity=20)
        for i in range(50):
            s.append(float(i), float(i))
        assert len(s.points("raw")) == 20
        assert s.evicted("raw") and not s.evicted("r10")
        assert not s.covers("raw", 0.0) and s.covers("r10", 0.0)
        assert s.pick_tier(0.0) == "r10"
        # the raw ring still reaches t=30, so recent queries stay raw
        assert s.pick_tier(30.0) == "raw"

    def test_rollup_eviction_falls_back_to_the_coarser_tier(self):
        s = Series("a.b.c", {}, raw_capacity=5, rollup_capacity=2)
        for i in range(50):
            s.append(float(i), float(i))
        assert s.evicted("r10")
        assert [b["start"] for b in s.points("r10")] == [30.0, 40.0]
        assert s.pick_tier(0.0) == "r100"

    def test_record_round_trip(self):
        s = Series("a.b.c", {"site": "x"})
        for i in range(12):
            s.append(float(i), 2.0 * i)
        clone = Series.from_record(s.to_record())
        assert clone.labels == {"site": "x"} and clone.appended == 12
        assert clone.points("raw") == [(t, v) for t, v in s.points("raw")]
        assert clone.points("r10") == s.points("r10")


class ReferenceSeries:
    """The model ``Series`` is checked against: a deque of ``(time,
    value)`` pairs, a bucket dict folded on every append, every read a
    copy and a linear filter (the definitions ``Series`` had before its
    raw tier became two columns)."""

    def __init__(self, raw_capacity, rollup_capacity):
        self.raw_capacity = raw_capacity
        self.rollup_capacity = rollup_capacity
        self.raw = deque(maxlen=raw_capacity)
        self.rollups = {tier: deque(maxlen=rollup_capacity)
                        for tier in ROLLUP_SPANS}
        self.open = {tier: None for tier in ROLLUP_SPANS}
        self.appended = 0

    def append(self, time, value):
        self.raw.append((time, value))
        self.appended += 1
        for tier, span in ROLLUP_SPANS.items():
            bucket = self.open[tier]
            if bucket is None:
                bucket = self.open[tier] = {
                    "start": time, "end": time, "count": 0, "sum": 0.0,
                    "min": value, "max": value, "first": value,
                    "last": value}
            bucket["end"] = time
            bucket["count"] += 1
            bucket["sum"] += value
            bucket["min"] = min(bucket["min"], value)
            bucket["max"] = max(bucket["max"], value)
            bucket["last"] = value
            if bucket["count"] >= span:
                self.rollups[tier].append(bucket)
                self.open[tier] = None

    def points(self, tier):
        return list(self.raw if tier == "raw" else self.rollups[tier])

    def window(self, start, end):
        return [p for p in self.raw if start <= p[0] <= end]

    def evicted(self, tier):
        if tier == "raw":
            return self.appended > self.raw_capacity
        return self.appended // ROLLUP_SPANS[tier] > self.rollup_capacity

    def covers(self, tier, start):
        points = self.points(tier)
        if not points:
            return not self.evicted(tier)
        if not self.evicted(tier):
            return True
        oldest = points[0][0] if tier == "raw" else points[0]["start"]
        return oldest <= start

    def pick_tier(self, start):
        return next((tier for tier in TIERS if self.covers(tier, start)),
                    TIERS[-1])


_TIMES = st.one_of(st.integers(0, 50),
                   st.floats(0.0, 50.0) | st.just(float("nan")))
_VALUES = st.one_of(st.integers(-5, 5),
                    st.floats(-1e6, 1e6) | st.just(-0.0))


class TestSeriesAgainstTheReference:
    """``repr`` equality throughout: it tells 1 from 1.0 and 0.0 from
    -0.0, and does not stumble over a NaN time."""

    @settings(max_examples=150, deadline=None)
    @given(base=st.lists(st.tuples(_TIMES, _VALUES), max_size=45),
           repeats=st.integers(1, 6), in_order=st.booleans(),
           raw_capacity=st.integers(1, 64),
           rollup_capacity=st.integers(1, 3),
           probes=st.lists(st.tuples(_TIMES, _TIMES), max_size=6))
    def test_every_read_equals_the_model(self, base, repeats, in_order,
                                         raw_capacity, rollup_capacity,
                                         probes):
        stream = base * repeats     # long enough to close r100, to evict
        if in_order:
            stream = sorted(stream, key=lambda p: (p[0] != p[0], p[0]))
        series = Series("m.n", {"k": "v"}, raw_capacity=raw_capacity,
                        rollup_capacity=rollup_capacity)
        model = ReferenceSeries(raw_capacity, rollup_capacity)
        for time, value in stream:
            series.append(time, value)
            model.append(time, value)
        assert len(series.times) == len(series.values) <= raw_capacity
        for tier in TIERS:
            # a closed bucket, field for field, is the model's fold of
            # its 10 / 100 appends
            assert repr(series.points(tier)) == repr(model.points(tier))
            assert series.evicted(tier) == model.evicted(tier)
        for start, end in probes:
            times, values = series.window(start, end)
            assert repr(list(zip(times, values))) == \
                repr(model.window(start, end))
            assert series.pick_tier(start) == model.pick_tier(start)
            for tier in TIERS:
                assert series.covers(tier, start) == \
                    model.covers(tier, start)
        record = series.to_record()
        clone = Series.from_record(record, raw_capacity=raw_capacity,
                                   rollup_capacity=rollup_capacity)
        assert repr(clone.to_record()) == repr(record)
        for start, end in probes:
            assert repr(clone.window(start, end)) == \
                repr(series.window(start, end))

    def test_the_first_late_point_ends_the_bisecting(self):
        series = Series("m.n", {})
        for time in (1.0, 2.0, 2.0, 3.0):
            series.append(time, time)
        assert series._ordered
        assert series.window(2.0, 3.0) == ([2.0, 2.0, 3.0], [2.0, 2.0, 3.0])
        series.append(1.5, 9.0)
        assert not series._ordered
        assert series.window(1.5, 2.0) == ([2.0, 2.0, 1.5], [2.0, 2.0, 9.0])
        assert not Series.from_record(series.to_record())._ordered


class TestStore:
    def test_ingest_fans_histograms_into_stat_series(self):
        store = TimeSeriesStore(Kernel())
        n = store.ingest_metrics_payload(metrics_sample(1, [
            counter_record("net.rpc.calls", 2, 10.0, host="coord"),
            gauge_record("sim.queue.depth", 3.5),
            hist_record("core.server.execute_time", 4, 40.0, 14.0,
                        site="ntcp-uiuc"),
        ], time=5.0))
        assert n == 7  # counter + gauge + five histogram stats
        [calls] = store.match("net.rpc.calls", {"host": "coord"})
        assert calls.points("raw") == [(5.0, 10.0)]  # cumulative total
        stats = {s.labels["stat"]
                 for s in store.match("core.server.execute_time")}
        assert stats == {"count", "mean", "p50", "p95", "p99"}
        [p95] = store.match("core.server.execute_time", {"stat": "p95"})
        assert p95.points("raw") == [(5.0, 14.0)]

    def test_stream_callback_ignores_foreign_samples(self):
        store = TimeSeriesStore(Kernel())
        store.on_stream_sample(StreamSample(
            channel="daq", sequence=1, time=0.0, value=[1, 2, 3]))
        store.on_stream_sample(StreamSample(
            channel="health", sequence=1, time=0.0,
            value={"kind": "health"}))
        assert store.stats()["samples_ingested"] == 0
        store.on_stream_sample(StreamSample(
            channel="monitor-metrics", sequence=1, time=0.0,
            value=metrics_sample(1, [gauge_record("a.b.c", 1.0)])))
        assert store.stats()["samples_ingested"] == 1

    def test_store_telemetry_counts_appends(self):
        kernel = Kernel()
        store = TimeSeriesStore(kernel)
        store.append("a.b.c", {}, 0.0, 1.0)
        store.append("a.b.c", {}, 1.0, 2.0)
        store.append("a.b.d", {}, 1.0, 2.0)
        reg = kernel.telemetry.registry
        assert reg.find("observatory.store.appends").value == 3
        assert reg.find("observatory.store.series").value == 2

    def test_offline_round_trip_preserves_query_answers(self):
        store = TimeSeriesStore(None)
        for i in range(25):
            store.append("a.b.c", {"site": "x"}, float(i), float(i))
        rebuilt = TimeSeriesStore.from_records(store.series_records())
        request = {"metric": "a.b.c", "agg": "sum", "tier": "r10"}
        a = run_query(store, request, now=24.0)
        b = run_query(rebuilt, request, now=24.0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ---------------------------------------------------------------------------
# the query engine


def two_site_store():
    store = TimeSeriesStore(None)
    for i in range(5):
        store.append("web.req.latency", {"site": "a"}, float(i), 1.0 + i)
        store.append("web.req.latency", {"site": "b"}, float(i), 11.0 + i)
    return store


class TestQueryEngine:
    def test_aggregations_across_series(self):
        store = two_site_store()

        def combined(agg, **extra):
            request = {"metric": "web.req.latency", "agg": agg, **extra}
            return run_query(store, request, now=4.0)["aggregate"]["value"]

        assert combined("count") == 10.0
        assert combined("sum") == pytest.approx(80.0)
        assert combined("avg") == pytest.approx(8.0)
        assert combined("min") == 1.0
        assert combined("max") == 15.0
        # pooled interpolated quantile: p50 of 1..5 + 11..15 is 8
        assert combined("quantile", quantile=50.0) == pytest.approx(8.0)

    def test_rate_is_per_series_slope_summed(self):
        store = TimeSeriesStore(None)
        for t, total in ((0.0, 0.0), (10.0, 5.0), (20.0, 10.0)):
            store.append("net.rpc.calls", {"host": "coord"}, t, total)
        result = run_query(store, {"metric": "net.rpc.calls", "agg": "rate"},
                           now=20.0)
        assert result["aggregate"]["value"] == pytest.approx(0.5)

    def test_selector_narrows_the_match(self):
        store = two_site_store()
        result = run_query(store, {"metric": "web.req.latency",
                                   "selector": {"site": "a"}, "agg": "max"},
                           now=4.0)
        assert result["total_series"] == 1
        assert result["aggregate"]["value"] == 5.0

    def test_rollup_tier_answers_match_raw(self):
        store = TimeSeriesStore(None)
        for i in range(25):
            store.append("a.b.c", {}, float(i), float(i))
        raw = run_query(store, {"metric": "a.b.c", "agg": "sum",
                                "end": 19.0}, now=24.0)
        r10 = run_query(store, {"metric": "a.b.c", "agg": "sum",
                                "tier": "r10"}, now=24.0)
        assert raw["aggregate"]["value"] == r10["aggregate"]["value"] == 190.0
        # rendered rollup points are (bucket end, bucket mean)
        [entry] = r10["series"]
        assert entry["points"] == [[9.0, 4.5], [19.0, 14.5]]

    def test_auto_tier_survives_raw_eviction(self):
        store = TimeSeriesStore(None, raw_capacity=20)
        for i in range(50):
            store.append("a.b.c", {}, float(i), float(i))
        result = run_query(store, {"metric": "a.b.c", "agg": "count"},
                           now=49.0)
        assert result["tier"] == "r10"
        assert result["aggregate"]["value"] == 50.0
        recent = run_query(store, {"metric": "a.b.c", "start": 40.0,
                                   "agg": "count"}, now=49.0)
        assert recent["tier"] == "raw"
        assert recent["aggregate"]["value"] == 10.0

    def test_pagination_is_stable_and_clamped(self):
        store = TimeSeriesStore(None)
        for i in range(5):
            store.append("a.b.c", {"shard": f"s{i}"}, 0.0, float(i))
        result = run_query(store, {"metric": "a.b.c", "page": 2,
                                   "page_size": 2}, now=0.0)
        assert (result["page"], result["pages"]) == (2, 3)
        assert [e["labels"]["shard"] for e in result["series"]] == \
            ["s2", "s3"]
        # the aggregate still covers every matched series, not the page
        result = run_query(store, {"metric": "a.b.c", "page": 99,
                                   "page_size": 2, "agg": "count"}, now=0.0)
        assert result["page"] == 3
        assert result["aggregate"]["count"] == 5

    def test_truncation_keeps_the_newest_points(self):
        store = TimeSeriesStore(None)
        for i in range(10):
            store.append("a.b.c", {}, float(i), float(i))
        [entry] = run_query(store, {"metric": "a.b.c", "max_points": 3},
                            now=9.0)["series"]
        assert entry["truncated"]
        assert entry["points"] == [[7.0, 7.0], [8.0, 8.0], [9.0, 9.0]]

    def test_result_document_is_schema_valid(self):
        result = run_query(two_site_store(),
                           {"metric": "web.req.latency", "agg": "avg"},
                           now=4.0)
        validate_query_result(result)
        assert result["schema"] == "repro.observatory/v1"
        assert result["query"]["metric"] == "web.req.latency"

    @pytest.mark.parametrize("request_", [
        "not a dict",
        {},
        {"metric": ""},
        {"metric": "a.b.c", "selector": {"k": 1}},
        {"metric": "a.b.c", "agg": "median"},
        {"metric": "a.b.c", "agg": "quantile"},
        {"metric": "a.b.c", "agg": "quantile", "quantile": 101.0},
        {"metric": "a.b.c", "tier": "r1000"},
        {"metric": "a.b.c", "page": 0},
        {"metric": "a.b.c", "page_size": 0},
        {"metric": "a.b.c", "max_points": 0},
        {"metric": "a.b.c", "start": 5.0, "end": 1.0},
        {"metric": "a.b.c", "start": "dawn"},
    ])
    def test_malformed_requests_are_rejected(self, request_):
        with pytest.raises(QueryError):
            run_query(TimeSeriesStore(None), request_, now=10.0)


# ---------------------------------------------------------------------------
# SLO burn rates


def slo_env(spec, **kw):
    kernel = Kernel()
    store = TimeSeriesStore(kernel)
    alerts = []

    def sink(kind, severity, message, detail=None):
        alerts.append((kind, severity, detail))

    evaluator = SLOEvaluator(kernel, store, [spec], alert_sink=sink, **kw)
    return kernel, store, evaluator, alerts


class TestSLOEvaluator:
    def test_burn_fires_once_per_episode_and_rearms(self):
        spec = SLOSpec(name="latency", metric="test.step.latency",
                       threshold=1.0, target=0.9,
                       rules=(BurnRateRule("fast", 50.0, 5.0, "critical"),))
        kernel, store, evaluator, alerts = slo_env(spec)
        for t in range(0, 40, 10):
            store.append("test.step.latency", {}, float(t), 5.0)
        kernel.run(until=40.0)
        [status] = evaluator.evaluate()
        assert status["firing"] == ["fast"]
        assert status["budget_remaining"] == 0.0
        [(kind, severity, detail)] = alerts
        assert (kind, severity) == ("slo_burn", "critical")
        assert detail["slo"] == "latency" and detail["burn"] > 5.0
        # firing state latches: the same episode never re-alerts
        evaluator.evaluate()
        assert len(alerts) == 1
        # a quiet window re-arms the rule ...
        for t in range(110, 150, 10):
            store.append("test.step.latency", {}, float(t), 0.0)
        kernel.run(until=150.0)
        [status] = evaluator.evaluate()
        assert status["firing"] == [] and len(alerts) == 1
        # ... so a fresh burn episode alerts again
        for t in range(151, 156):
            store.append("test.step.latency", {}, float(t), 9.0)
        kernel.run(until=160.0)
        evaluator.evaluate()
        assert len(alerts) == 2

    def test_ratio_objective_uses_counter_deltas(self):
        spec = SLOSpec(name="gaps", kind="ratio",
                       bad_metric="test.stream.gaps",
                       total_metric="test.stream.pushed", target=0.99,
                       rules=(BurnRateRule("fast", 100.0, 1.0, "critical"),))
        kernel, store, evaluator, alerts = slo_env(spec)
        for t, gaps, pushed in ((0.0, 0.0, 0.0), (50.0, 2.0, 100.0)):
            store.append("test.stream.gaps", {}, t, gaps)
            store.append("test.stream.pushed", {}, t, pushed)
        kernel.run(until=60.0)
        [status] = evaluator.evaluate()
        assert status["bad_fraction"] == pytest.approx(0.02)
        assert status["burn"]["fast"] == pytest.approx(2.0)
        assert [a[0] for a in alerts] == ["slo_burn"]

    def test_min_events_suppresses_thin_windows(self):
        spec = SLOSpec(name="latency", metric="test.step.latency",
                       threshold=1.0, target=0.9, min_events=5,
                       rules=(BurnRateRule("fast", 50.0, 1.0, "critical"),))
        kernel, store, evaluator, alerts = slo_env(spec)
        store.append("test.step.latency", {}, 0.0, 9.0)
        store.append("test.step.latency", {}, 1.0, 9.0)
        kernel.run(until=10.0)
        [status] = evaluator.evaluate()
        assert status["burn"]["fast"] == 0.0 and alerts == []

    def test_budget_remaining_is_per_slo_and_quiet(self):
        kernel = Kernel()
        store = TimeSeriesStore(kernel)
        shared = SLOSpec(name="shared", metric="test.shared.latency",
                         threshold=1.0, target=0.9)
        ada = SLOSpec(name="ada-latency", metric="test.tenant.latency",
                      selector={"tenant": "ada"}, threshold=1.0,
                      target=0.9, tenant="ada")
        evaluator = SLOEvaluator(kernel, store, [shared, ada])
        store.append("test.shared.latency", {}, 0.0, 0.5)
        store.append("test.tenant.latency", {"tenant": "ada"}, 0.0, 9.0)
        kernel.run(until=10.0)
        assert evaluator.budget_remaining() == {"shared": 1.0,
                                                "ada-latency": 0.0}
        # evaluate_quiet never latches an episode
        assert evaluator._firing == set()

    def test_sweep_loop_runs_on_the_sim_clock(self):
        spec = SLOSpec(name="latency", metric="test.step.latency",
                       threshold=1.0, target=0.9,
                       rules=(BurnRateRule("fast", 500.0, 5.0, "critical"),))
        kernel, store, evaluator, alerts = slo_env(spec, interval=10.0)
        for t in range(0, 40, 10):
            store.append("test.step.latency", {}, float(t), 5.0)
        evaluator.start()
        kernel.run(until=35.0)
        reg = kernel.telemetry.registry
        assert reg.find("observatory.slo.sweeps").value == 3
        assert [a[1] for a in alerts] == ["critical"]
        evaluator.stop()
        kernel.run(until=100.0)
        assert reg.find("observatory.slo.sweeps").value == 3

    @pytest.mark.parametrize("stream", ["ordered", "reordered", "evicted"])
    def test_a_sweep_equals_brute_force_over_the_raw_points(self, stream):
        """Windows by bisect, by filter after a late point, and over a
        ring that has evicted: the statuses are those of a sweep that
        copies ``points("raw")`` and filters it, as sweeps used to."""

        class BruteForce(SLOEvaluator):
            def _inside(self, metric, selector, start, end):
                return [[value for time, value in series.points("raw")
                         if start <= time <= end]
                        for series in self.store.match(metric, selector)]

            def _delta(self, metric, selector, start, end):
                total = 0.0
                for window in self._inside(metric, selector, start, end):
                    if len(window) >= 2:
                        total += window[-1] - window[0]
                    elif window:
                        total += window[0]
                return total

            def _events(self, slo, start, end):
                if slo.kind == "ratio":
                    return (self._delta(slo.bad_metric, slo.bad_selector,
                                        start, end),
                            self._delta(slo.total_metric,
                                        slo.total_selector, start, end))
                windows = self._inside(slo.metric, slo.selector, start, end)
                return (float(sum(value > slo.threshold
                                  for window in windows for value in window)),
                        float(sum(map(len, windows))))

        rng = random.Random(21)
        kernel = Kernel()
        store = TimeSeriesStore(kernel, raw_capacity=64)
        times = [float(10 * i) for i in range(200 if stream == "evicted"
                                              else 60)]
        if stream == "reordered":
            for i in range(5, len(times), 7):   # late by one flush
                times[i - 1], times[i] = times[i], times[i - 1]
        gaps = pushed = 0.0
        for time in times:
            for site in ("a", "b"):
                store.append("test.step.latency", {"site": site}, time,
                             rng.choice((0.5, 0.5, 0.5, 4.0)))
                gaps += rng.choice((0.0, 0.0, 1.0))
                pushed += 25.0
                store.append("test.stream.gaps", {"site": site}, time, gaps)
                store.append("test.stream.pushed", {"site": site}, time,
                             pushed)
        ordered = {s._ordered for s in store.series()}
        assert ordered == {stream != "reordered"}
        assert {s.evicted("raw") for s in store.series()} == \
            {stream == "evicted"}
        slos = [SLOSpec(name="latency", metric="test.step.latency",
                        threshold=1.0, target=0.9),
                SLOSpec(name="latency-a", metric="test.step.latency",
                        selector={"site": "a"}, threshold=1.0),
                SLOSpec(name="gaps", kind="ratio",
                        bad_metric="test.stream.gaps",
                        total_metric="test.stream.pushed", target=0.95)]
        kernel.run(until=max(times) + 5.0)
        swept = SLOEvaluator(kernel, store, slos).evaluate_quiet()
        assert repr(swept) == repr(
            BruteForce(kernel, store, slos).evaluate_quiet())
        assert all(status["events"] > 0 for status in swept)
        assert {status["name"] for status in swept
                if status["bad"] > 0} == {"latency", "latency-a", "gaps"}

    def test_budget_covers_what_raw_retains(self):
        """"Whole-history" is whole-*ring* history: the budget is summed
        over the raw tier, so the 88 oldest of 600 flushes — the 50 bad
        ones among them — are forgotten, silently (ROADMAP item 2 has
        the fix: per-SLO running totals folded at sweep time)."""
        spec = SLOSpec(name="latency", metric="test.step.latency",
                       threshold=1.0, target=0.9)
        kernel, store, evaluator, _ = slo_env(spec)
        for flush in range(600):
            store.append("test.step.latency", {}, 30.0 * flush,
                         9.0 if flush < 50 else 0.5)
        kernel.run(until=30.0 * 600)
        [status] = evaluator.evaluate_quiet()
        assert (status["events"], status["bad"]) == (512.0, 0.0)
        assert status["budget_remaining"] == 1.0

    def test_default_slos_cover_the_issue_objectives(self):
        names = {slo.name for slo in default_slos()}
        assert names == {"step-latency-p95", "breaker-open-ratio",
                         "stream-gap-rate"}


# ---------------------------------------------------------------------------
# the flight recorder


class TestExtractStep:
    @pytest.mark.parametrize("what,detail,expected", [
        ("execute", {"step": 7}, 7),
        ("execute", {"step": True}, None),
        ("execute", {"txn": "run-step00012-uiuc"}, 12),
        ("commit", {"transaction": "r-step00003-cu"}, 3),
        ("step0004.done", {}, 4),
        ("execute", {}, None),
    ])
    def test_step_recovery(self, what, detail, expected):
        assert extract_step(what, detail) == expected


class TestFlightRecorder:
    def test_log_events_are_kept_per_source(self):
        kernel = Kernel()
        recorder = FlightRecorder(kernel)
        kernel.emit("ogsi.ntcp-uiuc", "execute.committed",
                    txn="r-step00007-uiuc")
        kernel.emit("coordinator.r", "step.committed", step=7)
        kernel.emit("fleet.scheduler", "tenant.alert", tenant="ada")
        kernel.emit("net", "msg.dropped", msg_id="m1")  # not recorded
        sources = recorder.snapshot(run_id="r", reason="t")["sources"]
        assert list(sources) == ["coordinator", "fleet", "ntcp-uiuc"]
        [event] = sources["ntcp-uiuc"]
        assert event["step"] == 7 and event["type"] == "log"

    def test_spans_record_under_their_site(self):
        kernel = Kernel()
        recorder = FlightRecorder(kernel)
        tracer = kernel.telemetry.tracer
        span = tracer.start_span("coordinator.step", step=3)
        kernel.run(until=2.0)
        span.end()
        tracer.start_span("core.server.execute", site="ntcp-uiuc",
                          txn="r-step00004-uiuc").end()
        tracer.start_span("net.rpc.call", method="ping").end()  # dropped
        sources = recorder.snapshot(run_id="r", reason="t")["sources"]
        [coord] = sources["coordinator"]
        assert coord["step"] == 3 and coord["detail"]["duration"] == 2.0
        [site] = sources["ntcp-uiuc"]
        assert site["step"] == 4
        assert "net.rpc.call" not in {e["what"]
                                      for ring in sources.values()
                                      for e in ring}

    def test_rings_are_bounded(self):
        kernel = Kernel()
        recorder = FlightRecorder(kernel, capacity=4)
        for step in range(10):
            kernel.emit("ogsi.ntcp-uiuc", "execute", step=step)
        snapshot = recorder.snapshot(run_id="r", reason="t")
        ring = snapshot["sources"]["ntcp-uiuc"]
        assert [e["step"] for e in ring] == [6, 7, 8, 9]
        assert recorder.stats()["events"] == 4

    @pytest.mark.parametrize("simulation_only", [False, True])
    def test_rendering_at_the_incident_equals_rendering_at_emit(
            self, monkeypatch, simulation_only):
        """The rings keep the ``LogRecord`` / ``Span`` they were handed
        and ``snapshot()`` renders them; a twin that renders every event
        the moment it is emitted (as the recorder used to) ends with the
        same rings — so no emitter writes to a ``detail`` or ``attrs``
        after handing it over."""
        import repro.observatory.wiring as wiring

        class RendersAtEmit(FlightRecorder):
            def on_record(self, record):
                source = record.subsystem.split(".", 1)
                if source[0] not in ("ogsi", "coordinator", "fleet"):
                    return
                detail = _jsonable(record.detail)
                self._ring(source[source[0] == "ogsi"]).append({
                    "time": record.time, "type": "log",
                    "what": record.kind, "detail": detail,
                    "step": extract_step(record.kind, detail)})

            def on_span(self, span):
                site = (span.attrs or {}).get("site")
                if span.name.startswith("coordinator."):
                    site = "coordinator"
                elif not (isinstance(site, str) and site):
                    return
                detail = _jsonable(dict(span.attrs or {}))
                detail["duration"] = span.end_time - span.start
                self._ring(site).append({
                    "time": span.end_time, "type": "span",
                    "what": span.name, "detail": detail,
                    "step": extract_step(span.name, detail)})

        at_emit = []

        class Paired(FlightRecorder):
            def __init__(self, kernel):     # small rings: they evict
                self.twin = RendersAtEmit(kernel, capacity=32)
                super().__init__(kernel, capacity=32)

            def snapshot(self, **header):
                at_emit.append({source: list(self.twin._rings[source])
                                for source in sorted(self.twin._rings)})
                return super().snapshot(**header)

        monkeypatch.setattr(wiring, "FlightRecorder", Paired)
        outcome = (ExperimentSession(small(), run_id="twin",
                                     simulation_only=simulation_only)
                   .with_faults(outage_duration=float("inf"))
                   .with_observatory().run())
        assert not outcome.completed
        recorder = outcome.observatory.recorder
        after_the_drain = recorder.snapshot(run_id="twin", reason="now")
        assert [snapshot["sources"] for snapshot in recorder.snapshots] \
            == at_emit
        assert [snapshot["reason"] for snapshot in recorder.snapshots] \
            == ["abort", "now"]
        assert len(after_the_drain["sources"]) >= 4
        assert {event["type"]
                for events in after_the_drain["sources"].values()
                for event in events} == {"log", "span"}
        assert max(map(len, recorder._rings.values())) == 32

    def test_snapshot_validates_and_postmortem_filters_steps(self):
        kernel = Kernel()
        recorder = FlightRecorder(kernel)
        for step in range(1, 9):
            kernel.emit("ogsi.ntcp-uiuc", "execute.committed", step=step)
        kernel.emit("coordinator.r", "experiment.aborted", error="timeout")
        snapshot = recorder.snapshot(run_id="r", reason="abort", step=8,
                                     site="uiuc")
        assert snapshot["kind"] == "flight" and len(recorder.snapshots) == 1
        text = postmortem_timeline(snapshot, last_steps=3)
        assert "POSTMORTEM  run=r  reason=abort" in text
        assert "step=8  site=uiuc" in text
        # the 3-step window drops steps 1..5 but keeps step-less events
        for step in (1, 5):
            assert f"    {step}  execute.committed" not in text
        assert "experiment.aborted" in text

    def test_snapshot_step_below_minus_one_is_rejected(self):
        kernel = Kernel()
        recorder = FlightRecorder(kernel)
        with pytest.raises(ObservatorySchemaError):
            recorder.snapshot(run_id="r", reason="abort", step=-2)


# ---------------------------------------------------------------------------
# the OGSI front end


class TestObservatoryService:
    def service_env(self):
        kernel = Kernel()
        network = Network(kernel, seed=5)
        network.add_host("repo")
        network.add_host("client")
        network.connect("repo", "client", latency=0.01)
        container = ServiceContainer(network, "repo")
        store = TimeSeriesStore(kernel)
        recorder = FlightRecorder(kernel)
        service = ObservatoryService(store=store, recorder=recorder)
        container.deploy(service)
        rpc = RpcClient(network, "client", default_timeout=10.0)

        def invoke(operation, params):
            def go():
                return (yield from rpc.call(
                    "repo", "ogsi", "invoke",
                    {"service_id": service.service_id,
                     "operation": operation, "params": params}))
            return kernel.run(until=kernel.process(go()))

        return kernel, store, recorder, service, invoke

    def test_query_operation_returns_validated_documents(self):
        kernel, store, _, _, invoke = self.service_env()
        sink = kernel.telemetry.add_sink(InMemorySink())
        for i in range(5):
            store.append("a.b.c", {"site": "x"}, float(i), float(i))
        kernel.run(until=10.0)  # the query window defaults to end=now
        result = invoke("query", {"metric": "a.b.c", "agg": "avg"})
        validate_query_result(result)
        assert result["aggregate"]["value"] == 2.0
        assert [(r.subsystem, r.kind) for r in sink.records] == [
            ("ogsi.observatory", "query.served")]

    def test_list_series_and_snapshots_operations(self):
        _, store, recorder, _, invoke = self.service_env()
        store.append("a.b.c", {"site": "x"}, 0.0, 1.0)
        assert invoke("listSeries", {}) == [
            {"name": "a.b.c", "labels": {"site": "x"}, "appended": 1}]
        assert invoke("getSnapshots", {}) == []
        recorder.snapshot(run_id="r", reason="abort", step=3, site="x")
        assert invoke("getSnapshots", {"run_id": "nope"}) == []
        [snap] = invoke("getSnapshots", {"run_id": "r"})
        assert snap["step"] == 3

    def test_stats_operation_publishes_the_sde(self):
        _, store, _, service, invoke = self.service_env()
        store.append("a.b.c", {}, 0.0, 1.0)
        stats = invoke("stats", {})
        assert stats["series"] == 1 and stats["flight"]["snapshots"] == 0
        assert service.service_data.value("observatory.stats") == stats


# ---------------------------------------------------------------------------
# full-session wiring


def small():
    return MOSTConfig().scaled(40)


class TestSessionIntegration:
    def test_observatory_rides_a_clean_run(self):
        outcome = (ExperimentSession(small(), run_id="obs-clean")
                   .with_fault_tolerance()
                   .with_observatory()
                   .run())
        assert outcome.completed
        obs = outcome.observatory
        assert obs is not None
        stats = obs.store.stats()
        assert stats["samples_ingested"] > 0 and stats["series"] > 0
        # the streamed step-time histogram landed as stat sub-series
        matched = obs.store.match("coordinator.mspsds.step_time",
                                  {"stat": "p95"})
        assert matched and all(s.labels["run_id"] == "obs-clean"
                               for s in matched)
        result = obs.query({"metric": "coordinator.mspsds.step_time",
                            "selector": {"stat": "p95"}, "agg": "max"})
        assert result["total_series"] == 1
        assert result["aggregate"]["value"] > 0.0
        # a healthy run spends no error budget and trips no black box
        assert set(obs.slo.budget_remaining().values()) == {1.0}
        assert obs.recorder.snapshots == []
        assert obs.monitor_kit.monitor.alerts == []

    def test_abort_captures_and_registers_the_black_box(self):
        outcome = (ExperimentSession(small(), run_id="obs-abort")
                   .with_faults(outage_duration=float("inf"))
                   .with_observatory()
                   .run())
        assert not outcome.completed
        obs = outcome.observatory
        [snapshot] = obs.recorder.snapshots
        assert snapshot["reason"] == "abort"
        assert snapshot["step"] == outcome.result.aborted_at_step
        # the abort names the site whose exchange failed, all the way
        # from the coordinator's one abort exit to the header
        assert outcome.result.aborted_site == snapshot["site"] == "uiuc"
        [aborted] = [event for event in snapshot["sources"]["coordinator"]
                     if event["what"] == "experiment.aborted"]
        assert aborted["detail"]["site"] == "uiuc"
        text = obs.postmortem()
        assert "POSTMORTEM  run=obs-abort  reason=abort" in text
        assert f"incident    step={snapshot['step']}  site=uiuc  " in text
        with pytest.raises(ReproError):
            obs.postmortem("never-ran")
        # the drain phase carried the snapshot to the repository
        assert obs.registered_snapshots

    def test_slo_burn_reaches_the_console_and_freezes_the_flight_rings(self):
        """SLO evaluator → ``ExperimentMonitor.raise_alert`` → the
        observatory's ``on_alert`` hook → ``record_escalation``: the one
        path a fake sink cannot cover."""
        must_burn = SLOSpec(name="no-step-is-free",
                            metric="coordinator.mspsds.step_time",
                            selector={"stat": "p95"}, threshold=0.0)
        outcome = (ExperimentSession(MOSTConfig().scaled(60), run_id="burn")
                   .with_fault_tolerance().with_anomalies()
                   .with_observatory(slos=[must_burn])
                   .run())
        assert outcome.completed
        burns = [a for a in outcome.alerts if a.kind == "slo_burn"]
        assert {a.severity for a in burns} == {"critical", "warning"}
        assert all(a.detail["slo"] == "no-step-is-free" for a in burns)
        obs = outcome.observatory
        hub = outcome.deployment.kernel.telemetry
        assert obs.slo.alerts_raised == len(burns) == \
            hub.counter("observatory.slo.alerts").value
        # every critical alert — the burn and the anomaly's stall — froze
        # the rings, and the drain carried both to the repository
        reasons = [snap["reason"] for snap in obs.recorder.snapshots]
        assert reasons == ["alert:slo_burn", "alert:stall"]
        assert len(obs.registered_snapshots) == 2

    def test_dump_round_trips_through_an_offline_store(self):
        outcome = (ExperimentSession(small(), run_id="obs-dump")
                   .with_fault_tolerance()
                   .with_observatory()
                   .run())
        obs = outcome.observatory
        dump = obs.dump()
        validate_dump(dump)
        rebuilt = TimeSeriesStore.from_records(dump["series"])
        request = {"metric": "coordinator.mspsds.step_time",
                   "selector": {"stat": "p50"}, "agg": "avg",
                   "end": dump["time"]}
        offline = run_query(rebuilt, request, now=dump["time"])
        live = obs.query(request)
        assert json.dumps(offline, sort_keys=True) == \
            json.dumps(live, sort_keys=True)


class TestExports:
    def test_observatory_is_in_the_curated_top_level_api(self):
        for name in ("TimeSeriesStore", "SLOEvaluator", "FlightRecorder",
                     "attach_observatory", "postmortem_timeline"):
            assert hasattr(repro, name) and name in repro.__all__
