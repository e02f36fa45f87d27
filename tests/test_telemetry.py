"""The telemetry plane: metrics math, span propagation, export, report.

Four concerns, bottom-up:

* instrument math — exact percentiles, registry identity, snapshot shape;
* tracing — span nesting, ambient context, and propagation across a
  simulated RPC hop (client and server spans share one trace id); a
  finished span kept as a row reads back as the span its sinks saw;
* export — JSONL round-trip through :meth:`TelemetryHub.export_jsonl`,
  schema validation of good and bad documents;
* the coordinator integration — a full MS-PSDS run whose per-step spans
  decompose into integrate/propose/execute/commit phases that sum to the
  step's wall time, rendered by :mod:`repro.telemetry.report`.
"""

import contextlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.control import SimulationPlugin, make_displacement_actions
from repro.coordinator import SimulationCoordinator, SiteBinding
from repro.core import NTCPClient, NTCPServer
from repro.net import Network, RpcClient, RpcService
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import GroundMotion, LinearSubstructure, StructuralModel
from repro.telemetry import (
    SCHEMA_ID,
    InMemorySink,
    LogRecord,
    SchemaError,
    TelemetryHub,
    TraceContext,
    validate_jsonl_export,
    validate_metric_name,
    validate_metrics_payload,
)
from repro.telemetry import spans as spans_module
from repro.telemetry.report import (
    CORE_PHASES,
    report_from_jsonl,
    report_from_spans,
    step_rows,
)
from repro.testing import make_site
from repro.util import rows as rows_module


class TestMetrics:
    def test_counter_monotone(self):
        hub = TelemetryHub()
        c = hub.counter("layer.comp.events")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_add(self):
        hub = TelemetryHub()
        g = hub.gauge("layer.comp.depth")
        g.set(3.0)
        g.add(-1.5)
        assert g.value == pytest.approx(1.5)

    def test_registry_returns_same_instrument(self):
        hub = TelemetryHub()
        assert hub.counter("a.b.c", site="x") is hub.counter("a.b.c", site="x")
        assert hub.counter("a.b.c", site="x") is not hub.counter("a.b.c",
                                                                 site="y")

    def test_registry_rejects_kind_change(self):
        hub = TelemetryHub()
        hub.counter("a.b.c")
        with pytest.raises(TypeError):
            hub.gauge("a.b.c")

    def test_histogram_exact_percentiles(self):
        hub = TelemetryHub()
        h = hub.histogram("a.b.latency")
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:  # deliberately unsorted
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(3.0)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 5.0
        assert h.percentile(50) == 3.0
        # linear interpolation between ranks: p25 of [1..5] = 2.0
        assert h.percentile(25) == pytest.approx(2.0)
        assert h.percentile(90) == pytest.approx(4.6)

    def test_histogram_empty_and_single(self):
        hub = TelemetryHub()
        h = hub.histogram("a.b.c")
        assert h.percentile(50) == 0.0
        h.observe(7.0)
        assert h.percentile(99) == 7.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_histogram_empty_every_percentile_is_zero(self):
        h = TelemetryHub().histogram("a.b.c")
        for p in (0, 25, 50, 95, 100):
            assert h.percentile(p) == 0.0
        assert h.count == 0 and h.mean == 0.0

    def test_histogram_single_observation_is_every_percentile(self):
        h = TelemetryHub().histogram("a.b.c")
        h.observe(3.25)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 3.25

    def test_histogram_all_equal_values_interpolate_flat(self):
        h = TelemetryHub().histogram("a.b.c")
        for _ in range(9):
            h.observe(4.0)
        for p in (0, 10, 37.5, 50, 99, 100):
            assert h.percentile(p) == 4.0
        assert h.summary()["p50"] == 4.0

    def test_histogram_exact_rank_boundaries_need_no_interpolation(self):
        h = TelemetryHub().histogram("a.b.c")
        for v in (10.0, 20.0, 30.0, 40.0, 50.0):
            h.observe(v)
        # ranks (p/100)*(n-1) landing exactly on 0..4
        assert h.percentile(0) == 10.0
        assert h.percentile(25) == 20.0
        assert h.percentile(50) == 30.0
        assert h.percentile(75) == 40.0
        assert h.percentile(100) == 50.0
        with pytest.raises(ValueError):
            h.percentile(-0.5)

    def test_histogram_summary_keys(self):
        hub = TelemetryHub()
        h = hub.histogram("a.b.c")
        h.observe(1.0)
        h.observe(2.0)
        s = h.summary()
        assert s["count"] == 2 and s["sum"] == 3.0
        # the union of stats; each consumer picks its keys — the exporter
        # p90, the streamed console sample p95
        assert set(s) == {"count", "sum", "mean", "min", "max",
                          "p50", "p90", "p95", "p99"}
        assert set(h.describe()["summary"]) == set(s) - {"p95"}

    def test_histogram_summarises_once_per_change(self, monkeypatch):
        """A summary is computed on the first call after an ``observe``;
        later calls hand out copies of it."""
        import repro.telemetry.metrics as metrics

        computed = []
        percentile = metrics.percentile
        monkeypatch.setattr(metrics, "percentile", lambda values, p: (
            computed.append(p), percentile(values, p))[1])
        h = TelemetryHub().histogram("a.b.c")
        h.observe(2.0)
        first = h.summary()
        first["count"] = 99
        assert h.summary() == {**first, "count": 1}
        assert len(computed) == 4      # p50, p90, p95, p99: once
        h.observe(1.0)
        assert (h.summary()["count"], h.summary()["min"]) == (2, 1.0)
        assert len(computed) == 8

    def test_snapshot_is_sorted_and_stringifies_labels(self):
        hub = TelemetryHub()
        hub.counter("z.z.last").inc()
        hub.counter("a.a.first", port=8080).inc(2)
        snap = hub.metrics_snapshot()
        assert [r["name"] for r in snap] == ["a.a.first", "z.z.last"]
        assert snap[0]["labels"] == {"port": "8080"}

    @given(st.permutations(
        [(name, labels) for name in ("a.b.c", "a.b", "a.b.c.d", "z.y.x")
         for labels in ({}, {"site": "x"}, {"site": "y", "run": "1"},
                        {"run": "1", "site": "y", "port": 80})]))
    def test_registry_keeps_key_order_whatever_the_creation_order(self, order):
        """Identity — ``Metric.key`` — is computed at creation and the
        registry is kept in its order, so no reader sorts."""
        hub = TelemetryHub()
        for index, (name, labels) in enumerate(order):
            hub.counter(name, **labels).inc(index)
        snapshot = hub.metrics_snapshot()
        assert snapshot == sorted(
            snapshot, key=lambda d: (d["name"], sorted(d["labels"].items())))
        assert [m.describe() for m in hub.registry] == snapshot
        for metric in hub.registry:
            assert metric.key == (metric.name,
                                  tuple(sorted(metric.labels.items())))
            assert hub.registry.find(metric.name, **metric.labels) is metric


class TestTracing:
    def make_tracer(self):
        return TelemetryHub(clock=lambda: 0.0).tracer

    def test_span_nesting_and_ids_deterministic(self):
        hub = TelemetryHub(clock=lambda: 1.0)
        root = hub.start_span("a.b.root")
        child = hub.start_span("a.b.child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.trace_id == "trace-1" and root.span_id == "span-1"

    def test_ambient_activation(self):
        hub = TelemetryHub()
        root = hub.start_span("a.b.root")
        previous = hub.tracer.activate(root)
        try:
            inner = hub.start_span("a.b.inner")
        finally:
            hub.tracer.activate(previous)
        outside = hub.start_span("a.b.outside")
        assert inner.parent_id == root.span_id
        assert outside.parent_id is None
        assert outside.trace_id != root.trace_id

    def test_parent_none_forces_new_root(self):
        hub = TelemetryHub()
        root = hub.start_span("a.b.root")
        hub.tracer.activate(root)
        try:
            fresh = hub.start_span("a.b.fresh", parent=None)
        finally:
            hub.tracer.activate(None)
        assert fresh.parent_id is None
        assert fresh.trace_id != root.trace_id

    def test_end_is_idempotent_and_feeds_sinks(self):
        ticks = iter([0.0, 2.5, 99.0])
        hub = TelemetryHub(clock=lambda: next(ticks))
        sink = hub.add_sink(InMemorySink())
        span = hub.start_span("a.b.op")
        span.end(ok=True)
        span.end(ok=False)  # no-op: already finished
        assert span.duration == pytest.approx(2.5)
        assert span.attrs == {"ok": True}
        assert sink.spans == [span]

    def test_span_as_context_manager(self):
        ticks = iter([0.0, 1.5])
        hub = TelemetryHub(clock=lambda: next(ticks))
        with hub.start_span("a.b.op", ok=True) as span:
            pass
        assert span.finished
        assert span.duration == pytest.approx(1.5)
        assert "error" not in span.attrs

    def test_span_context_manager_records_exception(self):
        hub = TelemetryHub(clock=lambda: 0.0)
        with pytest.raises(ValueError):
            with hub.start_span("a.b.op") as span:
                raise ValueError("boom")
        assert span.finished
        assert span.attrs["error"] == "ValueError"

    def test_trace_context_roundtrip(self):
        ctx = TraceContext(trace_id="trace-9", span_id="span-4")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_propagation_across_rpc_hop(self):
        """Client verb → server op is one trace across the wire: the
        verb's span covers the hop, so the server's op span is its
        direct child and no ``net.rpc.*`` span opens on either side."""
        env = make_site(SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0]), compute_time=0.05))
        hub = env.kernel.telemetry
        root = hub.start_span("test.harness.root")

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "txn-1", make_displacement_actions({0: 0.001}),
                ctx=root)

        env.run(go())
        root.end()
        spans = {span.name: span for span in hub.spans()}
        assert sorted(spans) == [
            "core.client.execute", "core.client.propose",
            "core.server.execute", "core.server.propose",
            "test.harness.root"]
        for verb in ("propose", "execute"):
            client = spans[f"core.client.{verb}"]
            server = spans[f"core.server.{verb}"]
            assert (client.trace_id, server.trace_id) == (root.trace_id,) * 2
            assert client.parent_id == root.span_id
            assert server.parent_id == client.span_id
            assert (client.attrs["attempts"], client.attrs["ok"]) == (1, True)

    @pytest.mark.parametrize("ctx", [
        None, TraceContext(trace_id="trace-9", span_id="span-99"), "ended"],
        ids=["no ctx", "context", "finished span"])
    def test_an_uncovered_call_keeps_both_rpc_spans(self, ctx):
        """A call whose caller passes no live span of its own opens
        ``net.rpc.call`` under its ``ctx`` and ``net.rpc.server`` under
        that, and the handler's spans parent under the server span."""
        kernel = Kernel()
        net = Network(kernel, seed=0)
        net.add_host("client")
        net.add_host("server")
        net.connect("client", "server", latency=0.05)
        hub = kernel.telemetry
        service = RpcService(net, "server", "svc")
        service.register("ping", lambda caller: hub.start_span(
            "test.handler.op").end() and "pong")
        client = RpcClient(net, "client")
        if ctx == "ended":
            ctx = hub.start_span("test.harness.root").end()
        assert kernel.run(until=kernel.process(client.call(
            "server", "svc", "ping", ctx=ctx))) == "pong"
        spans = {span.name: span for span in hub.spans()}
        call, server, op = (spans[name] for name in (
            "net.rpc.call", "net.rpc.server", "test.handler.op"))
        assert call.parent_id == (None if ctx is None else ctx.span_id)
        assert (server.parent_id, op.parent_id) == (call.span_id,
                                                    server.span_id)
        assert {call.trace_id, server.trace_id, op.trace_id} == {
            call.trace_id}
        assert call.attrs == {"method": "ping", "dst": "server",
                              "port": "svc", "ok": True, "attempts": 1}

    def test_rpc_span_without_ctx_is_fresh_root(self):
        env = make_site(SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0])))

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.001}))

        env.run(go())
        verb = env.kernel.telemetry.spans("core.client.propose")[0]
        assert verb.parent_id is None

    def test_a_run_that_dies_mid_step_leaves_no_span_open(self):
        """A pipelined run into a permanent outage: every span that was
        opened as a parent is finished, so the failure exits of the client
        verbs, the per-site fan-out and the background step round each
        close what they opened before re-raising."""
        from repro import ExperimentSession
        from repro.most import MOSTConfig

        outcome = (ExperimentSession(MOSTConfig().scaled(60),
                                     simulation_only=True)
                   .with_faults(outage_duration=float("inf"))
                   .with_pipeline().run())
        assert not outcome.result.completed
        spans = outcome.deployment.kernel.telemetry.spans()
        finished = {span.span_id for span in spans}
        assert {span.name for span in spans
                if span.parent_id is not None
                and span.parent_id not in finished} == set()


_SPAN_NAMES = ("a.op", "a.inner", "b.op")
_ATTR_VALUES = st.one_of(
    st.text(max_size=4), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.none(), st.sampled_from([-0.0, float("nan"), 1.5]),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 9), max_size=2))
_ATTRS = st.dictionaries(st.sampled_from(["step", "site", "ok", "error"]),
                         _ATTR_VALUES, max_size=3)
#: span ids that are not what this tracer formats as ``span-N``
_FOREIGN_IDS = st.sampled_from(["span-0", "span-01", "span-", "span-x", "x",
                                "span-" + "9" * 24, "span-\u0661", "span-+1"])
_PARENTS = st.one_of(
    st.just(("root",)), st.just(("ambient",)),
    st.tuples(st.sampled_from(["span", "wire", "ids"]), st.integers(0, 30)),
    st.tuples(st.just("foreign"), _FOREIGN_IDS),
    st.tuples(st.just("foreign"), st.text(max_size=8)))
_SPAN_PROGRAMS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["start", "raise"]),
              st.sampled_from(_SPAN_NAMES), _PARENTS, _ATTRS),
    st.tuples(st.just("end"), st.integers(0, 30), _ATTRS),
    st.tuples(st.just("activate"), st.integers(-1, 30)),
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 1.0]))),
    max_size=40)


def _run_span_program(program):
    """Run ``program`` on a hub with an :class:`InMemorySink`: roots,
    parents given as spans, wire dicts (``Span.to_wire``), dicts of two
    ids (live or foreign) or the ambient slot, ``with`` blocks that raise, ``end(**attrs)`` and double
    ``end``.  Returns the hub, the sink, every span started and the
    parent id each was given."""
    now = [0.0]
    hub = TelemetryHub(clock=lambda: now[0])
    sink = hub.add_sink(InMemorySink())
    opened, given, active = [], [], [None]

    def parent_of(choice):
        if choice[0] == "ambient":
            given.append(active[0] and active[0].span_id)
            return {}
        if choice[0] == "foreign":
            given.append(choice[1])
            return {"parent": {"trace_id": "trace-x", "span_id": choice[1]}}
        if choice[0] == "root" or not opened:
            given.append(None)
            return {"parent": None}
        span = opened[choice[1] % len(opened)]
        given.append(span.span_id)
        return {"parent": {
            "span": span, "wire": span.to_wire(False),
            "ids": {"trace_id": span.trace_id, "span_id": span.span_id},
        }[choice[0]]}

    for op, *args in program:
        if op == "start":
            name, parent, attrs = args
            opened.append(hub.start_span(name, **parent_of(parent), **attrs))
        elif op == "raise":
            name, parent, attrs = args
            with contextlib.suppress(ValueError):
                with hub.start_span(name, **parent_of(parent),
                                    **attrs) as span:
                    opened.append(span)
                    raise ValueError(name)
        elif op == "end" and opened:
            opened[args[0] % len(opened)].end(**args[1])
        elif op == "activate":
            active[0] = (opened[args[0] % len(opened)]
                         if args[0] >= 0 and opened else None)
            hub.tracer.activate(active[0])
        elif op == "tick":
            now[0] += args[0]
    return hub, sink, opened, given


def _leaf_types(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_types(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaf_types(item, (*path, index))
    else:
        yield path, type(value)


def _as_seen(records):
    """JSON text and leaf types: what a reader of the trace can tell."""
    records = list(records)
    return json.dumps(records), list(_leaf_types(records))


def _reads_back_as_the_sink_saw(program):
    """Every reader of the row store answers as a list of the spans the
    sink saw at finish would: length, each item (also by negative index
    and through slices), the name / trace-id queries, the children of
    every parent, and the export dicts."""
    hub, sink, opened, given = _run_span_program(program)
    assert [span.parent_id for span in opened] == given
    live = sink.spans
    seen = _as_seen(span.to_dict() for span in live)
    spans = hub.spans()
    assert len(spans) == len(live)
    assert _as_seen(span.to_dict() for span in spans) == seen
    assert _as_seen(spans[-index].to_dict()
                    for index in range(len(live), 0, -1)) == seen
    for start, stop, step in ((1, None, None), (2, -1, None),
                              (None, None, 2), (None, None, -1)):
        part = spans[start:stop:step]
        assert len(part) == len(live[start:stop:step])
        assert _as_seen(span.to_dict() for span in part) == _as_seen(
            span.to_dict() for span in live[start:stop:step])
    assert _as_seen(hub.tracer.dicts()) == seen
    # the queries answer as list filters over the finished spans did
    trace_ids = {span.trace_id for span in opened}
    for name in (None, *_SPAN_NAMES):
        for trace_id in (None, *trace_ids, "trace-none"):
            want = [span for span in live
                    if name in (None, span.name)
                    and trace_id in (None, span.trace_id)]
            assert _as_seen(span.to_dict() for span in hub.spans(
                name, trace_id=trace_id)) == _as_seen(
                    span.to_dict() for span in want)
    parents = [*opened, TraceContext("trace-x", None), *(
        TraceContext("trace-x", span.parent_id) for span in live)]
    for parent in parents:
        want = [span for span in live
                if span.parent_id == parent.span_id]
        assert _as_seen(span.to_dict() for span in hub.tracer.children(
            parent)) == _as_seen(span.to_dict() for span in want)


class TestRowStore:
    """A finished span is kept as a row and read back as the span its
    sinks saw at finish."""

    @given(_SPAN_PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_a_row_reads_back_as_the_span_the_sink_saw(self, program):
        _reads_back_as_the_sink_saw(program)

    @given(_SPAN_PROGRAMS)
    @settings(max_examples=300, deadline=None)
    def test_rows_read_back_across_chunk_boundaries(self, program):
        """Three rows per chunk: every example of more than three
        finished spans spreads them over chunks, so each reader maps
        rows to (chunk, offset) and walks chunk after chunk."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rows_module, "CHUNK_ROWS", 3)
            _reads_back_as_the_sink_saw(program)

    def test_a_read_is_a_fresh_span_and_changes_nothing_kept(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0])
        hub = TelemetryHub(clock=lambda: next(ticks))
        root = hub.start_span("a.root", step=1)
        hub.start_span("a.child", parent=root).end(ok=True)
        root.end()
        spans = hub.spans()
        assert [span.name for span in spans] == ["a.child", "a.root"]
        assert spans[-1].to_dict() == root.to_dict()
        assert spans[-1] is not spans[-1]
        assert [span.name for span in spans[1:]] == ["a.root"]
        spans[0].attrs["ok"] = False
        spans[0].end(late=True)  # finished already: no second row
        assert hub.spans()[0].attrs == {"ok": True}
        assert len(hub.spans()) == 2
        assert hub.spans()[0].duration == 1.0

    def test_the_length_of_the_trace_builds_no_span(self, monkeypatch):
        hub = TelemetryHub(clock=lambda: 0.0)
        for _ in range(3):
            hub.start_span("a.op").end()
        built = []
        init = spans_module.Span.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(spans_module.Span, "__init__", counting_init)
        assert len(hub.spans()) == 3 and built == []
        assert len(hub.spans("a.op")) == 3 and built == []
        hub.spans()[0]
        assert len(built) == 1


class TestRecordSinks:
    """``Kernel.emit`` hands each record to the hub's record sinks and
    keeps nothing itself."""

    def test_sinks_see_records_in_emit_order(self):
        k = Kernel()
        sink = k.telemetry.add_sink(InMemorySink())
        seen = []

        class RecordsOnly:          # a sink needs only the hook it uses
            on_record = staticmethod(seen.append)

        k.telemetry.add_sink(RecordsOnly())

        def proc(kernel):
            kernel.emit("ntcp.server.uiuc", "transaction.accepted", txn="t-1")
            yield kernel.timeout(1.5)
            kernel.emit("daq.uiuc", "sample", n=4)

        k.process(proc(k))
        k.run()
        assert [(r.time, r.subsystem, r.kind, r.detail)
                for r in sink.records] == [
            (0.0, "ntcp.server.uiuc", "transaction.accepted", {"txn": "t-1"}),
            (1.5, "daq.uiuc", "sample", {"n": 4})]
        assert seen == sink.records
        with k.telemetry.start_span("a.b.op"):
            pass
        assert len(sink.spans) == 1     # spans still reach on_span

    def test_no_record_sink_means_no_record_is_built(self, monkeypatch):
        built = []
        init = LogRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LogRecord, "__init__", counting_init)

        class SpansOnly:
            on_span = staticmethod(lambda span: None)

        k = Kernel()
        k.emit("s", "k", value=0)
        k.telemetry.add_sink(SpansOnly())
        k.emit("s", "k", value=1)
        assert built == []
        k.telemetry.add_sink(InMemorySink())
        k.emit("s", "k", value=2)
        assert built == [(0.0, "s", "k", {"value": 2})]

    def test_a_sink_added_mid_run_sees_only_later_records(self):
        k = Kernel()
        early = k.telemetry.add_sink(InMemorySink())
        late = []

        def proc(kernel):
            for i in range(4):
                kernel.emit("s", "tick", i=i)
                if i == 1:
                    late.append(kernel.telemetry.add_sink(InMemorySink()))
                yield kernel.timeout(1.0)

        k.process(proc(k))
        k.run()
        assert [r.detail["i"] for r in early.records] == [0, 1, 2, 3]
        assert [r.detail["i"] for r in late[0].records] == [2, 3]

    def test_records_are_frozen(self):
        k = Kernel()
        sink = k.telemetry.add_sink(InMemorySink())
        k.emit("s", "k")
        [record] = sink.records
        with pytest.raises(AttributeError):
            record.time = 1.0


class TestExportAndSchema:
    def test_jsonl_roundtrip(self, tmp_path):
        ticks = iter(float(i) for i in range(100))
        hub = TelemetryHub(clock=lambda: next(ticks))
        hub.counter("layer.comp.events", site="a").inc(3)
        hub.histogram("layer.comp.latency").observe(0.5)
        parent = hub.start_span("layer.comp.op")
        hub.start_span("layer.comp.inner", parent=parent).end()
        parent.end()
        path = hub.export_jsonl(tmp_path / "run.jsonl", experiment="unit")
        loaded = TelemetryHub.load_jsonl(path)
        validate_jsonl_export(loaded)
        assert loaded["meta"]["experiment"] == "unit"
        assert loaded["meta"]["schema"] == SCHEMA_ID
        names = {m["name"] for m in loaded["metrics"]}
        assert names == {"layer.comp.events", "layer.comp.latency"}
        assert [s["name"] for s in loaded["spans"]] == [
            "layer.comp.inner", "layer.comp.op"]  # finish order
        inner = loaded["spans"][0]
        assert inner["parent_id"] == loaded["spans"][1]["span_id"]

    def test_jsonl_sink_streams_spans(self, tmp_path):
        from repro.telemetry import JsonlSink

        hub = TelemetryHub(clock=lambda: 0.0)
        sink = hub.add_sink(JsonlSink(tmp_path / "stream.jsonl"))
        hub.start_span("a.b.c").end()
        sink.close()
        lines = [json.loads(line) for line in
                 (tmp_path / "stream.jsonl").read_text().splitlines()]
        assert len(lines) == 1 and lines[0]["kind"] == "span"

    def test_metrics_payload_validates(self):
        hub = TelemetryHub()
        hub.counter("a.b.c").inc()
        payload = hub.metrics_payload("exp")
        validate_metrics_payload(payload)  # no raise
        assert payload["schema"] == SCHEMA_ID

    def test_bad_metric_name_rejected(self):
        for bad in ("flat", "two.parts", "a..c", 7):
            with pytest.raises(SchemaError):
                validate_metric_name(bad)
        validate_metric_name("net.rpc.latency")  # no raise

    def test_bad_payload_pinpoints_path(self):
        payload = {"schema": SCHEMA_ID, "experiment": "x",
                   "metrics": [{"name": "a.b.c", "type": "counter",
                                "labels": {}}]}  # counter missing value
        with pytest.raises(SchemaError, match=r"\$\.metrics\[0\]\.value"):
            validate_metrics_payload(payload)

    def test_unclosed_span_rejected(self):
        loaded = {"meta": {"schema": SCHEMA_ID},
                  "metrics": [],
                  "spans": [{"name": "a.b.c", "trace_id": "t", "span_id": "s",
                             "parent_id": None, "start": 2.0, "end": 1.0,
                             "duration": -1.0, "attrs": {}}]}
        with pytest.raises(SchemaError, match="close at or after"):
            validate_jsonl_export(loaded)
        loaded["spans"][0].update(end=3.0, duration="x")
        with pytest.raises(SchemaError, match=r"\$\.spans\[0\]\.duration"):
            validate_jsonl_export(loaded)


def run_most_like(n_steps=8, latency=0.02, compute_time=0.1):
    """A two-site MS-PSDS run; returns (result, kernel)."""
    k = Kernel()
    net = Network(k, seed=0)
    net.add_host("coord")
    handles = {}
    for name in ("uiuc", "colorado"):
        net.add_host(name)
        net.connect("coord", name, latency=latency)
        c = ServiceContainer(net, name)
        server = NTCPServer(f"ntcp-{name}", SimulationPlugin(
            LinearSubstructure(name, [[50.0]], [0]),
            compute_time=compute_time))
        handles[name] = c.deploy(server)
    model = StructuralModel(mass=[[2.0, 0.0], [0.0, 2.0]],
                            stiffness=[[150.0, -50.0], [-50.0, 50.0]],
                            damping=[[1.0, 0.0], [0.0, 1.0]])
    motion = GroundMotion(dt=0.02, accel=np.sin(np.arange(n_steps) * 0.3))
    client = NTCPClient(RpcClient(net, "coord", default_timeout=1e3),
                        timeout=1e3, retries=1)
    coord = SimulationCoordinator(
        run_id="most-t", client=client, model=model, motion=motion,
        sites=[SiteBinding("uiuc", handles["uiuc"], [0]),
               SiteBinding("colorado", handles["colorado"], [1])],
        execution_timeout=1e3)
    result = k.run(until=k.process(coord.run()))
    return result, k


class TestCoordinatorDecomposition:
    def test_step_spans_decompose_and_sum(self):
        result, k = run_most_like()
        assert result.completed
        hub = k.telemetry
        steps = hub.spans("coordinator.step")
        # one init step (step 0) plus one span per integrated step
        assert len(steps) == 1 + len(result.steps)
        for span in steps:
            children = hub.tracer.children(span)
            assert children, f"step {span.attrs['step']} has no phase spans"
            phase_sum = sum(c.duration for c in children)
            assert phase_sum == pytest.approx(span.duration), \
                f"step {span.attrs['step']}: phases do not sum to wall time"
        # steps 1.. carry the full Figure-5 decomposition
        full = [s for s in steps if s.attrs["step"] >= 1]
        for span in full:
            names = {c.name.rsplit(".", 1)[-1]
                     for c in hub.tracer.children(span)}
            assert names == set(CORE_PHASES)

    def test_step_span_matches_step_record(self):
        result, k = run_most_like(n_steps=5)
        spans = {s.attrs["step"]: s
                 for s in k.telemetry.spans("coordinator.step")}
        for record in result.steps:
            span = spans[record.step]
            assert span.duration == pytest.approx(
                record.wall_finished - record.wall_started)

    def test_counters_track_run(self):
        result, k = run_most_like(n_steps=6)
        reg = k.telemetry.registry
        assert reg.find("coordinator.mspsds.steps",
                        run_id="most-t").value == len(result.steps)
        for name in ("uiuc", "colorado"):
            executed = reg.find("core.server.executed",
                                site=f"ntcp-{name}").value
            assert executed == 1 + len(result.steps)  # init + steps
        assert reg.find("sim.kernel.events").value > 0

    def test_end_to_end_export_and_report(self, tmp_path):
        """MOST-style run → JSONL export → validation → rendered table."""
        result, k = run_most_like()
        assert result.completed
        path = k.telemetry.export_jsonl(tmp_path / "most.trace.jsonl",
                                        experiment="most-t")
        loaded = TelemetryHub.load_jsonl(path)
        validate_jsonl_export(loaded)

        rows = step_rows(loaded["spans"])
        assert [r["step"] for r in rows] == list(range(len(result.steps) + 1))
        for row in rows[1:]:
            assert sum(row["phases"][p] for p in CORE_PHASES) == \
                pytest.approx(row["total"])
            # propose and execute each cost ~2 one-way latencies (20 ms)
            assert row["phases"]["propose"] == pytest.approx(0.04, abs=1e-6)
            assert row["phases"]["execute"] >= 0.04 - 1e-9

        text = report_from_jsonl(path)
        assert "step-latency breakdown — most-t" in text
        for phase in CORE_PHASES:
            assert phase in text
        assert "mean" in text

    @pytest.mark.parametrize("flags", [[], ["--critical-path"]])
    def test_report_cli_runs_clean_as_a_module(self, tmp_path, flags):
        """``python -m repro.telemetry.report`` in a fresh interpreter
        with every warning an error: importing ``repro`` must not load
        the report module before runpy executes it (it did through
        ``repro.monitor.critical_path``, with a ``RuntimeWarning`` on
        stderr and the module body run twice)."""
        _, k = run_most_like(n_steps=3)
        path = k.telemetry.export_jsonl(tmp_path / "t.jsonl", experiment="t")
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.telemetry.report",
             *flags, str(path)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
        assert ("per-site blame table" if flags
                else "step-latency breakdown") in done.stdout

    def test_report_cli_rejects_bad_format_combinations(self, capsys):
        """The only option is ``--critical-path``; any other is the usage
        line and exit 2."""
        from repro.telemetry.report import main

        for argv in (["--format", "xml", "trace.jsonl"],
                     ["--critical-path", "--format", "json", "t.jsonl"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("usage: ")

    @pytest.mark.parametrize("flags", [[], ["--critical-path"]])
    @pytest.mark.parametrize("line", [
        "[1, 2]",                                        # not an object
        '{"broken',                                      # not JSON
        '{"kind": "span", "name": "coordinator.step"}',  # not a span
        '{"kind": "metric", "name": "a.b.c", "type": "counter"}',
    ])
    def test_report_cli_turns_a_bad_trace_into_one_error_line(
            self, tmp_path, capsys, flags, line):
        from repro.telemetry.report import main

        _, k = run_most_like(n_steps=2)
        path = k.telemetry.export_jsonl(tmp_path / "t.jsonl", experiment="t")
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(SchemaError):
            TelemetryHub.load_jsonl(path)
        assert main([*flags, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_report_from_live_spans(self):
        _, k = run_most_like(n_steps=4)
        text = report_from_spans(k.telemetry.spans())
        assert "propose" in text and "total [s]" in text

    def test_report_empty_trace(self):
        assert "no coordinator.step spans" in report_from_spans([])


class TestTypedVerbResults:
    def make_env(self):
        return make_site(SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0])))

    def test_unattached_server_metrics_all_zero(self):
        server = NTCPServer("s", SimulationPlugin(
            LinearSubstructure("s", [[1.0]], [0])))
        metrics = server.metrics()
        assert set(metrics) == {"proposed", "accepted", "rejected", "executed",
                                "failed", "cancelled", "duplicate_proposals",
                                "duplicate_executes"}
        assert all(v == 0 for v in metrics.values())

    def test_verdict_has_no_dict_access(self):
        env = self.make_env()

        def go():
            verdict = yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.001}))
            return verdict

        verdict = env.run(go())
        assert verdict.state == "accepted"
        # The one-release dict-compat shim is gone: no subscripting, no
        # .get()/.keys() — attribute access is the only read API.
        assert not hasattr(type(verdict), "__getitem__")
        assert not hasattr(verdict, "get")
        assert not hasattr(verdict, "keys")

    def test_outcome_round_trips(self):
        env = self.make_env()

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.001}))
            return result

        outcome = env.run(go())
        assert outcome.duration > 0
        assert type(outcome)(**outcome.to_dict()) == outcome
        assert not hasattr(type(outcome), "__getitem__")
