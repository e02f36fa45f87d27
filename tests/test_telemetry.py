"""The telemetry plane: metrics math, span propagation, export, report.

Four concerns, bottom-up:

* instrument math — exact percentiles, registry identity, snapshot shape;
* tracing — span nesting, ambient context, and propagation across a
  simulated RPC hop (client and server spans share one trace id);
* export — JSONL round-trip through :meth:`TelemetryHub.export_jsonl`,
  schema validation of good and bad documents;
* the coordinator integration — a full MS-PSDS run whose per-step spans
  decompose into integrate/propose/execute/commit phases that sum to the
  step's wall time, rendered by :mod:`repro.telemetry.report`.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.control import SimulationPlugin, make_displacement_actions
from repro.coordinator import SimulationCoordinator, SiteBinding
from repro.core import NTCPClient, NTCPServer
from repro.net import Network, RpcClient
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
from repro.telemetry.report import (
    CORE_PHASES,
    report_from_jsonl,
    report_from_spans,
    step_rows,
)
from repro.testing import make_site


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
        """Client verb → RPC hop → server handler is one trace."""
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
        tid = root.trace_id
        by_name = {name: hub.spans(name, trace_id=tid)
                   for name in ("core.client.propose", "net.rpc.call",
                                "net.rpc.server", "core.server.propose",
                                "core.server.execute")}
        for name, found in by_name.items():
            assert found, f"no {name} span joined trace {tid}"
        # the chain parents correctly: client verb -> rpc call -> rpc
        # server dispatch -> server op
        call = by_name["net.rpc.call"][0]
        assert call.parent_id == by_name["core.client.propose"][0].span_id
        server = by_name["net.rpc.server"][0]
        assert server.parent_id == call.span_id
        assert by_name["core.server.propose"][0].parent_id == server.span_id

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
                   .with_pipeline(1).run())
        assert not outcome.result.completed
        spans = outcome.deployment.kernel.telemetry.spans()
        finished = {span.span_id for span in spans}
        assert {span.name for span in spans
                if span.parent_id is not None
                and span.parent_id not in finished} == set()


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
