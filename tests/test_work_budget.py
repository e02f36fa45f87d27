"""Work budget: per-message work on the hot path, pinned as call counts.

Host time is noisy; how many times the hot path does a piece of work is
not.  Each budget below counts the calls of one costly function over a
small deterministic campaign and pins an upper bound, so a change that
starts doing per message what should be done per conversation fails
here on any machine.  A change that lowers a count lowers its pin.
"""

import collections
import gc
import hashlib
import inspect
import json
import pathlib
import sys

import pytest

import repro

from repro.coordinator.state import transaction_name
from repro.core.transaction import TransactionTable
from repro.fleet import (
    SitePool,
    TenantRegistry,
    build_fleet_grid,
    tenant_sweep,
)
from repro.gsi import Crypto
from repro.gsi import session as gsi_session
from repro.monitor import ExperimentMonitor
from repro.monitor.monitor import STEPS_METRIC
from repro.most import ExperimentSession, MOSTConfig
from repro.nsds import StreamSample
from repro.ogsi import ServiceContainer, ServiceDataElement, SubscriptionTable
from repro.queue import (
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
    run_durable_campaign,
)
from repro.sim import Kernel
from repro.sim.events import PENDING
from repro.telemetry import LogRecord, TraceContext
from repro.util.rows import Rows
from test_monitor import counter_record, monitor_env, stream_sample

#: ``Crypto.sign`` calls for the campaign below: credentials, proxies and
#: CAS assertions at set-up, one chain walk per (checker, chain), then two
#: per authenticated call — the client's token and the checker's check of
#: it.
SIGN_BUDGET = 272

#: calls into ``src/repro`` per committed step of the 40-step
#: simulation-only session below (1,713.8 when every RPC hop built
#: trace contexts and every kernel entry cost a method call; 1,346.4
#: when every transaction move stored two service data elements;
#: 1,137.9 when every hop built a ``Process`` and every timer fired;
#: 1,012.9 when every span's id string was built by an ``IdFactory``
#: call at start; 995.7 when every NTCP hop also opened a ``net.rpc.call``
#: and a ``net.rpc.server`` span; 927.0 measured, the verb's own span
#: covering the hop).
CALLS_PER_STEP_BUDGET = 928

#: kernel entries per committed step of that session, by the callee the
#: loop calls (``_step`` starts and resumes a process or task; ``done``,
#: ``ran`` and ``finish`` hand a join child's, a plugin run's and an RPC
#: handler's end on).  When every same-instant entry was a heap round
#: trip and every hop built a ``Process``: ``_fire`` 31.9, ``_step`` 12.4,
#: ``_arrive`` 12.3 and ``_time_out`` 6.2.
ENTRIES_PER_STEP_BUDGET = {"_fire": 16.6, "_step": 12.5, "_arrive": 12.4,
                           "done": 6.2, "ran": 3.1, "finish": 3.1}

#: deadline-lane entries per committed step of that session (0.26: each
#: lane's earliest deadline at the moment it was pushed, whose wait then
#: ended); 9.2 when every RPC attempt's and every execution's timer was a
#: heap entry of its own and fired after its reply or run had won.
TIMER_ENTRIES_PER_STEP_BUDGET = 0.3

#: ``SubscriptionTable.publish`` calls per committed step of a 40-step
#: monitored simulation-only session: the health and metrics documents
#: (25.1 when each transaction move also offered its SDE and
#: ``lastChanged`` to a table whose one subscriber takes ``health``).
PUBLISH_PER_STEP_BUDGET = 0.95

#: record dicts the streamer builds over the 150-step observed session
#: below: one per changed (instrument, flush) pair (836 = 11 flushes x 76
#: records when every flush rebuilt every record).
RECORDS_BUILT_BUDGET = 286

#: SHA-256 over every finished span's ``to_dict()`` (ids, parents, attrs,
#: times) of that session: the ids and the tree they spell must not move.
#: Re-recorded once, alone, when an NTCP verb's client span came to cover
#: its hop (6ff1d08b...e18eeb59 before): the 480 ``net.rpc.*`` spans went,
#: each ``core.server.*`` span became a child of its ``core.client.*``
#: span, and each client span gained ``attempts``.
SPAN_TREE_SHA = ("dbb30054bea2088542c1e895217225ac"
                 "7a41f6104b56c455c5d4f0dab4ec7b92")

#: finished spans per committed step of the paper-seed 1,500-step
#: simulation-only MOST run below (T-WALL ``most_bare``'s
#: ``telemetry.spans`` over its committed steps): 29.0 when every NTCP hop
#: opened ``net.rpc.call`` and ``net.rpc.server`` under the verb's span;
#: 17.01 measured (25,498 spans), the verb's span covering the hop.
SPANS_PER_STEP_BUDGET = 17.1

#: kernel entries and network messages per committed step of the
#: paper-seed 1,500-step simulation-only MOST run, to two decimals: T-WALL
#: ``most_bare``'s ``sim.events_per_step`` and ``net.messages_per_step``
#: (deterministic counts), which EXPERIMENTS.md's T-WALL row quotes
#: (``test_docs_consistency.py`` holds the row to these).  A change that
#: moves a count re-pins it here and rewrites the row.
MOST_BARE_PER_STEP = {"entries": 52.27, "messages": 12.01}

#: the same two figures for the run with the data plane
#: (``with_observers()``: DAQ, NSDS to the viewers, CHEF, ingest), T-WALL
#: ``most_full``'s, which the T-WALL row quotes too: 107.59 / 48.06 when
#: each NSDS viewer on ``portal`` got a datagram of its own, 80.93 / 21.40
#: measured with one datagram per push to that host.
MOST_FULL_PER_STEP = {"entries": 80.93, "messages": 21.40}

#: bytes a 300-step simulation-only run keeps per finished span, by
#: tracemalloc: 375 when the tracer kept each ``Span`` object with its
#: ``attrs`` dict and its id string; 136.7 measured as a row (Python
#: 3.11.7); 122.6 in chunks of 512 rows, each NTCP verb's client span
#: name one string per operation.
BYTES_PER_SPAN_BUDGET = 180

#: bytes the NTCP servers' transaction tables of a 300-step
#: simulation-only run keep per committed step, by tracemalloc: 4,780
#: when each terminal transaction was kept as a ``Transaction`` with its
#: ``Proposal``, ``Action``s, ``ExecutionOutcome`` and readings dicts
#: (4,860); 793.9 measured as rows by the ``traced_store`` fixture below
#: (the bytes freed when the tables are emptied, over 299 committed steps;
#: 793.6 to 794.1 in a fresh interpreter, Python 3.11.7)
NTCP_BYTES_PER_STEP_BUDGET = 1100

#: glibc's default ``M_MMAP_THRESHOLD``: a block this large or larger is
#: served by ``mmap`` until a free raises the threshold
MMAP_THRESHOLD = 128 * 1024


@pytest.fixture(scope="module")
def gsi_work():
    """Chain walks per (checker, chain) and signatures over a 2-tenant x
    2-run fleet campaign on 4 sites, 2 sites per lease."""
    walks = collections.Counter()
    signs = [0]
    validate_chain, sign = gsi_session.validate_chain, Crypto.sign

    def counting_walk(crypto, chain, anchors, *, now):
        walks[(id(anchors), chain)] += 1
        return validate_chain(crypto, chain, anchors, now=now)

    def counting_sign(self, private, data):
        signs[0] += 1
        return sign(self, private, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsi_session, "validate_chain", counting_walk)
        patch.setattr(Crypto, "sign", counting_sign)
        grid = build_fleet_grid(4)
        pool = SitePool(grid.kernel, grid.sites.values())
        registry = TenantRegistry(grid)
        queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                                FencingAuthority(grid.kernel))
        result = run_durable_campaign(
            grid, pool, registry, queue,
            tenant_sweep(2, 2, n_steps=8, n_sites=2), settle_delay=0.0)
    checkers = [site.container.rpc.checker for site in grid.sites.values()]
    checkers.append(grid.repo_container.rpc.checker)
    return result, checkers, registry, walks, signs[0]


class TestGsiWorkBudget:
    def test_the_campaign_completes(self, gsi_work):
        result, *_ = gsi_work
        assert result.summary()["completed"] == 4

    def test_each_chain_is_walked_once_per_checker(self, gsi_work):
        _, checkers, registry, walks, _ = gsi_work
        anchors = {id(checker.trust_anchors) for checker in checkers}
        assert {key[0] for key in walks} <= anchors
        assert set(walks.values()) == {1}
        assert len(walks) <= len(checkers) * len(registry.tenants)

    def test_signatures_are_two_per_authenticated_call(self, gsi_work):
        *_, signs = gsi_work
        assert signs <= SIGN_BUDGET


def test_a_run_with_no_record_sink_builds_no_record(monkeypatch):
    """``Kernel.emit`` builds a ``LogRecord`` only for a sink that takes
    records: a simulation-only session attaches none, so it builds none
    (an archiving log built about 12 per step)."""
    built = [0]
    init = LogRecord.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(LogRecord, "__init__", counting_init)
    outcome = ExperimentSession(MOSTConfig().scaled(40),
                                simulation_only=True).run()
    assert outcome.completed and outcome.steps_completed == 39
    assert built[0] == 0


@pytest.fixture(scope="module")
def control_plane_work():
    """A 40-step simulation-only session: calls into ``src/repro``
    (``sys.setprofile`` around ``run()``), ``TraceContext``s built, the
    kernel entries run by callee name, and the deadline-lane entries run
    by whether their wait was still pending."""
    src = str(pathlib.Path(repro.__file__).parent)
    calls, contexts = [0], [0]
    entries, timers = collections.Counter(), collections.Counter()
    init, due, run = TraceContext.__init__, Kernel._due, Kernel.run.__code__

    def counting_init(self, *args, **kwargs):
        contexts[0] += 1
        init(self, *args, **kwargs)

    def counting_due(self, lane):
        timers["live" if lane[0][2]._value is PENDING else "dead"] += 1
        due(self, lane)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            calls[0] += 1
            if frame.f_back.f_code is run:
                entries[frame.f_code.co_name] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TraceContext, "__init__", counting_init)
        patch.setattr(Kernel, "_due", counting_due)
        session = ExperimentSession(MOSTConfig().scaled(40),
                                    simulation_only=True)
        sys.setprofile(profile)
        try:
            outcome = session.run()
        finally:
            sys.setprofile(None)
    return outcome, calls[0], contexts[0], entries, timers


class TestControlPlaneWorkBudget:
    def test_calls_per_committed_step(self, control_plane_work):
        outcome, calls, *_ = control_plane_work
        assert outcome.completed and outcome.steps_completed == 39
        assert calls / outcome.steps_completed <= CALLS_PER_STEP_BUDGET

    def test_kernel_entries_per_committed_step(self, control_plane_work):
        """Each callee the kernel's loop calls, per committed step, stays
        at or under its bound: a per-hop ``Process``, ``AnyOf`` or
        ``AllOf`` coming back shows as more ``_fire``."""
        outcome, _, _, entries, timers = control_plane_work
        steps = outcome.steps_completed
        assert set(entries) <= set(ENTRIES_PER_STEP_BUDGET)
        assert {name: count / steps for name, count in entries.items()
                if count / steps > ENTRIES_PER_STEP_BUDGET[name]} == {}
        assert sum(timers.values()) / steps <= TIMER_ENTRIES_PER_STEP_BUDGET

    def test_no_timer_fires_after_its_reply_has_won(self, control_plane_work):
        """No RPC or execution timer of the session runs its wake-up: every
        reply and every plugin run beat its deadline, and a deadline whose
        wait has ended is never called.  The lane entries left are the
        earliest deadline of a lane at the moment it was pushed."""
        outcome, _, _, entries, timers = control_plane_work
        assert timers["live"] == 0 and "_time_out" not in entries
        assert timers["dead"] <= TIMER_ENTRIES_PER_STEP_BUDGET \
            * outcome.steps_completed

    def test_no_hop_builds_a_trace_context(self, control_plane_work):
        """Spans read their parent's ids off the parent span or the wire
        dict (1,358 contexts were built per session, 35 per step)."""
        _, _, contexts, *_ = control_plane_work
        assert contexts == 0

    def test_the_span_tree_is_unchanged(self, control_plane_work):
        outcome, *_ = control_plane_work
        spans = outcome.deployment.kernel.telemetry.spans()
        digest = hashlib.sha256(json.dumps(
            [span.to_dict() for span in spans]).encode()).hexdigest()
        assert digest == SPAN_TREE_SHA


@pytest.fixture(scope="module")
def traced_store():
    """A 300-step simulation-only run under tracemalloc: the outcome,
    its tracer, the finished spans, the sizes of the traced blocks of
    128 KiB or more still held at its end, the bytes freed when the
    tracer's row store is emptied, and then the bytes freed when the
    NTCP servers' transaction tables are."""
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = ExperimentSession(MOSTConfig().scaled(300),
                                    simulation_only=True).run()
        tracer = outcome.deployment.kernel.telemetry.tracer
        spans = len(tracer.spans())
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        large = [trace.size for trace in tracemalloc.take_snapshot().traces
                 if trace.size >= MMAP_THRESHOLD]
        tracer._rows = Rows()
        gc.collect()
        freed = kept - tracemalloc.get_traced_memory()[0]
        kept -= freed
        for site in outcome.deployment.sites.values():
            site.server._index.clear()
            site.server.transactions = TransactionTable(site.server._index)
        gc.collect()
        ntcp = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return outcome, tracer, spans, large, freed, ntcp


def _work_per_step(outcome) -> dict[str, float]:
    """Kernel entries and messages per committed step, to two decimals,
    as the T-WALL runner counts them: metric totals over committed
    steps."""
    snapshot = outcome.deployment.kernel.telemetry.metrics_snapshot()

    def per_step(name):
        return round(sum(record["value"] for record in snapshot
                         if record["name"] == name)
                     / outcome.steps_completed, 2)

    return {"entries": per_step("sim.kernel.events"),
            "messages": per_step("net.network.sent")}


def test_the_full_record_costs_its_pinned_work_per_step():
    """The T-WALL ``most_bare`` run (motion seed 2003, network seed 730)
    counted as the runner counts it, and its finished spans per
    committed step."""
    outcome = ExperimentSession(MOSTConfig(motion_seed=2003,
                                           network_seed=730),
                                simulation_only=True).run()
    assert outcome.steps_completed == 1499
    assert _work_per_step(outcome) == MOST_BARE_PER_STEP
    assert (len(outcome.deployment.kernel.telemetry.spans())
            / outcome.steps_completed <= SPANS_PER_STEP_BUDGET)


def test_the_data_plane_costs_its_pinned_work_per_step():
    """The T-WALL ``most_full`` run, the same inputs with the data plane,
    counted the same way."""
    outcome = ExperimentSession(MOSTConfig(motion_seed=2003,
                                           network_seed=730)
                                ).with_observers().run()
    assert outcome.steps_completed == 1499
    assert _work_per_step(outcome) == MOST_FULL_PER_STEP


def test_a_finished_span_is_kept_in_few_bytes(traced_store):
    """What the tracer's row store holds, per finished span: the bytes
    tracemalloc sees freed when the test empties the store."""
    outcome, tracer, spans, _, freed, _ = traced_store
    assert outcome.completed and len(tracer.spans()) == 0
    assert spans > 17 * outcome.steps_completed
    assert freed / spans <= BYTES_PER_SPAN_BUDGET


def test_a_terminal_transaction_is_kept_in_few_bytes(traced_store):
    """What the servers' transaction tables hold, per committed step:
    the bytes tracemalloc sees freed when the test empties them."""
    outcome, *_, ntcp = traced_store
    assert outcome.completed
    assert 0 < ntcp / outcome.steps_completed <= NTCP_BYTES_PER_STEP_BUDGET


def test_no_block_past_the_mmap_threshold_is_held(traced_store):
    """The run ends holding no block the allocator would serve by
    ``mmap``: the span and transaction row stores grow in fixed-size
    chunks, where one bytearray and one list growing for the whole run
    were the two such blocks (freeing them raised glibc's mmap
    threshold, and the next run's store then ratcheted the process peak
    up).  A transaction table packed with 1,200 of the run's executed
    transactions, over two chunks, holds none either."""
    import tracemalloc

    outcome, _, _, large, _, _ = traced_store
    assert outcome.completed and large == []
    txn = ExperimentSession(MOSTConfig().scaled(3), simulation_only=True
                            ).run().deployment.sites["uiuc"].server \
        .transactions[transaction_name("most-session", 1, "uiuc")]
    tracemalloc.start()
    try:
        table = TransactionTable({})
        rows = [table.pack(txn) for _ in range(1200)]
        large = [trace.size for trace in tracemalloc.take_snapshot().traces
                 if trace.size >= MMAP_THRESHOLD]
    finally:
        tracemalloc.stop()
    assert rows[-1] == 1199 and len(table._rows.chunks) == 3
    assert large == []


@pytest.fixture(scope="module")
def observed_work():
    """A 150-step simulation-only observed session (11 flushes of 76
    records, two receivers: the console and the store): every payload
    the streamer flushed, the calls of the metric-name leaf and of the
    checker's identity function, and the ``dict.items`` calls per
    dict."""
    from repro.monitor import TelemetryStreamer
    from repro.monitor import schema as monitor_schema
    from repro.telemetry.schema import metric_name

    counted = {metric_name.__code__: "metric_name",
               monitor_schema._identity.__code__: "identity"}
    calls = collections.Counter()
    payloads = []
    flush = TelemetryStreamer.flush

    def recording_flush(self):
        payloads.append(flush(self))
        return payloads[-1]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1
        elif event == "c_call" and getattr(arg, "__name__", "") == "items":
            calls[id(getattr(arg, "__self__", None))] += 1

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TelemetryStreamer, "flush", recording_flush)
        session = ExperimentSession(MOSTConfig().scaled(150),
                                    simulation_only=True).with_observatory()
        sys.setprofile(profile)
        try:
            outcome = session.run()
        finally:
            sys.setprofile(None)
    assert outcome.completed
    assert outcome.observatory.store.samples_ingested == len(payloads) > 10
    assert outcome.deployment.extras["monitoring"].monitor.samples_seen == \
        len(payloads)
    return payloads, calls


def test_each_receiver_proves_a_series_identity_once(observed_work):
    """The metric-name leaf runs once per series in the run, however
    many flushes there are: the console's one receiver checks each
    sample, for the console and the observatory alike (1,672 times when
    each of two receivers walked every record of every flush, 152 when
    each proved each series once)."""
    payloads, calls = observed_work
    series = {(r["name"], r["type"], tuple(r["labels"].items()))
              for payload in payloads for r in payload["metrics"]}
    assert calls["metric_name"] == len(series) > 0


def test_each_receiver_resolves_a_record_once(observed_work):
    """The one receiver computes a streamed record's identity once per
    flush, in its checker, and makes no lookup of its own: the records'
    label dicts are walked once per flush plus a few times per series
    at its first sight (990 times; 2,085 when the observatory had a
    receiver of its own, 3,660 when the console and the store also keyed
    each record again in their own maps)."""
    payloads, calls = observed_work
    records = sum(len(payload["metrics"]) for payload in payloads)
    labels = {id(r["labels"]) for payload in payloads
              for r in payload["metrics"]}
    walked = sum(calls[label_id] for label_id in labels)
    assert calls["identity"] == records > 0
    assert records <= walked < records + 6 * len(labels)


def test_a_flush_builds_a_record_only_for_what_changed(observed_work):
    """The streamer builds a record dict for an instrument's first flush
    and for each flush it changed in, and re-sends the last record
    otherwise."""
    payloads, _ = observed_work
    built = {id(r) for payload in payloads for r in payload["metrics"]}
    changed, last = 0, {}
    for payload in payloads:
        for record in payload["metrics"]:
            key = (record["name"], tuple(record["labels"].items()))
            text = json.dumps(record), repr(
                [type(leaf) for leaf in _leaves(record)])
            changed += last.get(key) != text
            last[key] = text
    assert len(built) == changed <= RECORDS_BUILT_BUDGET


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    else:
        yield value


def test_a_datagram_builds_a_sample_only_for_a_consumer(monkeypatch):
    """Over a 40-step session with the public day's NSDS viewers, the
    ``StreamSample``s built are the channel samples the NSDS services
    ingested into their rings (352): a viewer with no callback builds
    none per datagram (1,760 were built when each of the 1,408 delivered
    datagrams built one more)."""
    built = [0]
    new = StreamSample.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(StreamSample, "__new__", counting_new)
    outcome = ExperimentSession(MOSTConfig().scaled(40)).with_observers().run()
    assert outcome.completed
    dep = outcome.deployment
    services = [site.nsds for site in dep.sites.values()
                if site.nsds is not None]
    ingested = sum(buf.appended for nsds in services
                   for buf in nsds.buffers.values())
    delivered = sum(recv.accepted for recv in dep.extras["nsds_receivers"])
    assert delivered > ingested > 0
    assert built[0] == ingested


def test_a_run_keeps_no_service_data_element_per_step():
    """Transaction SDEs are a view built for a reader: a finished
    simulation-only run holds as many ``ServiceDataElement``s at 200
    steps as at 40 (three more per committed step when every transaction
    move stored its SDE and ``lastChanged``)."""
    def alive():
        gc.collect()
        return sum(isinstance(obj, ServiceDataElement)
                   for obj in gc.get_objects())

    def kept(steps):
        outcome = ExperimentSession(MOSTConfig().scaled(steps),
                                    simulation_only=True).run()
        assert outcome.completed
        with_run = alive()
        del outcome
        return with_run - alive()

    assert kept(40) == kept(200) > 0


def test_a_transaction_move_publishes_only_to_a_subscriber_who_wants_it(
        monkeypatch):
    """In a monitored session each site server's one subscription takes
    ``health`` only, so no transaction move reaches
    ``SubscriptionTable.publish`` (8 topics per step per site did), nor
    the container's fan-out (35,982 fan-outs of a paper-seed observed
    run asked for names nobody takes)."""
    topics, fanned = collections.Counter(), collections.Counter()
    publish, fanout = SubscriptionTable.publish, ServiceContainer._fanout

    def counting_publish(self, topic, make_payload):
        topics[topic] += 1
        return publish(self, topic, make_payload)

    def counting_fanout(self, service, name):
        fanned[name] += 1
        return fanout(self, service, name)

    monkeypatch.setattr(SubscriptionTable, "publish", counting_publish)
    monkeypatch.setattr(ServiceContainer, "_fanout", counting_fanout)
    outcome = ExperimentSession(MOSTConfig().scaled(40),
                                simulation_only=True).with_monitoring().run()
    assert outcome.completed and outcome.steps_completed == 39
    assert topics["health"] > 0 and fanned["health"] > 0
    for seen in (topics, fanned):
        assert not [topic for topic in seen if topic is not None and (
            topic == "lastChanged" or topic.startswith("transaction:"))]
    assert sum(topics.values()) / outcome.steps_completed \
        <= PUBLISH_PER_STEP_BUDGET


def test_the_console_reads_the_step_count_in_constant_work():
    """``ExperimentMonitor.counter_total`` reads only the store's series
    of that counter's name (the store keeps its keys sorted), so reading
    the committed-step total costs the same with 1,000 other counter
    series streamed as with 10 (it summed over every streamed total: 558
    samples walked 46,314 entries on a paper-seed observed run)."""
    source = inspect.getsourcefile(ExperimentMonitor)
    landing = ExperimentMonitor.on_stream_sample.__code__

    def lines_for_a_known_sample(other_series):
        """Lines of ``monitor.py`` run, beyond landing each record, to
        absorb a sample of series the console has seen."""
        _, _, _, monitor = monitor_env()
        records = [counter_record(STEPS_METRIC, 1, 7, coordinator="c")] + [
            counter_record("net.rpc.calls", 1, 1, host=f"h{i}")
            for i in range(other_series)]
        monitor.on_stream_sample(stream_sample(1, records))
        lines = [0]

        def count(frame, event, arg):
            lines[0] += event == "line"
            return count

        def trace(frame, event, arg):
            code = frame.f_code
            return (count if code.co_filename == source and code is not landing
                    else None)

        sys.settrace(trace)
        try:
            monitor.on_stream_sample(stream_sample(2, records))
        finally:
            sys.settrace(None)
        assert monitor.counter_total(STEPS_METRIC) == 7
        assert monitor.counter_total("net.rpc.calls") == other_series
        return lines[0]

    assert lines_for_a_known_sample(10) == lines_for_a_known_sample(1000)
