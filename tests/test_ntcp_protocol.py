"""NTCP protocol tests: Figure 1 state machine, negotiation, at-most-once."""

import inspect
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Action,
    ExecutionOutcome,
    NTCPServer,
    Proposal,
    SitePolicy,
    Transaction,
    TransactionState,
)
from repro.core.plugin import ControlPlugin
from repro.control import SimulationPlugin, make_displacement_actions
from repro.net import Network, RemoteException
from repro.ogsi import NotificationSink, ServiceContainer
from repro.sim import Kernel
from repro.structural import LinearSubstructure
from repro.telemetry import InMemorySink
from repro.util.errors import PolicyViolation, ProtocolError
from repro.verify.explorer import mutated

from conftest import make_site


def linear_plugin(k=100.0, compute_time=0.05, policy=None):
    sub = LinearSubstructure("sub", [[k]], dof_indices=[0])
    return SimulationPlugin(sub, compute_time=compute_time, policy=policy)


class TestMessages:
    def test_proposal_roundtrip(self):
        p = Proposal(transaction="t-1",
                     actions=(Action("set-displacement", {"dof": 0, "value": 0.01}),),
                     execution_timeout=5.0)
        assert Proposal.from_dict(p.to_dict()) == p

    def test_proposal_requires_name(self):
        with pytest.raises(ProtocolError):
            Proposal(transaction="", actions=())

    def test_proposal_rejects_nonpositive_timeouts(self):
        with pytest.raises(ProtocolError):
            Proposal(transaction="t", actions=(), execution_timeout=0)

    def test_action_from_dict_requires_kind(self):
        with pytest.raises(ProtocolError):
            Action.from_dict({"params": {}})


class TestStateMachine:
    def make_txn(self):
        return Transaction(proposal=Proposal(
            transaction="t", actions=(Action("x"),)))

    def test_happy_path_states_and_timestamps(self):
        txn = self.make_txn()
        txn.transition(TransactionState.ACCEPTED, 1.0)
        txn.transition(TransactionState.EXECUTING, 2.0)
        txn.transition(TransactionState.EXECUTED, 3.0)
        ts = txn.timestamps
        assert ts == {"proposed": 0.0, "accepted": 1.0,
                      "executing": 2.0, "executed": 3.0}
        assert txn.state.terminal

    def test_reject_path(self):
        txn = self.make_txn()
        txn.transition(TransactionState.REJECTED, 1.0, error="limit")
        assert txn.error == "limit"
        with pytest.raises(ProtocolError):
            txn.transition(TransactionState.ACCEPTED, 2.0)

    def test_cancel_from_accepted(self):
        txn = self.make_txn()
        txn.transition(TransactionState.ACCEPTED, 1.0)
        txn.transition(TransactionState.CANCELLED, 2.0)
        assert txn.state is TransactionState.CANCELLED

    def test_illegal_transitions_rejected(self):
        illegal = [
            (TransactionState.PROPOSED, TransactionState.EXECUTED),
            (TransactionState.PROPOSED, TransactionState.EXECUTING),
            (TransactionState.ACCEPTED, TransactionState.REJECTED),
            (TransactionState.EXECUTING, TransactionState.CANCELLED),
        ]
        for start, target in illegal:
            txn = self.make_txn()
            txn.state = start
            with pytest.raises(ProtocolError):
                txn.transition(target, 1.0)

    @given(st.lists(st.sampled_from(list(TransactionState)), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_terminal_states_are_sinks(self, path):
        """Whatever transition sequence is attempted, once a transaction
        reaches a terminal state no further transition ever succeeds."""
        txn = self.make_txn()
        reached_terminal = False
        for target in path:
            try:
                txn.transition(target, 1.0)
            except ProtocolError:
                continue
            if reached_terminal:
                pytest.fail("transitioned out of a terminal state")
            if txn.state.terminal:
                reached_terminal = True

    def test_sde_value_shape(self):
        txn = self.make_txn()
        value = txn.to_sde_value()
        assert value["state"] == "proposed"
        assert value["result"] is None
        assert value["actions"][0]["kind"] == "x"


class TestProposeExecute:
    def test_full_cycle(self):
        env = make_site(linear_plugin(k=100.0))
        actions = make_displacement_actions({0: 0.01})

        def go():
            verdict = yield from env.client.propose(env.handle, "step-1", actions)
            assert verdict.state == "accepted"
            result = yield from env.client.execute(env.handle, "step-1")
            return result

        result = env.run(go())
        assert result.readings["forces"][0] == pytest.approx(1.0)
        assert result.readings["displacements"][0] == 0.01
        assert env.server.metrics()["executed"] == 1

    def test_rejection_via_policy(self):
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-0.005, maximum=0.005)
        env = make_site(linear_plugin(policy=policy))

        def go():
            verdict = yield from env.client.propose(
                env.handle, "big-step", make_displacement_actions({0: 0.02}))
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "outside" in verdict.error
        assert env.server.metrics()["rejected"] == 1

    def test_execute_rejected_transaction_fails(self):
        policy = SitePolicy().limit("set-displacement", "value",
                                    minimum=-0.005, maximum=0.005)
        env = make_site(linear_plugin(policy=policy))

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.02}))
            try:
                yield from env.client.execute(env.handle, "t")
            except RemoteException as exc:
                return exc.remote_type

        assert env.run(go()) == "ProtocolError"

    def test_execute_unknown_transaction_fails(self):
        env = make_site(linear_plugin())

        def go():
            try:
                yield from env.client.execute(env.handle, "ghost")
            except RemoteException as exc:
                return exc.remote_message

        assert "unknown transaction" in env.run(go())

    def test_propose_and_execute_helper(self):
        env = make_site(linear_plugin(k=50.0))

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.02}))
            return result

        result = env.run(go())
        assert result.readings["forces"][0] == pytest.approx(1.0)

    def test_propose_and_execute_raises_on_reject(self):
        policy = SitePolicy(allowed_kinds={"nothing"})
        env = make_site(linear_plugin(policy=policy))

        def go():
            try:
                yield from env.client.propose_and_execute(
                    env.handle, "s1", make_displacement_actions({0: 0.01}))
            except ProtocolError as exc:
                return str(exc)

        assert "rejected" in env.run(go())

    def test_cancel_accepted_transaction(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            verdict = yield from env.client.cancel(env.handle, "t")
            return verdict

        verdict = env.run(go())
        assert verdict.state == "cancelled"
        # execute after cancel fails
        def go2():
            try:
                yield from env.client.execute(env.handle, "t")
            except RemoteException as exc:
                return exc.remote_type

        assert env.run(go2()) == "ProtocolError"

    def test_cancel_is_idempotent(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            yield from env.client.cancel(env.handle, "t")
            verdict = yield from env.client.cancel(env.handle, "t")
            return verdict

        assert env.run(go()).state == "cancelled"

    def test_cancel_executed_transaction_fails(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            try:
                yield from env.client.cancel(env.handle, "t")
            except RemoteException as exc:
                return exc.remote_type

        assert env.run(go()) == "ProtocolError"

    def test_get_results_and_transaction(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            results = yield from env.client.get_results(env.handle, "t")
            txn = yield from env.client.get_transaction(env.handle, "t")
            return results, txn

        results, txn = env.run(go())
        assert results.transaction == "t"
        assert txn["state"] == "executed"
        assert set(txn["timestamps"]) == {"proposed", "accepted",
                                          "executing", "executed"}

    def test_get_results_before_execution_fails(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            try:
                yield from env.client.get_results(env.handle, "t")
            except RemoteException as exc:
                return exc.remote_message

        assert "no results" in env.run(go())

    def test_list_transactions_by_state(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "a", make_displacement_actions({0: 0.001}))
            yield from env.client.propose(
                env.handle, "b", make_displacement_actions({0: 0.002}))
            executed = yield from env.client.list_transactions(env.handle,
                                                               "executed")
            accepted = yield from env.client.list_transactions(env.handle,
                                                               "accepted")
            everything = yield from env.client.list_transactions(env.handle)
            return executed, accepted, everything

        executed, accepted, everything = env.run(go())
        assert executed == ["a"]
        assert accepted == ["b"]
        assert everything == ["a", "b"]


class TestAtMostOnce:
    def test_duplicate_propose_is_idempotent(self):
        env = make_site(linear_plugin())
        actions = make_displacement_actions({0: 0.01})

        def go():
            v1 = yield from env.client.propose(env.handle, "t", actions)
            v2 = yield from env.client.propose(env.handle, "t", actions)
            return v1, v2

        v1, v2 = env.run(go())
        assert v1 == v2
        assert env.server.metrics()["proposed"] == 1
        assert env.server.metrics()["duplicate_proposals"] == 1

    def test_duplicate_execute_returns_same_result(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            r1 = yield from env.client.execute(env.handle, "t")
            r2 = yield from env.client.execute(env.handle, "t")
            return r1, r2

        r1, r2 = env.run(go())
        assert r1 == r2
        assert env.server.plugin.steps_executed == 1
        assert env.server.metrics()["duplicate_executes"] == 1

    def test_a_callers_edit_never_reaches_the_stored_record(self):
        """The server keeps the outcome as a row and hands out a fresh
        ``ExecutionOutcome`` (own ``readings`` dict) on duplicate execute
        and ``getResults``: an edit of what execute returned reaches
        neither."""
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            first = yield from env.client.execute(env.handle, "t")
            first.readings["forces"] = "scribbled"
            again = yield from env.client.execute(env.handle, "t")
            again.readings.clear()
            fetched = yield from env.client.get_results(env.handle, "t")
            return fetched

        fetched = env.run(go())
        stored = env.server.transactions["t"].result
        assert type(stored) is type(fetched) is ExecutionOutcome
        assert fetched == stored and fetched.readings is not stored.readings
        assert stored.readings["forces"][0] == pytest.approx(1.0)

    def test_lost_response_retry_does_not_double_execute(self):
        """The paper's at-most-once guarantee: drop the first execute
        *response*; the client retries; the plugin still runs once."""
        env = make_site(linear_plugin(compute_time=0.01), timeout=5.0)
        env.faults.drop_matching(
            lambda m: m.port.startswith("rpc-reply") and m.src == "site",
            count=1)

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            result = yield from env.client.execute(env.handle, "t")
            return result

        result = env.run(go())
        assert result.readings["forces"][0] == pytest.approx(1.0)
        assert env.server.plugin.steps_executed == 1
        assert env.client.rpc.stats.retries >= 1

    def test_concurrent_duplicate_execute_waits_for_inflight(self):
        env = make_site(linear_plugin(compute_time=2.0), timeout=30.0)
        results = []

        def one(tag):
            r = yield from env.client.execute(env.handle, "t")
            results.append((tag, r.readings["forces"][0]))

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            env.kernel.process(one("first"))
            yield env.kernel.timeout(0.5)  # second arrives mid-execution
            env.kernel.process(one("second"))

        env.kernel.process(go())
        env.kernel.run()
        assert len(results) == 2
        assert results[0][1] == results[1][1]
        assert env.server.plugin.steps_executed == 1

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_n_dropped_responses_still_execute_once(self, drops):
        env = make_site(linear_plugin(compute_time=0.01),
                        timeout=2.0, retries=6)
        env.faults.drop_matching(
            lambda m: m.port.startswith("rpc-reply") and m.src == "site",
            count=drops)

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            result = yield from env.client.execute(env.handle, "t")
            return result

        env.run(go())
        assert env.server.plugin.steps_executed == 1


class TestExecutionTimeout:
    class StuckPlugin(ControlPlugin):
        plugin_type = "stuck"

        def __init__(self):
            super().__init__()
            self.cancelled = 0

        def execute(self, proposal):
            yield self.kernel.timeout(1e9)
            return {}

        def cancel(self, proposal):
            self.cancelled += 1

    def test_timeout_fails_transaction_and_cancels_plugin(self):
        plugin = self.StuckPlugin()
        env = make_site(plugin, timeout=100.0)

        def go():
            yield from env.client.propose(
                env.handle, "t", [Action("anything")],
                execution_timeout=5.0)
            try:
                yield from env.client.execute(env.handle, "t", timeout=50.0)
            except RemoteException as exc:
                return exc.remote_message

        message = env.run(go())
        assert "exceeded timeout" in message
        assert plugin.cancelled == 1
        assert env.server.metrics()["failed"] == 1

        def check():
            txn = yield from env.client.get_transaction(env.handle, "t")
            return txn

        txn = env.run(check())
        assert txn["state"] == "failed"

    class CrashingPlugin(ControlPlugin):
        plugin_type = "crashing"

        def execute(self, proposal):
            yield self.kernel.timeout(0.1)
            raise RuntimeError("hydraulic pressure lost")

    def test_plugin_crash_fails_transaction(self):
        env = make_site(self.CrashingPlugin())

        def go():
            yield from env.client.propose(env.handle, "t", [Action("x")])
            try:
                yield from env.client.execute(env.handle, "t")
            except RemoteException as exc:
                return exc.remote_message

        assert "hydraulic pressure lost" in env.run(go())
        assert env.server.metrics()["failed"] == 1

    def test_plugin_crash_reaches_a_racing_duplicate_too(self):
        """The one ``except Exception`` of ``_run_plugin``: a back-end
        error of any type fails the transaction once, chained, and a
        duplicate execute waiting on the run gets the same failure."""
        env = make_site(self.CrashingPlugin())
        sink = env.kernel.telemetry.add_sink(InMemorySink())
        execute = env.server.operation("execute")
        failures = {}

        def one(tag):
            try:
                yield from execute(None, transaction="t")
            except ProtocolError as exc:
                failures[tag] = (exc, env.kernel.now)

        def go():
            yield from env.client.propose(env.handle, "t", [Action("x")])
            started = env.kernel.now
            env.kernel.process(one("first"))
            yield env.kernel.timeout(0.05)  # second arrives mid-execution
            env.kernel.process(one("duplicate"))
            return started

        started = env.run(go())
        env.kernel.run()
        (first, first_at), (duplicate, duplicate_at) = (
            failures["first"], failures["duplicate"])
        assert str(first) == str(duplicate) == (
            "plugin error: RuntimeError: hydraulic pressure lost")
        assert isinstance(first.__cause__, RuntimeError)
        assert first_at == duplicate_at == pytest.approx(started + 0.1)
        assert env.server.transactions["t"].state is TransactionState.FAILED
        metrics = env.server.metrics()
        assert (metrics["failed"], metrics["duplicate_executes"]) == (1, 1)
        assert [r.kind for r in sink.records].count("plugin.error") == 1
        assert env.server._completion_events == {}

    def test_a_racing_duplicate_ends_its_span_when_the_run_fails(self):
        """Two executes racing a run that times out both get the error,
        and both ``core.server.execute`` spans finish: the duplicate's
        with ``ok=False, duplicate=True``."""
        env = make_site(linear_plugin(compute_time=5.0))
        execute = env.server.operation("execute")
        errors = []

        def one():
            try:
                yield from execute(None, transaction="t")
            except ProtocolError as exc:
                errors.append(str(exc))

        def go():
            yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}),
                execution_timeout=1.0)
            env.kernel.process(one())
            yield env.kernel.timeout(0.5)  # the duplicate arrives mid-run
            env.kernel.process(one())

        env.run(go())
        env.kernel.run()
        assert errors == ["execution exceeded timeout of 1 s"] * 2
        spans = env.kernel.telemetry.spans("core.server.execute")
        assert [(span.attrs["ok"], span.attrs.get("duplicate"))
                for span in spans] == [(False, None), (False, True)]


class TestServiceData:
    def test_transaction_sde_published(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.01}))

        env.run(go())
        sde = env.server.service_data.value("transaction:t")
        assert sde["state"] == "executed"
        assert sde["result"]["readings"]["forces"][0] == pytest.approx(1.0)

    def test_last_changed_tracks_most_recent(self):
        env = make_site(linear_plugin())

        def go():
            yield from env.client.propose(
                env.handle, "first", make_displacement_actions({0: 0.001}))
            yield from env.client.propose(
                env.handle, "second", make_displacement_actions({0: 0.002}))

        env.run(go())
        assert env.server.service_data.value("lastChanged") == "second"

    def test_plugin_type_sde(self):
        env = make_site(linear_plugin())
        assert env.server.service_data.value("plugin") == "simulation"

    def test_remote_reader_follows_an_at_least_once_redo(self):
        """The at-least-once redo (the ``dedupe_execute`` mutant) is a
        state change like any other: published, so the SDE a remote
        reader is served says what ``getTransaction`` says — before,
        during and after."""
        env = make_site(linear_plugin(compute_time=2.0))
        rpc = env.client.rpc

        def read():
            sde = yield from rpc.call(
                env.handle.host, env.handle.port, "findServiceData",
                {"service_id": env.handle.service_id,
                 "name": "transaction:t"})
            txn = yield from env.client.get_transaction(env.handle, "t")
            assert sde["value"] == txn
            return sde["version"], sde["value"]["state"]

        def redo():
            yield from env.client.execute(env.handle, "t")

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.01}))
            seen = [(yield from read())]
            env.kernel.process(redo())
            yield env.kernel.timeout(1.0)  # mid-redo
            seen.append((yield from read()))
            yield env.kernel.timeout(2.0)
            seen.append((yield from read()))
            return seen

        with mutated("dedupe_execute"):
            seen = env.run(go())
        assert seen == [(4, "executed"), (5, "executing"), (6, "executed")]
        assert env.server.plugin.steps_executed == 2


class _Scripted(ControlPlugin):
    """Rejects a transaction named ``r…``, fails one named ``f…`` and
    runs any other for one simulated second."""

    plugin_type = "scripted"

    def review(self, proposal):
        if proposal.transaction.startswith("r"):
            raise PolicyViolation("refused")

    def execute(self, proposal):
        yield self.kernel.timeout(1.0)
        if proposal.transaction.startswith("f"):
            raise RuntimeError("jammed")
        return {"value": 1.0}


class _EagerServer(NTCPServer):
    """The oracle: service data as each publication stored it before it
    became a view of the transaction table — a ``transaction:<name>``
    and a ``lastChanged`` element per move."""

    def on_attach(self):
        sds = self.service_data
        sds.provide = lambda *family: None  # both names are stored here
        super().on_attach()
        del sds.provide
        sds.set("lastChanged", None)

    def _publish(self, txn):
        self.service_data.set(f"transaction:{txn.name}", txn.to_sde_value())
        self.service_data.set("lastChanged", txn.name)
        self.emit("transaction." + txn.state.value, transaction=txn.name)


_SDE_NAMES = [None, "lastChanged", "plugin", "transaction:a",
              "transaction:f", "transaction:r", "transaction:zz"]

_SDE_OPS = st.lists(st.one_of(
    st.tuples(st.just("propose"), st.sampled_from("abfr")),
    st.tuples(st.just("execute"), st.sampled_from("abfr"), st.booleans()),
    st.tuples(st.just("cancel"), st.sampled_from("abr")),
    st.tuples(st.just("find"), st.sampled_from(_SDE_NAMES)),
    st.tuples(st.just("subscribe"), st.sampled_from(_SDE_NAMES),
              st.sampled_from([0.7, 100.0])),
    st.tuples(st.just("unsubscribe"), st.integers(0, 3)),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.5, 1.5])),
), max_size=30)


class TestServiceDataView:
    """Transaction SDEs and ``lastChanged`` are provided from the
    transaction table on read; they answer as stored elements did."""

    @staticmethod
    def side(server_class):
        kernel = Kernel()
        network = Network(kernel, seed=0)
        network.add_host("site")
        network.add_host("user")
        network.connect("site", "user", latency=0.5)
        container = ServiceContainer(network, "site")
        server = server_class("ntcp", _Scripted())
        container.deploy(server)
        notes, seen, subs = [], [], []
        sink = NotificationSink(network, "user", callback=notes.append)
        return kernel, container, server, notes, seen, subs, sink.port

    @staticmethod
    def apply(side, op):
        kernel, container, server, _, seen, subs, port = side
        kind, *args = op
        if kind == "wait":
            kernel.run(until=kernel.now + args[0])
            return
        if kind == "unsubscribe":
            seen.append(bool(subs) and container._op_unsubscribe(
                None, subs[args[0] % len(subs)]))
            return
        try:
            if kind == "find":
                seen.append(container._op_findServiceData(
                    None, "ntcp", args[0]))
            elif kind == "subscribe":
                subs.append(container._op_subscribe(
                    None, "ntcp", "user", port, sde_name=args[0],
                    lifetime=args[1]))
            else:
                params = ({"transaction": args[0]} if kind != "propose" else
                          {"proposal": Proposal(args[0], (Action("x"),))
                           .to_dict()})
                # an execute drawn False answers a duplicate at least once
                with (mutated("dedupe_execute")
                      if kind == "execute" and not args[1] else nullcontext()):
                    result = container._op_invoke(None, "ntcp", kind, params)
                if inspect.isgenerator(result):
                    kernel.process(TestServiceDataView.settle(result, seen))
                else:
                    seen.append(result)
        except ProtocolError as exc:
            seen.append(str(exc))

    @staticmethod
    def settle(run, seen):
        try:
            seen.append((yield from run))
        except ProtocolError as exc:
            seen.append(str(exc))

    def test_a_move_frees_a_lapsed_subscription(self):
        """A transaction move offered to nobody still frees the lapsed
        entries, as the publish each move made did."""
        side = self.side(NTCPServer)
        kernel, server = side[0], side[2]
        self.apply(side, ("subscribe", "lastChanged", 0.7))
        kernel.run(until=1.0)
        assert len(server.sde_subscribers) == 1
        self.apply(side, ("propose", "a"))
        assert len(server.sde_subscribers) == 0

    @given(_SDE_OPS)
    @settings(max_examples=150, deadline=None)
    def test_the_view_answers_as_stored_elements_did(self, ops):
        eager, view = self.side(_EagerServer), self.side(NTCPServer)
        for op in ops + [("wait", 3.0), ("find", None)]:
            for side in (eager, view):
                self.apply(side, op)
        for side in (eager, view):
            side[0].run()
        assert view[3] == eager[3]  # notification payloads, in order
        assert view[4] == eager[4]  # every answer, in order
        assert (view[2].service_data.names()
                == eager[2].service_data.names())
