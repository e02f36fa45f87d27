"""A terminal NTCP transaction is kept as a row, and no answer changes.

Once a transaction is executed, cancelled, rejected or failed, its
server packs it into a row and rebuilds it on read
(:class:`repro.core.transaction.TransactionTable`).  These tests hold
every answer a server gives about such a transaction to what the live
object gave at its terminal move, and drive the at-most-once dedupe
that reads the row: a duplicate execute that lands after the original's
reply.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import SimulationPlugin, make_displacement_actions
from repro.coordinator.state import step_marker
from repro.core import Action, ControlPlugin, ProposalVerdict, TransactionState
from repro.core.transaction import TransactionTable
from repro.most import MOSTConfig
from repro.most.assembly import build_most
from repro.net import RemoteException
from repro.net.rpc import RpcRequest, RpcResponse
from repro.structural import LinearSubstructure
from repro.util.errors import PolicyViolation
from repro.verify.explorer import mutated

from conftest import make_site

#: how long after the original execute request its clone is delivered:
#: past the reply on a simulation site (0.05 s of compute) and on MOST's
#: Shore-Western site (about 10 s of actuator settling)
LATE = 20.0


def _late_duplicate(grid, site, marker=""):
    """On ``grid`` (anything with a kernel, a network and its faults),
    deliver a clone of the first execute request to ``site`` whose
    params carry ``marker`` :data:`LATE` s after the original; returns
    the list that collects ``(time, response)`` for every reply to it."""
    replies, request = [], []

    def is_execute(msg):
        payload = msg.payload
        return (msg.dst == site and isinstance(payload, RpcRequest)
                and payload.params.get("operation") == "execute"
                and marker in str(payload.params))

    def watch(msg):  # never drops
        if not request and is_execute(msg):
            request.append(msg.payload.request_id)
        elif (request and isinstance(msg.payload, RpcResponse)
                and msg.payload.request_id == request[0]):
            replies.append((grid.kernel.now, msg.payload))
        return False

    grid.faults.duplicate_matching(is_execute, count=1, delay=LATE)
    grid.network.add_drop_filter(watch)
    return replies


def _check_late_duplicate(server, replies, name):
    """The clone landed after the original's reply and was answered from
    the row: one plugin run per executed transaction, one duplicate
    counted, the stored outcome returned twice."""
    (first_at, first), (late_at, late) = replies
    assert late_at > first_at  # an in-flight wait is answered with it
    stored = server.transactions[name]
    assert stored.state is TransactionState.EXECUTED
    assert first.ok and late.ok
    assert late.value == first.value == stored.result
    metrics = server.metrics()
    assert metrics["duplicate_executes"] == 1
    executed = [txn for txn in server.transactions.values()
                if txn.state is TransactionState.EXECUTED]
    assert metrics["executed"] == len(executed)


def _simulation_site():
    sub = LinearSubstructure("sub", [[100.0]], dof_indices=[0])
    env = make_site(SimulationPlugin(sub, compute_time=0.05))
    replies = _late_duplicate(env, "site")

    def go():
        yield from env.client.propose(
            env.handle, "t", make_displacement_actions({0: 0.01}))
        yield from env.client.execute(env.handle, "t")
        yield env.kernel.timeout(2 * LATE)

    env.run(go())
    assert env.server.plugin.steps_executed == 1
    return env.server, replies, "t"


def _most_physical_site():
    """An 8-step MOST run; step 3's execute at UIUC (Shore-Western) is
    delivered again after its reply."""
    dep = build_most(MOSTConfig().scaled(8))
    replies = _late_duplicate(dep, "uiuc", step_marker(3))
    dep.start_backends()
    coordinator = dep.make_coordinator(run_id="late")
    assert dep.run(coordinator.run()).completed
    name = next(name for name in dep.sites["uiuc"].server.transactions
                if step_marker(3) in name)
    return dep.sites["uiuc"].server, replies, name


SITES = {"simulation": _simulation_site, "most_uiuc": _most_physical_site}


@pytest.mark.parametrize("site", SITES)
def test_a_late_duplicate_execute_is_answered_from_the_row(site):
    _check_late_duplicate(*SITES[site]())


@pytest.mark.parametrize("site", SITES)
def test_the_late_duplicate_check_catches_a_rerun(site):
    """Under the ``dedupe_execute`` mutant (a duplicate re-runs the
    plugin) the same scenario fails its checks."""
    with mutated("dedupe_execute"), pytest.raises(AssertionError):
        _check_late_duplicate(*SITES[site]())


# -- packing is invisible ------------------------------------------------------

def _most_readings(run):
    return {"displacements": {0: 0.01 * run}, "forces": {0: 1.5 * run},
            "settle_time": 0.05}


def _ensemble_readings(run):
    return {"displacements": {0: [0.01, 0.02 * run]},
            "forces": {0: [1.0, 2.0 * run]}, "settle_time": 0.05}


def _other_readings(run):
    return {"status": "ok", "count": run, "flag": True, "value": 1.5,
            "wide": np.float64(2.5), "empty": {},
            "nested": {"a": 1, "b": {"c": "x", "d": -0.0}}}


READINGS = {"most": _most_readings, "ensemble": _ensemble_readings,
            "other": _other_readings}


class ShapedPlugin(ControlPlugin):
    """Reads each proposal's ``mode``: ``reject`` fails review, ``fail``
    raises in execute, ``slow`` outlasts the execution timeout, anything
    else returns readings of the given shape."""

    plugin_type = "shaped"

    def __init__(self, readings):
        super().__init__()
        self.readings = readings
        self.runs = 0

    def review(self, proposal):
        if proposal.actions[0].params["mode"] == "reject":
            raise PolicyViolation("mode reject")

    def execute(self, proposal):
        mode = proposal.actions[0].params["mode"]
        yield self.kernel.timeout(10.0 if mode == "slow" else 0.01)
        if mode == "fail":
            raise RuntimeError("actuator fault")
        self.runs += 1
        return self.readings(self.runs)


NAMES = ("t0", "t1", "t2")
OPS = st.lists(st.one_of(
    st.tuples(st.just("propose"), st.sampled_from(NAMES),
              st.sampled_from(["ok", "ok", "fail", "slow", "reject"]),
              st.sampled_from([2.0, 100.0])),
    st.tuples(st.sampled_from(["execute", "cancel", "getResults"]),
              st.sampled_from(NAMES)),
    st.tuples(st.just("tick"), st.sampled_from([0.5, 5.0]))),
    max_size=14)


def _expected(txn, op):
    """What ``txn``, the live transaction at its terminal move, answered
    ``op`` with: a value, or the state its refusal names."""
    if op == "propose" or (op == "cancel" and txn.state.value == "cancelled"):
        return ProposalVerdict(txn.name, txn.state.value, txn.error or None)
    if op in ("execute", "getResults") and txn.result is not None:
        return txn.result
    return ("refused", txn.state.value)


@pytest.mark.parametrize("shape", READINGS)
@given(program=OPS)
@settings(max_examples=40, deadline=None)
def test_packing_a_terminal_transaction_changes_no_answer(shape, program):
    env = make_site(ShapedPlugin(READINGS[shape]), timeout=60.0, retries=0)
    server = env.server
    live = {}  # name -> the live transaction as of its terminal move
    pack = TransactionTable.pack

    def snapshotting_pack(self, txn):
        live[txn.name] = (copy.deepcopy(txn), copy.deepcopy((
            txn.to_sde_value(), txn.modified, txn.version)))
        return pack(self, txn)

    def answer(op, name, *args):
        try:
            if op == "propose":
                mode, lifetime = args
                return (yield from env.client.propose(
                    env.handle, name, [Action("set-displacement", {
                        "dof": 0, "value": 0.01, "mode": mode})],
                    execution_timeout=1.0, proposal_lifetime=lifetime))
            if op == "execute":
                return (yield from env.client.execute(env.handle, name))
            if op == "cancel":
                return (yield from env.client.cancel(env.handle, name))
            return (yield from env.client.get_results(env.handle, name))
        except RemoteException as exc:
            return ("refused", exc.remote_message)

    def check(op, name, *args):
        terminal = live.get(name)
        got = yield from answer(op, name, *args)
        if terminal is not None:
            want = _expected(terminal[0], op)
            if isinstance(want, tuple):
                assert got[0] == "refused" and want[1] in got[1]
            else:
                assert got == want

    def go():
        for op, *args in program:
            if op == "tick":
                yield env.kernel.timeout(args[0])
            else:
                yield from check(op, *args)
        for name in list(live):  # every verb once more, on every row
            for op in ("propose", "execute", "getResults", "cancel"):
                yield from check(op, name, "ok", 100.0)
        listed = {}
        for state in TransactionState:
            listed[state] = yield from env.client.list_transactions(
                env.handle, state.value)
        return listed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransactionTable, "pack", snapshotting_pack)
        listed = env.run(go())
    table = server.transactions
    assert list(table) == [name for name in dict.fromkeys(
        args[0] for op, *args in program if op == "propose")
        if name in table]
    for name, (txn, sde) in live.items():
        assert table[name] == txn and table[name] is not table[name]
        element = server.service_data.get("transaction:" + name)
        assert (element.value, element.last_modified, element.version) == sde
    for state, names in listed.items():
        assert names == sorted(name for name in table if (
            live[name][0] if name in live else table[name]).state is state)
