"""The generic NTCP server core.

Implements everything site-independent (Figure 2's left box): transaction
state management, at-most-once execution semantics, proposal negotiation
through the installed control plugin, execution timeouts, and OGSI service
data publication (one SDE per transaction plus the "most recently changed"
SDE the paper highlights for whole-server monitoring).  Both are a view of
the transaction table: a publication stamps the transaction's version and
time and the server's last-changed transaction, and an element is built
only for a reader or a subscriber who wants the name.

Operations exposed through the OGSI container:

* ``propose``  — create (or idempotently re-observe) a transaction;
* ``execute``  — run an accepted transaction exactly once;
* ``cancel``   — abandon a transaction before execution;
* ``getTransaction`` / ``getResults`` / ``listTransactions`` — inspection.
"""

from __future__ import annotations

from typing import Any

from repro.core.messages import (
    ExecutionOutcome,
    Proposal,
    ProposalVerdict,
)
from repro.core.plugin import ControlPlugin
from repro.core.transaction import (
    Transaction,
    TransactionState,
    TransactionTable,
)
from repro.ogsi.service import GridService
from repro.sim import Task
from repro.sim.events import PENDING
from repro.util.errors import PolicyViolation, ProtocolError

#: every counter the server maintains, in ``metrics()`` key order
STAT_KEYS = ("proposed", "accepted", "rejected", "executed", "failed",
             "cancelled", "duplicate_proposals", "duplicate_executes")

#: state -> the counter entering it bumps (``executing`` has none)
_COUNTED = {state: state.value for state in TransactionState
            if state.value in STAT_KEYS}

#: the states a transaction never leaves, where the server packs it
_TERMINAL = frozenset(state for state in TransactionState if state.terminal)

#: a transaction's SDE is named this prefix + the transaction's name
_TXN_SDE = "transaction:"
#: what a plugin run's end event holds when its execution deadline won
_TIMED_OUT = object()


class NTCPServer(GridService):
    """One site's NTCP service, parameterized by a control plugin."""

    def __init__(self, service_id: str, plugin: ControlPlugin):
        super().__init__(service_id)
        self.plugin = plugin
        #: name → the live transaction, or its row once it is terminal
        self._index: dict[str, Transaction | int] = {}
        #: every transaction by name, in proposal order, as a read-only
        #: ``Mapping``: the live object while in flight; once terminal,
        #: an object rebuilt from its row on each read, equal to the one
        #: packed (PROTOCOL.md §2)
        self.transactions = TransactionTable(self._index)
        self._completion_events: dict[str, Any] = {}
        self._counters: dict[str, Any] | None = None  # built on attach

    def on_attach(self) -> None:
        self.plugin.attach(self.kernel, site=self.service_id)
        # lastChanged: the last transaction published, its version, its time
        self._last, self._changes, self._changed_at = None, 1, self.kernel.now
        self.service_data.provide(lambda: ["lastChanged", *(
            _TXN_SDE + name for name in self.transactions)], self._sde)
        self.service_data.set("plugin", self.plugin.plugin_type)
        for op in ("propose", "execute", "cancel", "getTransaction",
                   "getResults", "listTransactions"):
            self.expose(op, getattr(self, f"_op_{op}"))
        telemetry = self._telemetry = self.kernel.telemetry
        self._tracer = telemetry.tracer
        self._counters = {key: telemetry.counter(f"core.server.{key}",
                                                 site=self.service_id)
                          for key in STAT_KEYS}
        self._execute_time = telemetry.histogram("core.server.execute_time",
                                                 site=self.service_id)

    # -- metrics ---------------------------------------------------------------
    def _count(self, key: str) -> None:
        assert self._counters is not None, "server not attached"
        self._counters[key].inc()

    def metrics(self) -> dict[str, int]:
        """Transaction counters, backed by the run's telemetry registry.

        Keys follow :data:`STAT_KEYS` (``proposed``, ``accepted``, ...,
        ``duplicate_executes``).
        """
        if self._counters is None:
            return {key: 0 for key in STAT_KEYS}
        return {key: counter.value for key, counter in self._counters.items()}

    # -- state publication -----------------------------------------------------
    def _publish(self, txn: Transaction) -> None:
        """Stamp a change of ``txn``: its SDE's version and time, and the
        lastChanged SDE's.  A name is reported (and a transaction's built)
        only while a live subscription could take it, the record only for
        a sink."""
        txn.version += 1
        txn.modified = self._changed_at = self.kernel.now
        self._last = txn.name
        self._changes += 1
        subscribers = self.sde_subscribers
        if subscribers and subscribers.wants_prefix(_TXN_SDE):
            self.service_data.changed(_TXN_SDE + txn.name)
        if subscribers and subscribers.wants("lastChanged"):
            self.service_data.changed("lastChanged")
        if self._telemetry.takes_records:
            self.emit("transaction." + txn.state.value, transaction=txn.name)

    def _sde(self, name: str) -> tuple | None:
        """``(value, last_modified, version)`` of ``lastChanged`` or of a
        transaction's SDE, as of now; None for any other name."""
        if name == "lastChanged":
            return self._last, self._changed_at, self._changes
        txn = (self.transactions.get(name[len(_TXN_SDE):])
               if name.startswith(_TXN_SDE) else None)
        return txn and (txn.to_sde_value(), txn.modified, txn.version)

    def _move(self, txn: Transaction, state: TransactionState,
              error: str = "") -> None:
        """The one place a transaction changes state: the guarded
        transition, the state's counter (``executing`` has none), the SDE;
        a terminal transaction is packed into a row."""
        txn.transition(state, self.kernel.now, error=error)
        key = _COUNTED.get(state)
        if key is not None:
            self._count(key)
        self._publish(txn)
        if state in _TERMINAL:
            self._index[txn.name] = self.transactions.pack(txn)

    def _get(self, name: str) -> Transaction:
        txn = self._index.get(name)
        if txn is None:
            raise ProtocolError(
                f"unknown transaction {name!r} at {self.service_id}")
        return txn if type(txn) is Transaction else self.transactions[name]

    # -- operations ----------------------------------------------------------
    def _op_propose(self, caller, proposal: dict[str, Any]):
        """Negotiate a proposal; returns a :class:`ProposalVerdict`.

        Idempotent on transaction name: re-proposing returns the recorded
        verdict without consulting the plugin again.
        """
        prop = Proposal.from_dict(proposal)
        span = self._tracer.start_span("core.server.propose",
                                       site=self.service_id,
                                       transaction=prop.transaction)
        if prop.transaction in self._index:
            self._count("duplicate_proposals")
            verdict = self._verdict(self.transactions[prop.transaction])
            span.end(state=verdict.state, duplicate=True)
            return verdict
        txn = Transaction(proposal=prop,
                          timestamps={"proposed": self.kernel.now})
        self._index[prop.transaction] = txn
        self._count("proposed")
        self._publish(txn)
        try:
            review = self.plugin.review(prop)
        except PolicyViolation as exc:
            return self._decide(txn, span, TransactionState.REJECTED, str(exc))
        if hasattr(review, "send") and hasattr(review, "throw"):
            # Timed review (e.g. human approval): finish as a sub-process.
            return self._timed_review(txn, review, span)
        return self._decide(txn, span, TransactionState.ACCEPTED)

    def _timed_review(self, txn: Transaction, review, span):
        try:
            yield from review
        except PolicyViolation as exc:
            return self._decide(txn, span, TransactionState.REJECTED, str(exc))
        return self._decide(txn, span, TransactionState.ACCEPTED)

    def _decide(self, txn: Transaction, span, state: TransactionState,
                error: str = "") -> ProposalVerdict:
        """Propose's tail: record the plugin's decision and answer with it."""
        self._move(txn, state, error)
        verdict = self._verdict(txn)
        span.end(state=verdict.state)
        return verdict

    def _verdict(self, txn: Transaction) -> ProposalVerdict:
        return ProposalVerdict(transaction=txn.name, state=txn.state.value,
                               error=txn.error or None)

    def _answer_duplicate(self, txn: Transaction, span):
        """A duplicate execute of an executed transaction: the stored
        outcome, the plugin untouched — the at-most-once property the
        paper's retry story rests on (``repro.verify``'s
        ``dedupe_execute`` mutant replaces it with a re-run)."""
        assert txn.result is not None
        span.end(state=txn.state.value, duplicate=True)
        return txn.result  # rebuilt from the row: the caller's own

    def _op_execute(self, caller, transaction: str):
        """Execute an accepted transaction with at-most-once semantics.

        Returns an :class:`ExecutionOutcome`.  Duplicate execute requests —
        retries after a lost response, or a second request racing an
        in-flight execution — never re-run the plugin: they return the
        stored result, or wait for the in-flight run to finish and return
        *its* result.
        """
        txn = self._get(transaction)
        span = self._tracer.start_span("core.server.execute",
                                       site=self.service_id,
                                       transaction=transaction)
        if txn.state is TransactionState.EXECUTED:
            self._count("duplicate_executes")
            return self._answer_duplicate(txn, span)
        if txn.state is TransactionState.EXECUTING:
            self._count("duplicate_executes")
            return self._await_completion(txn, span)
        if txn.state is not TransactionState.ACCEPTED:
            span.end(state=txn.state.value, ok=False)
            raise ProtocolError(
                f"transaction {transaction!r} is {txn.state.value}; "
                f"only accepted transactions can execute"
                + (f" ({txn.error})" if txn.error else ""))
        # Proposal lifetime (soft state): an acceptance is not a blank
        # check — it lapses if the client waits too long to execute.
        accepted_at = txn.timestamps.get("accepted", 0.0)
        if self.kernel.now > accepted_at + txn.proposal.proposal_lifetime:
            self._move(txn, TransactionState.CANCELLED,
                       "proposal lifetime expired before execute")
            span.end(state=txn.state.value, ok=False)
            raise ProtocolError(
                f"transaction {transaction!r}: proposal lifetime of "
                f"{txn.proposal.proposal_lifetime:g} s expired")
        self._move(txn, TransactionState.EXECUTING)
        return self._run_plugin(txn, span)

    def _run_plugin(self, txn: Transaction, span):
        """Run the plugin against its execution deadline: the first of the
        run's end and the deadline wakes this generator, in the entries
        and order an ``any_of`` over a process and a timeout would take."""
        started = self.kernel.now
        ended = self.kernel.event()

        def ran(work: Task) -> None:
            if ended._value is PENDING:
                (ended.succeed if work._ok else ended.fail)(work._value)

        work = Task(self.kernel, self.plugin.execute(txn.proposal), ran)
        self.kernel.deadline(txn.proposal.execution_timeout, ended, _TIMED_OUT)
        try:
            readings = yield ended
        except Exception as exc:
            # Not narrowable: the plugin wraps an arbitrary back-end, so
            # any type can surface here; the transaction fails and the
            # original error is chained onto the ProtocolError.
            detail = f"{type(exc).__name__}: {exc}"
            self.emit("plugin.error", transaction=txn.name, error=detail)
            raise self._fail(txn, span, f"plugin error: {detail}") from exc
        if readings is not _TIMED_OUT:
            txn.result = ExecutionOutcome(
                transaction=txn.name,
                readings=readings if isinstance(readings, dict) else
                {"value": readings},
                started=started, finished=self.kernel.now)
            self._execute_time.observe(txn.result.duration)
            self._move(txn, TransactionState.EXECUTED)
            self._settle(txn, txn.result)  # packed: no edit reaches the row
            span.end(state=txn.state.value)
            return txn.result
        # Execution timed out: abandon the plugin run and fail the txn.
        self.plugin.cancel(txn.proposal)
        if work.is_alive:
            work.interrupt("execution timeout")
        raise self._fail(txn, span, f"execution exceeded timeout of "
                         f"{txn.proposal.execution_timeout:g} s")

    def _fail(self, txn: Transaction, span, reason: str) -> ProtocolError:
        """The one failure exit of a run: fail the transaction, settle the
        duplicates waiting on it, end the span; returns the error to raise."""
        self._move(txn, TransactionState.FAILED, reason)
        self._settle(txn, ProtocolError(reason))
        span.end(state=txn.state.value, ok=False)
        return ProtocolError(reason)

    def _settle(self, txn: Transaction,
                outcome: ExecutionOutcome | ProtocolError) -> None:
        """Hand the run's outcome to the duplicate executes waiting on it
        (usually none: the event exists only once one asked)."""
        done = self._completion_events.pop(txn.name, None)
        if done is None:
            return
        if isinstance(outcome, ProtocolError):
            done.fail(outcome).defuse()
        else:
            done.succeed(outcome)

    def _await_completion(self, txn: Transaction, span):
        """A duplicate execute racing the in-flight run waits for it."""
        done = self._completion_events.get(txn.name)
        if done is None:
            done = self._completion_events[txn.name] = self.kernel.event()
        try:
            result = yield done
        except ProtocolError:
            span.end(state=txn.state.value, ok=False, duplicate=True)
            raise
        span.end(state=txn.state.value, duplicate=True)
        return result

    def _op_cancel(self, caller, transaction: str):
        """Cancel a not-yet-executing transaction."""
        txn = self._get(transaction)
        if txn.state in (TransactionState.PROPOSED, TransactionState.ACCEPTED):
            self._move(txn, TransactionState.CANCELLED, "cancelled by client")
            return self._verdict(txn)
        if txn.state is TransactionState.CANCELLED:
            return self._verdict(txn)  # idempotent
        raise ProtocolError(
            f"cannot cancel transaction {transaction!r} in state "
            f"{txn.state.value}")

    def _op_getTransaction(self, caller, transaction: str):
        return self._get(transaction).to_sde_value()

    def _op_getResults(self, caller, transaction: str):
        txn = self._get(transaction)
        if txn.result is None:
            raise ProtocolError(
                f"transaction {transaction!r} has no results "
                f"(state {txn.state.value})")
        return txn.result

    def _op_listTransactions(self, caller, state: str | None = None):
        return sorted(txn.name for txn in self.transactions.values()
                      if state is None or txn.state.value == state)
