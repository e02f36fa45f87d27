"""The NTCP transaction state machine (paper Figure 1).

A transaction is created by a proposal and walks a fixed state graph::

    PROPOSED ──accept──> ACCEPTED ──begin──> EXECUTING ──finish──> EXECUTED
       │                     │                   │
     reject                cancel              fail / timeout
       ▼                     ▼                   ▼
    REJECTED             CANCELLED             FAILED

Every transition is timestamped, and the time each state was first entered
is exposed through the transaction's OGSI service data element —
"timestamps representing each state change in the lifetime of the
transaction".  The graph has no cycle, so first entries are the whole path.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Any, Iterator

from repro.core.messages import Action, ExecutionOutcome, Proposal
from repro.util.errors import ProtocolError
from repro.util.rows import Rows


class TransactionState(str, Enum):
    """States of Figure 1; str-valued for painless serialization."""

    PROPOSED = "proposed"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    EXECUTING = "executing"
    EXECUTED = "executed"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {TransactionState.REJECTED, TransactionState.EXECUTED,
             TransactionState.CANCELLED, TransactionState.FAILED}

_LEGAL: dict[TransactionState, set[TransactionState]] = {
    TransactionState.PROPOSED: {TransactionState.ACCEPTED,
                                TransactionState.REJECTED,
                                TransactionState.CANCELLED},
    TransactionState.ACCEPTED: {TransactionState.EXECUTING,
                                TransactionState.CANCELLED},
    TransactionState.EXECUTING: {TransactionState.EXECUTED,
                                 TransactionState.FAILED},
    TransactionState.REJECTED: set(),
    TransactionState.EXECUTED: set(),
    TransactionState.CANCELLED: set(),
    TransactionState.FAILED: set(),
}


@dataclass
class Transaction:
    """Server-side record of one transaction.

    Attributes:
        proposal: the proposal that created the transaction.
        state: current :class:`TransactionState`.
        timestamps: state name → time of *first* entry into that state,
            in the order entered (including the initial PROPOSED entry).
        result: populated when the state reaches EXECUTED.
        error: human-readable reason for REJECTED / FAILED / CANCELLED.
        version: publications so far — the version of the transaction's
            service data element, which the server builds only on read.
        modified: the time of the last publication (the element's
            ``last_modified``).
        name: the proposal's transaction name.
    """

    proposal: Proposal
    state: TransactionState = TransactionState.PROPOSED
    timestamps: dict[str, float] = field(
        default_factory=lambda: {"proposed": 0.0})
    result: ExecutionOutcome | None = None
    error: str = ""
    version: int = 0
    modified: float = 0.0
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.name = self.proposal.transaction

    def transition(self, new_state: TransactionState, time: float,
                   *, error: str = "") -> None:
        """Move to ``new_state`` or raise :class:`ProtocolError` if illegal."""
        if new_state not in _LEGAL[self.state]:
            raise ProtocolError(
                f"transaction {self.name!r}: illegal transition "
                f"{self.state.value} -> {new_state.value}")
        self.state = new_state
        self.timestamps.setdefault(new_state.value, time)
        if error:
            self.error = error

    def to_sde_value(self) -> dict[str, Any]:
        """The dict published as this transaction's service data element."""
        return {
            "transaction": self.name,
            "state": self.state.value,
            "actions": [a.to_dict() for a in self.proposal.actions],
            "execution_timeout": self.proposal.execution_timeout,
            "result": None if self.result is None else self.result.to_dict(),
            "error": self.error,
            "timestamps": dict(self.timestamps),
        }


class TransactionTable(Mapping):
    """A server's transactions by name, in proposal order: read-only.

    The server writes ``index``: name → the live :class:`Transaction`,
    replaced on its terminal move by the number of the row :meth:`pack`
    made of it, since a terminal transaction never changes again.  A
    row's numbers are the version and, as C doubles, the server-clock
    times (``modified``, the timestamps, ``started`` / ``finished``) and
    every float leaf of the proposal's timeouts, its actions' params and
    the readings.  Its objects are its shape, the name, the error and
    every other leaf: an int, or an ensemble's list, or any reading that
    is not a float.  The shape, kept once per server, is the state, the
    timestamps' states, the action kinds and the keys of the tree.  A
    read of a terminal transaction rebuilds it: a fresh object equal to
    the one packed, so every reader gets the answer it got before.
    """

    __slots__ = ("index", "_rows", "_shapes")

    def __init__(self, index: dict[str, Transaction | int]):
        self.index = index
        self._rows = Rows()
        self._shapes: dict[tuple, tuple] = {}

    def pack(self, txn: Transaction) -> int:
        """Pack terminal ``txn`` into a row; returns the row's number."""
        proposal, result = txn.proposal, txn.result
        floats = [txn.modified, *txn.timestamps.values()]
        # each action's params under its index, then the timeouts
        tree = dict(enumerate(map(_PARAMS, proposal.actions)))
        tree["execution_timeout"] = proposal.execution_timeout
        tree["proposal_lifetime"] = proposal.proposal_lifetime
        if result is not None:
            floats += result.started, result.finished
            tree["readings"] = result.readings
        # the tree in pre-order: each key, and its value's kind (a dict's
        # length, else its type), floats packed and the rest kept
        keys, kinds, objects = [], [], [txn.name, txn.error]
        stack = [iter(tree.items())]
        while stack:
            for key, value in stack[-1]:
                keys.append(key)
                kind = type(value)
                if kind is dict:
                    kinds.append(len(value))
                    stack.append(iter(value.items()))
                    break
                kinds.append(kind)
                (floats if kind is float else objects).append(value)
            else:
                stack.pop()
        key = (txn.state, tuple(txn.timestamps),
               tuple(map(_KIND, proposal.actions)), result is not None,
               tuple(keys), tuple(kinds))
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = (*key, struct.Struct(
                f"q{len(floats)}d"))
        return self._rows.append(shape[-1].pack(txn.version, *floats),
                                 (shape, *objects))

    def __getitem__(self, name: str) -> Transaction:
        value = self.index[name]
        if type(value) is not int:
            return value
        packed, start, objects, first, last = self._rows[value]
        shape, name, error, *leaves = objects[first:last]
        state, stamps, actions, executed, keys, kinds, layout = shape
        version, modified, *floats = layout.unpack_from(packed, start)
        floats = iter(floats)
        timestamps = dict(zip(stamps, floats))
        times = (next(floats), next(floats)) if executed else ()
        tree = _build(zip(keys, kinds), floats, iter(leaves),
                      len(actions) + 2 + executed)
        return Transaction(
            Proposal(name, tuple(map(Action, actions, tree.values())),
                     tree["execution_timeout"], tree["proposal_lifetime"]),
            state, timestamps,
            ExecutionOutcome(name, tree["readings"], *times) if executed
            else None,
            error, version, modified)

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


_KIND, _PARAMS = attrgetter("kind"), attrgetter("params")


def _build(tokens, floats, objects, count: int) -> dict:
    """The dict of ``count`` entries that ``(key, kind)`` ``tokens``
    spell from here on, in :meth:`TransactionTable.pack`'s pre-order,
    its leaves taken in order from ``floats`` and ``objects``."""
    built = {}
    for _ in range(count):
        key, kind = next(tokens)
        built[key] = (next(floats) if kind is float else
                      _build(tokens, floats, objects, kind)
                      if type(kind) is int else next(objects))
    return built
