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

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.core.messages import ExecutionOutcome, Proposal
from repro.util.errors import ProtocolError


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
    """

    proposal: Proposal
    state: TransactionState = TransactionState.PROPOSED
    timestamps: dict[str, float] = field(
        default_factory=lambda: {"proposed": 0.0})
    result: ExecutionOutcome | None = None
    error: str = ""
    version: int = 0
    modified: float = 0.0

    @property
    def name(self) -> str:
        return self.proposal.transaction

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
