"""NTCP wire objects: actions, proposals, verdicts, results.

Everything here is a frozen dataclass of plain values.  What a client
sends (:class:`Action`, :class:`Proposal`) round-trips through
:meth:`to_dict` / :meth:`from_dict`, which validates it on arrival.

:class:`ProposalVerdict` and :class:`ExecutionOutcome` are the *typed*
return values of the protocol verbs (they replaced the raw dicts the
server and client used to trade); attribute access (``verdict.state``)
is the only read API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.errors import ProtocolError


@dataclass(frozen=True)
class Action:
    """One requested action, e.g. drive a control point to a setpoint.

    ``kind`` names the action type understood by the site plugin (the MOST
    plugins understand ``"set-displacement"``); ``params`` carries its
    arguments (``{"dof": 0, "value": 0.0123}``).
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Action":
        if "kind" not in data:
            raise ProtocolError(f"action missing 'kind': {data!r}")
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


@dataclass(frozen=True)
class Proposal:
    """A named set of requested actions plus timeout values.

    The transaction name is chosen by the *client* and doubles as the
    idempotency key for at-most-once semantics: re-proposing an existing
    name returns the original verdict, re-executing returns the original
    results.

    Attributes:
        transaction: client-chosen unique transaction name.
        actions: the requested actions.
        execution_timeout: max seconds the site may spend executing before
            the server declares the transaction failed.
        proposal_lifetime: seconds an accepted-but-unexecuted transaction
            remains valid before the server may discard it.
    """

    transaction: str
    actions: tuple[Action, ...]
    execution_timeout: float = 60.0
    proposal_lifetime: float = 3600.0

    def __post_init__(self):
        if not self.transaction:
            raise ProtocolError("proposal requires a transaction name")
        object.__setattr__(self, "actions", tuple(self.actions))
        if self.execution_timeout <= 0 or self.proposal_lifetime <= 0:
            raise ProtocolError("timeouts must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "transaction": self.transaction,
            "actions": [a.to_dict() for a in self.actions],
            "execution_timeout": self.execution_timeout,
            "proposal_lifetime": self.proposal_lifetime,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Proposal":
        try:
            return cls(
                transaction=data["transaction"],
                actions=tuple(Action.from_dict(a) for a in data["actions"]),
                execution_timeout=data.get("execution_timeout", 60.0),
                proposal_lifetime=data.get("proposal_lifetime", 3600.0),
            )
        except KeyError as exc:
            raise ProtocolError(f"proposal missing field {exc}") from exc


@dataclass(frozen=True)
class ProposalVerdict:
    """The server's answer to ``propose`` (and to ``cancel``).

    ``state`` is the transaction-state string after negotiation —
    ``"accepted"``, ``"rejected"``, ``"cancelled"``, or (for an idempotent
    re-propose of a live transaction) ``"executing"`` / ``"executed"``.
    """

    transaction: str
    state: str
    error: str | None = None

    @property
    def accepted(self) -> bool:
        return self.state == "accepted"


@dataclass(frozen=True)
class ExecutionOutcome:
    """The client-facing outcome of an executed transaction.

    ``readings`` carries whatever the site measured (for MOST: achieved
    displacements and restoring forces per DOF); ``started``/``finished``
    are server-side simulation times bracketing the execution.
    """

    transaction: str
    readings: dict[str, Any]
    started: float
    finished: float

    @property
    def duration(self) -> float:
        return self.finished - self.started

    def to_dict(self) -> dict[str, Any]:
        return {"transaction": self.transaction,
                "readings": dict(self.readings),
                "started": self.started, "finished": self.finished}
