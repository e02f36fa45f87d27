"""NTCP — the NEESgrid Teleoperations Control Protocol.

This package is the paper's primary contribution: a transaction-based Grid
service protocol through which "a physical experiment and a computational
simulation are indistinguishable".  The pieces map directly onto the paper:

* :mod:`~repro.core.messages` — proposals, actions, transaction results;
* :mod:`~repro.core.transaction` — the transaction state machine of
  Figure 1, with a timestamp recorded at every transition;
* :mod:`~repro.core.policy` — site-local limits checked during proposal
  negotiation, *before* anything moves;
* :mod:`~repro.core.plugin` — the control plugin interface of Figure 2
  ("mapping NTCP requests into appropriate actions in the local site's
  control system or simulation engine");
* :mod:`~repro.core.server` — the generic NTCP server core: state
  management, at-most-once execution, transaction SDEs, execution timeouts;
* :mod:`~repro.core.client` — the client API with retry-safe semantics
  ("if a client makes a request and does not receive a reply, the client
  can re-send the request without any danger of the same action being
  executed twice").
"""

from repro.core.messages import (
    Action,
    ExecutionOutcome,
    Proposal,
    ProposalVerdict,
)
from repro.core.transaction import Transaction, TransactionState
from repro.core.policy import ParameterLimit, SitePolicy
from repro.core.plugin import ControlPlugin
from repro.core.server import NTCPServer
from repro.core.client import NTCPClient

__all__ = [
    "Action",
    "Proposal",
    "ProposalVerdict",
    "ExecutionOutcome",
    "Transaction",
    "TransactionState",
    "ParameterLimit",
    "SitePolicy",
    "ControlPlugin",
    "NTCPServer",
    "NTCPClient",
]
