"""NTCP client API.

Wraps the RPC + OGSI plumbing into the protocol verbs.  The client is where
NTCP's fault tolerance becomes usable: every verb retries on timeout, and —
because the server is idempotent per transaction name — a retried
``propose`` or ``execute`` can never double-run an action.  The paper's
Matlab toolbox exposed exactly this API to the MOST coordinator; the Java
API underneath it maps to :meth:`propose`/:meth:`execute`/:meth:`cancel`.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.messages import (
    Action,
    ExecutionOutcome,
    Proposal,
    ProposalVerdict,
)
from repro.net.rpc import RpcClient
from repro.ogsi.handle import GridServiceHandle, invoke
from repro.util.errors import ProtocolError

#: each verb's operation -> its client span's name: one string, shared
#: by every span of the verb and every row the tracer keeps of it
_SPAN_NAMES = {operation: f"core.client.{operation}" for operation in (
    "propose", "execute", "cancel", "getTransaction", "getResults",
    "listTransactions")}


class NTCPClient:
    """Client for one or more NTCP servers, addressed by grid handle.

    ``credential_factory`` (optional) is called with the operation name to
    mint a fresh GSI token per request, e.g.
    ``GsiAuthenticator(...).credential_for``.

    Every protocol verb takes an optional ``ctx`` (a telemetry span or
    trace context): the verb's own client span becomes its child and
    covers the RPC hop (it gets the call's ``attempts``; the server's
    operation span is its child across the wire), so a coordinator step
    decomposes end-to-end.
    """

    def __init__(self, rpc: RpcClient, *, timeout: float = 10.0,
                 retries: int = 3, credential_factory=None):
        self.rpc = rpc
        self.timeout = timeout
        self.retries = retries
        self.credential_factory = credential_factory
        self._tracer = rpc.telemetry.tracer

    def _invoke(self, handle: GridServiceHandle, operation: str,
                params: dict[str, Any], *,
                timeout: float | None = None,
                retries: int | None = None,
                ctx: Any = None) -> Generator[Any, Any, Any]:
        credential = (self.credential_factory("invoke")
                      if self.credential_factory else None)
        parenting = {} if ctx is None else {"parent": ctx}
        span = self._tracer.start_span(
            _SPAN_NAMES[operation], service=handle.service_id, **parenting)
        try:
            result = yield from invoke(
                self.rpc, handle, operation, params, credential=credential,
                timeout=self.timeout if timeout is None else timeout,
                retries=self.retries if retries is None else retries,
                ctx=span)
        except BaseException as exc:
            span.end(ok=False, error=type(exc).__name__)
            raise
        span.end(ok=True)
        return result

    # -- protocol verbs ------------------------------------------------------
    def propose(self, handle: GridServiceHandle, transaction: str,
                actions: list[Action], *, execution_timeout: float = 60.0,
                proposal_lifetime: float = 3600.0,
                timeout: float | None = None,
                retries: int | None = None,
                ctx: Any = None) -> Generator[Any, Any, ProposalVerdict]:
        """Send a proposal; returns the :class:`ProposalVerdict`."""
        proposal = Proposal(transaction=transaction, actions=tuple(actions),
                            execution_timeout=execution_timeout,
                            proposal_lifetime=proposal_lifetime)
        verdict = yield from self._invoke(
            handle, "propose", {"proposal": proposal.to_dict()},
            timeout=timeout, retries=retries, ctx=ctx)
        return verdict

    def execute(self, handle: GridServiceHandle, transaction: str, *,
                timeout: float | None = None,
                retries: int | None = None,
                ctx: Any = None) -> Generator[Any, Any, ExecutionOutcome]:
        """Execute an accepted transaction; returns the :class:`ExecutionOutcome`.

        Safe to retry: at-most-once semantics are enforced server-side.
        """
        result = yield from self._invoke(
            handle, "execute", {"transaction": transaction},
            timeout=timeout, retries=retries, ctx=ctx)
        return result

    def cancel(self, handle: GridServiceHandle, transaction: str,
               ctx: Any = None) -> Generator[Any, Any, ProposalVerdict]:
        """Cancel a proposed/accepted transaction."""
        verdict = yield from self._invoke(handle, "cancel",
                                          {"transaction": transaction},
                                          ctx=ctx)
        return verdict

    def get_transaction(self, handle: GridServiceHandle,
                        transaction: str) -> Generator[Any, Any, dict]:
        """Inspect a transaction's full SDE value."""
        value = yield from self._invoke(handle, "getTransaction",
                                        {"transaction": transaction})
        return value

    def get_results(self, handle: GridServiceHandle, transaction: str,
                    ) -> Generator[Any, Any, ExecutionOutcome]:
        """Fetch the results of an executed transaction."""
        value = yield from self._invoke(handle, "getResults",
                                        {"transaction": transaction})
        return value

    def list_transactions(self, handle: GridServiceHandle,
                          state: str | None = None) -> Generator[Any, Any, list]:
        value = yield from self._invoke(handle, "listTransactions",
                                        {"state": state})
        return value

    # -- composite step helper ------------------------------------------------
    def propose_and_execute(self, handle: GridServiceHandle, transaction: str,
                            actions: list[Action], *,
                            execution_timeout: float = 60.0,
                            timeout: float | None = None,
                            retries: int | None = None,
                            ctx: Any = None,
                            ) -> Generator[Any, Any, ExecutionOutcome]:
        """Propose then execute one transaction on one server.

        Raises :class:`ProtocolError` if the proposal is rejected (after
        cancelling the transaction server-side for hygiene).
        """
        verdict = yield from self.propose(
            handle, transaction, actions,
            execution_timeout=execution_timeout,
            timeout=timeout, retries=retries, ctx=ctx)
        if not verdict.accepted:
            raise ProtocolError(
                f"proposal {transaction!r} rejected by {handle.service_id}: "
                f"{verdict.error or ''}")
        result = yield from self.execute(handle, transaction,
                                         timeout=timeout, retries=retries,
                                         ctx=ctx)
        return result
