"""The Matlab-style NTCP toolbox (paper §3.1, Figure 9).

"The simulation coordinator, on the left, was written by an earthquake
engineer using a Matlab toolbox that we developed to provide a convenient
interface to NTCP; this toolbox in turn called the NTCP Java API to send
requests to the remote NTCP servers."

This module is that convenience layer: a procedural, engineer-facing API
where sites are plain names, displacements are plain floats, and the
propose/execute/retry machinery is hidden.  An engineer writes::

    tb = NTCPToolbox(rpc_client)
    tb.add_site("uiuc", "gsh://uiuc/ogsi/ntcp-uiuc")
    tb.add_site("cu",   "gsh://cu/ogsi/ntcp-cu")

    def coordinator_script(tb):
        forces = yield from tb.step(1, {"uiuc": 0.004, "cu": 0.004})
        # forces == {"uiuc": ..., "cu": ...}

exactly the call shape the MOST Matlab script had.  The toolbox underlies
:class:`~repro.coordinator.mspsds.SimulationCoordinator`-free experiments
(custom stepping rules, exploratory lab scripts) and is what Mini-MOST's
"small changes to the MATLAB code" modify.
"""

from __future__ import annotations

from typing import Generator

from repro.control.actions import make_displacement_actions
from repro.coordinator.state import transaction_name
from repro.core.client import NTCPClient
from repro.ogsi.handle import GridServiceHandle
from repro.util.errors import ConfigurationError, ProtocolError


class NTCPToolbox:
    """Engineer-facing convenience wrapper over :class:`NTCPClient`."""

    def __init__(self, client: NTCPClient, *, run_id: str = "toolbox",
                 execution_timeout: float = 120.0):
        self.client = client
        self.run_id = run_id
        self.execution_timeout = execution_timeout
        self.sites: dict[str, GridServiceHandle] = {}
        self.steps_run = 0

    # -- setup ------------------------------------------------------------
    def add_site(self, name: str, handle: str | GridServiceHandle) -> None:
        """Register a site by grid service handle (string form accepted)."""
        if isinstance(handle, str):
            handle = GridServiceHandle.parse(handle)
        if name in self.sites:
            raise ConfigurationError(f"site {name!r} already registered")
        self.sites[name] = handle

    # -- the verbs engineers actually use ------------------------------------
    def check(self, targets: dict[str, float]
              ) -> Generator[object, object, dict[str, str]]:
        """Dry negotiation: would each site accept this displacement?

        Returns ``{site: "accepted"|"rejected: <why>"}`` without executing
        anything (the proposals are cancelled afterwards).
        """
        verdicts: dict[str, str] = {}
        for name, value in targets.items():
            handle = self._handle(name)
            txn = f"{self.run_id}-check-{self.steps_run}-{name}"
            verdict = yield from self.client.propose(
                handle, txn, make_displacement_actions({0: value}),
                execution_timeout=self.execution_timeout)
            if verdict.accepted:
                verdicts[name] = "accepted"
                yield from self.client.cancel(handle, txn)
            else:
                verdicts[name] = f"rejected: {verdict.error or ''}"
        self.steps_run += 1
        return verdicts

    def step(self, step_number: int, targets: dict[str, float]
             ) -> Generator[object, object, dict[str, float]]:
        """One coupled test step: displacements out, forces back.

        Proposes at every named site, executes everywhere once all accept,
        and returns ``{site: measured_force}``.  Raises
        :class:`ProtocolError` if any site rejects (after cancelling the
        accepted siblings).
        """
        names = list(targets)
        verdicts = {}
        for name in names:
            handle = self._handle(name)
            verdict = yield from self.client.propose(
                handle, self._txn(step_number, name),
                make_displacement_actions({0: float(targets[name])}),
                execution_timeout=self.execution_timeout)
            verdicts[name] = verdict
        rejected = [n for n in names
                    if verdicts[n].state not in ("accepted", "executed",
                                                 "executing")]
        if rejected:
            for name in names:
                if verdicts[name].state == "accepted":
                    yield from self.client.cancel(
                        self._handle(name), self._txn(step_number, name))
            raise ProtocolError(
                f"step {step_number}: site {rejected[0]} rejected "
                f"({verdicts[rejected[0]].error or ''})")
        forces: dict[str, float] = {}
        for name in names:
            result = yield from self.client.execute(
                self._handle(name), self._txn(step_number, name),
                timeout=self.execution_timeout + 10.0)
            forces[name] = float(result.readings["forces"][0])
        self.steps_run += 1
        return forces

    def status(self, site: str, step_number: int
               ) -> Generator[object, object, dict]:
        """Inspect one step's transaction at one site."""
        value = yield from self.client.get_transaction(
            self._handle(site), self._txn(step_number, site))
        return value

    # -- internals ----------------------------------------------------------
    def _handle(self, name: str) -> GridServiceHandle:
        handle = self.sites.get(name)
        if handle is None:
            raise ConfigurationError(
                f"unknown site {name!r} (registered: {sorted(self.sites)})")
        return handle

    def _txn(self, step_number: int, site: str) -> str:
        return transaction_name(self.run_id, step_number, site)
