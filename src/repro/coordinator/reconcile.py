"""Resume-time reconciliation of the aborted attempt's transactions.

When a coordinator dies mid-step, each site's NTCP server is left holding
that step's transaction in whatever state it reached: maybe never heard of
it, maybe accepted and waiting, maybe executed with results the dead
coordinator never collected.  Before a resumed coordinator re-enters the
stepping loop it probes every site with ``getTransaction`` /
``getResults`` and classifies (PROTOCOL.md §7):

* ``executed`` / ``executing`` — the specimen already moved (or is
  moving).  **Harvest**: keep the original transaction name; the step
  loop's idempotent propose/execute then returns the stored outcome
  without touching the specimen — at-most-once holds across the restart.
* ``proposed`` / ``accepted`` — in doubt (the proposal may expire before
  the resumed attempt executes).  **Cancel** it and switch to a
  generation-suffixed replacement name: cancelled names are burned
  server-side (re-proposing one reports ``cancelled`` forever).
* ``cancelled`` / ``failed`` / ``rejected`` — the name is burned.
  **Rename** to the generation-suffixed replacement.
* unknown (the server never saw the propose) — **re-propose** under the
  original name.
* site unreachable — **keep** the original name and let the step loop's
  fault policy deal with the site; every outcome above remains reachable
  once it answers.

The pass never mutates specimens: it only reads transaction state, issues
cancels, and picks names.  RNG-free by construction (RPR001).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coordinator.state import transaction_name
from repro.core.client import NTCPClient
from repro.net.rpc import RemoteException, RpcError
from repro.util.errors import ReproError

#: Classification outcomes (the ``action`` field of a ReconcileAction).
ACTION_HARVEST = "harvest"
ACTION_CANCEL = "cancel"
ACTION_RENAME = "rename"
ACTION_REPROPOSE = "repropose"
ACTION_KEEP = "keep"


@dataclass(frozen=True)
class ReconcileAction:
    """One site's classification for the in-flight step."""

    site: str
    transaction: str       #: the transaction name the next attempt will use
    observed: str          #: server-side state seen (or "unknown"/"unreachable")
    action: str
    detail: str = ""


@dataclass
class ReconciliationReport:
    """Everything the reconciliation pass decided."""

    run_id: str
    step: int
    generation: int
    actions: list[ReconcileAction] = field(default_factory=list)
    #: drained speculative (pipelined) transactions — these belong to
    #: step ``step + 1``, issued ahead of the verified step by the dead
    #: incarnation; each is cancelled and renamed, never harvested (a
    #: speculation is only ever adopted by the incarnation that issued it).
    speculative: list[ReconcileAction] = field(default_factory=list)

    def count(self, action: str) -> int:
        return sum(1 for a in self.actions if a.action == action)

    @property
    def harvested(self) -> int:
        return self.count(ACTION_HARVEST)

    @property
    def cancelled(self) -> int:
        return self.count(ACTION_CANCEL)

    @property
    def reproposed(self) -> int:
        return self.count(ACTION_REPROPOSE)

    def rows(self) -> list[str]:
        """Human-readable classification table (CLI / example output)."""
        return [f"{a.site:<8} {a.observed:<12} -> {a.action:<10} "
                f"{a.transaction}" for a in self.actions]


class Reconciler:
    """Probes every site and classifies the aborted step's transactions."""

    def __init__(self, *, client: NTCPClient, sites, state, tracer):
        self.client = client
        self.sites = list(sites)
        self.state = state
        self._tracer = tracer

    def _probe_name(self, site) -> str:
        pending = self.state.pending.get(site.name)
        if pending:
            return pending
        # No abort-time checkpoint captured the in-flight names; fall back
        # to the deterministic base naming scheme.
        return transaction_name(self.state.run_id, self.state.step,
                                site.name)

    def _replacement(self, name: str) -> str:
        return f"{name}-r{self.state.generation}"

    def run(self):
        """Kernel process: classify every site; returns the report."""
        state = self.state
        report = ReconciliationReport(run_id=state.run_id, step=state.step,
                                      generation=state.generation)
        span = self._tracer.start_span("coordinator.resume.reconcile",
                                       run_id=state.run_id, step=state.step,
                                       generation=state.generation)
        for site in self.sites:
            action = yield from self._classify_site(site)
            report.actions.append(action)
        if state.speculative:
            drained = yield from self._drain_speculative()
            report.speculative.extend(drained)
        span.end(harvested=report.harvested, cancelled=report.cancelled,
                 reproposed=report.reproposed,
                 speculative=len(report.speculative))
        return report

    def _drain_speculative(self):
        """Kernel process: retire the dead incarnation's speculative step.

        A speculative transaction may be burned at its site in any state
        (cancelled, executed with never-collected results, or unknown).
        It is never adopted across a restart — the measured forces that
        would verify it died with the old coordinator — so the §7 move is
        uniform: best-effort **cancel**, then **rename** to the
        generation-suffixed replacement the re-speculated (or sequential)
        attempt will use.
        """
        actions = []
        bindings = {site.name: site for site in self.sites}
        for site_name in sorted(self.state.speculative):
            name = self.state.speculative[site_name]
            replacement = self._replacement(name)
            action = ACTION_CANCEL
            detail = ""
            binding = bindings.get(site_name)
            if binding is None:
                action = ACTION_RENAME
                detail = "site no longer bound; renamed only"
            else:
                try:
                    yield from self.client.cancel(binding.handle, name)
                except (RpcError, ReproError) as exc:
                    # Unreachable, already executed, or already cancelled:
                    # the name is in doubt either way — rename regardless.
                    action = ACTION_RENAME
                    detail = f"cancel failed: {exc}"
            actions.append(ReconcileAction(
                site=site_name, transaction=replacement,
                observed="speculative", action=action, detail=detail))
        return actions

    def _classify_site(self, site):
        name = self._probe_name(site)
        try:
            sde = yield from self.client.get_transaction(site.handle, name)
        except RemoteException as exc:
            if exc.remote_type == "ProtocolError":
                # The server never saw the propose: the name is fresh.
                return ReconcileAction(site=site.name, transaction=name,
                                       observed="unknown",
                                       action=ACTION_REPROPOSE)
            return ReconcileAction(site=site.name, transaction=name,
                                   observed="error", action=ACTION_KEEP,
                                   detail=str(exc))
        except (RpcError, ReproError) as exc:
            # Site still down: keep the name; the fault policy owns retry.
            return ReconcileAction(site=site.name, transaction=name,
                                   observed="unreachable",
                                   action=ACTION_KEEP, detail=str(exc))
        observed = str(sde.get("state", "unknown"))
        if observed in ("executed", "executing"):
            detail = ""
            if observed == "executed":
                # Harvest eagerly so the results are known collectable;
                # the step loop will fetch them again idempotently.
                try:
                    outcome = yield from self.client.get_results(site.handle,
                                                                 name)
                    detail = f"results collected ({len(outcome.readings)} " \
                             "reading(s))"
                except (RpcError, ReproError) as exc:
                    detail = f"results pending: {exc}"
            return ReconcileAction(site=site.name, transaction=name,
                                   observed=observed, action=ACTION_HARVEST,
                                   detail=detail)
        if observed in ("proposed", "accepted"):
            replacement = self._replacement(name)
            try:
                yield from self.client.cancel(site.handle, name)
            except (RpcError, ReproError) as exc:
                # Raced with expiry or a state change; the name is in
                # doubt either way — still switch to the replacement.
                return ReconcileAction(site=site.name,
                                       transaction=replacement,
                                       observed=observed,
                                       action=ACTION_CANCEL,
                                       detail=f"cancel failed: {exc}")
            return ReconcileAction(site=site.name, transaction=replacement,
                                   observed=observed, action=ACTION_CANCEL)
        # cancelled / failed / rejected: the name is burned server-side.
        return ReconcileAction(site=site.name,
                               transaction=self._replacement(name),
                               observed=observed, action=ACTION_RENAME)
