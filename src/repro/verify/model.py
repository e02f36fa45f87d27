"""Abstract small-step model of the coordinator protocol.

The model re-states PROTOCOL.md sections 2, 6, 7, 8 and 9 as executable
transition rules over an *abstract* state — per-site transaction tables,
the coordinator's name ledger, the committed-step ledger, breaker /
failover standing and the speculation epoch — and checks, on every
transition, the invariants those sections only state in prose:

* **at-most-once** — no transaction name ever executes twice, and no
  reachable site ever physically runs the same step under two names;
* **monotone commits** — committed step numbers are contiguous and
  strictly increasing;
* **no orphaned names** — at quiescence every transaction is terminal,
  or burned coordinator-side and inert, or held by an unreachable site;
  and the coordinator never issues `execute` for a burned name;
* **degraded-step labeling soundness** — a committed step is labeled
  degraded for exactly the sites whose force came from a surrogate;
* **command freshness** — every committed execution ran the committed
  integrator command for its step, never a stale or speculative one;
* **completion** — every fault schedule drawn from the rideable
  vocabulary ends in a completed run.

Nondeterminism lives entirely in the *fault schedule*: the coordinator
and servers are deterministic between fault points, exactly like the
real kernel-driven deployment, so exhaustively enumerating bounded
schedules (`repro.verify.explorer`) explores the full bounded state
space.  Each completed run yields the observables the conformance layer
(`repro.verify.conformance`) compares against a live deployment.

:class:`ProtocolRules` exposes the transition rules the checker exists
to guard as explicit flags, so the mutation regression can break each
one — e.g. resume reconciliation re-executing an already-executed
transaction — and prove the checker catches it.

The deployment the model's timing arithmetic mirrors is stated here,
once, as module constants; the conformance rig builds exactly it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.coordinator.state import transaction_name
from repro.grid import ChaosEvent

__all__ = [
    "FAULT_KINDS",
    "PIPELINED_KINDS",
    "SEQUENTIAL_KINDS",
    "SITES",
    "STRUCTURAL_KINDS",
    "ModelMachine",
    "ProtocolRules",
    "TraceResult",
    "VerifyConfig",
    "Violation",
]

# -- the deployment ---------------------------------------------------------
# Two simulation sites on one star under the chaos campaign's
# fault-tolerant policy: `repro.verify.conformance` builds this rig, and
# the model's outage arithmetic predicts retry rounds from the same numbers.
SITES = ("uiuc", "cu")
SITE_STIFFNESS = 30.0
LATENCY = 0.01
COMPUTE_TIME = 0.05
DT = 0.02
#: server-side execute budget; the execute RPC timeout is this + 10, so
#: one retransmission straddles the model's transient outage window.
EXECUTION_TIMEOUT = 120.0
#: RPC ladder for a propose (client timeout x (retries + 1)).
RPC_TIMEOUT = 10.0
RPC_RETRIES = 3
#: transient outage duration the fault-tolerant policy rides out.
OUTAGE_DURATION = 90.0
#: fault-tolerant policy backoff.
BACKOFF = 30.0
BACKOFF_FACTOR = 1.5
MAX_BACKOFF = 600.0
MAX_ATTEMPTS = 12

#: every fault kind the model understands, keyed to one message point.
FAULT_KINDS = (
    "drop_propose_reply",    # site's propose reply lost once; RPC retransmits
    "drop_execute_reply",    # site's execute reply lost once; RPC retransmits
    "dup_propose_request",   # propose request duplicated on the wire
    "dup_execute_request",   # execute request duplicated on the wire
    "crash_propose",         # coordinator dies mid-propose; checkpoint resume
    "crash_execute",         # coordinator dies mid-execute; checkpoint resume
    "fatal_outage_propose",  # site lost for good; breaker opens, surrogate swap
    "spec_outage_propose",   # outage lands on a speculative propose (pipelined)
)

#: kinds legal in sequential (pipeline_depth == 0) schedules.
SEQUENTIAL_KINDS = (
    "drop_propose_reply", "drop_execute_reply",
    "dup_propose_request", "dup_execute_request",
    "crash_propose", "crash_execute", "fatal_outage_propose",
)

#: kinds legal in pipelined (pipeline_depth == 1) schedules.  Crash and
#: failover under a live speculation collapse into the §9 "rollback
#: first" / drain paths pinned by tests/test_pipeline_speculation.py;
#: the model's pipelined subspace covers the wire-fault endings.
PIPELINED_KINDS = (
    "drop_propose_reply", "drop_execute_reply",
    "dup_propose_request", "dup_execute_request",
    "spec_outage_propose",
)

#: kinds that change the run's *structure* (resume, failover, rollback);
#: bounded to at most one per schedule.
STRUCTURAL_KINDS = ("crash_propose", "crash_execute",
                    "fatal_outage_propose", "spec_outage_propose")


@dataclass(frozen=True)
class ProtocolRules:
    """The transition rules the checker guards, as mutation hooks.

    All flags default to the protocol as specified; flipping one
    deliberately breaks that rule so the "seeded mutation" regression
    can prove the checker *catches* the break.  The fields are the list
    of mutations: ``python -m repro.verify`` seeds each in turn.
    """

    #: §3: a duplicate ``execute`` returns the stored outcome instead of
    #: re-running the plugin.
    dedupe_execute: bool = True
    #: §7: a cancelled name is burned; the replacement is renamed
    #: ``-r<generation>`` instead of reusing the burned name.
    rename_after_cancel: bool = True
    #: §7: an already-executed transaction is harvested on resume, never
    #: cancelled and re-run under a fresh name.
    harvest_executed: bool = True
    #: §9: a rolled-back speculation's re-proposal is renamed
    #: ``-s<epoch>`` instead of reusing the burned speculative name.
    rollback_renames: bool = True
    #: §8: every step committed from a surrogate is stamped degraded.
    label_degraded: bool = True

    def mutate(self, rule: str) -> "ProtocolRules":
        """A copy with ``rule`` flipped off (raises on unknown names)."""
        if rule not in self.__dataclass_fields__:
            raise ValueError(f"unknown protocol rule {rule!r}")
        return replace(self, **{rule: False})


@dataclass(frozen=True)
class VerifyConfig:
    """One bounded verification over :data:`SITES`; the defaults are
    the shipped bound."""

    n_steps: int = 4
    pipeline_depth: int = 0
    max_faults: int = 2
    rules: ProtocolRules = field(default_factory=ProtocolRules)

    def fault_kinds(self) -> tuple[str, ...]:
        """The kinds legal under this configuration's stepping mode."""
        return PIPELINED_KINDS if self.pipeline_depth else SEQUENTIAL_KINDS


@dataclass(frozen=True)
class Violation:
    """One invariant violation found along a trace."""

    invariant: str
    step: int
    site: str
    detail: str


@dataclass
class TraceResult:
    """Outcome of running one fault schedule through the model."""

    schedule: tuple[ChaosEvent, ...]
    violations: list[Violation]
    #: canonical machine states visited along this trace.
    states: list[tuple]
    #: observables the model commits to exactly; compared 1:1 against a
    #: live replay by `repro.verify.conformance`.
    expected: dict


_TERMINAL = ("executed", "cancelled", "failed", "rejected")


def _transient_retry_rounds() -> int:
    """How many policy retries a transient outage costs.

    Mirrors ``_attempt_with_policy`` arithmetic: the faulted round
    fails after the propose window; each retry re-proposes after the
    policy backoff and succeeds once an RPC retransmission lands after
    the outage lifts.  Returns the number of *failed* retry rounds
    before the successful one (>= 0).
    """
    window = RPC_TIMEOUT * (RPC_RETRIES + 1)
    t = window  # first failure surfaces after the full RPC ladder
    failed = 0
    for attempt in range(1, MAX_ATTEMPTS):
        t += min(BACKOFF * BACKOFF_FACTOR ** (attempt - 1), MAX_BACKOFF)
        # Retransmissions go out every RPC_TIMEOUT across the window; the
        # round succeeds if any lands once the link is back up.
        last_send = t + RPC_TIMEOUT * RPC_RETRIES
        if last_send >= OUTAGE_DURATION:
            return failed
        failed += 1
        t += window
    return failed


class _Txn:
    """Server-side transaction record: state, run count, command."""

    __slots__ = ("name", "step", "state", "executions", "command")

    def __init__(self, name: str, step: int, command: tuple):
        self.name = name
        self.step = step
        self.state = "accepted"   # review always accepts in the model
        self.executions = 0
        self.command = command


class _Server:
    """One NTCP server's abstract table and metric counters."""

    __slots__ = ("name", "txns", "counters")

    def __init__(self, name: str):
        self.name = name
        self.txns: dict[str, _Txn] = {}
        self.counters = {"proposed": 0, "executed": 0, "cancelled": 0,
                         "duplicate_proposals": 0, "duplicate_executes": 0}

    def propose(self, name: str, step: int, command: tuple) -> str:
        """§3 propose: idempotent by name; returns the verdict state."""
        txn = self.txns.get(name)
        if txn is not None:
            self.counters["duplicate_proposals"] += 1
            return txn.state
        self.txns[name] = _Txn(name, step, command)
        self.counters["proposed"] += 1
        return "accepted"

    def execute(self, name: str, rules: ProtocolRules) -> _Txn:
        """§3 execute: at-most-once per name (unless the rule is broken)."""
        txn = self.txns[name]
        if txn.state == "accepted":
            txn.state = "executed"
            txn.executions += 1
            self.counters["executed"] += 1
        elif txn.state == "executed":
            if rules.dedupe_execute:
                self.counters["duplicate_executes"] += 1
            else:
                # Broken rule: the duplicate re-runs the plugin.
                txn.executions += 1
                self.counters["executed"] += 1
        return txn

    def cancel(self, name: str) -> bool:
        """§3 cancel: legal from proposed/accepted, else absorbed error."""
        txn = self.txns.get(name)
        if txn is None or txn.state in ("executed", "failed", "rejected"):
            return False
        if txn.state != "cancelled":
            txn.state = "cancelled"
            self.counters["cancelled"] += 1
        return True

    def canon(self) -> tuple:
        """Hashable canonical form for state-space dedup."""
        return (self.name, tuple(sorted(
            (t.name, t.state, t.executions) for t in self.txns.values())))


class ModelMachine:
    """Deterministic abstract execution of one fault schedule.

    Mirrors `repro.coordinator.mspsds.SimulationCoordinator`: step 0 is
    the rest measurement, steps ``1..n_steps`` commit through the
    INTEGRATE / PROPOSE / EXECUTE / COMMIT machine, faults branch the
    behaviour exactly where the real fault injector would.
    """

    def __init__(self, config: VerifyConfig,
                 schedule: tuple[ChaosEvent, ...]):
        self.cfg = config
        self.rules = config.rules
        self.schedule = {ev.step: ev for ev in schedule}
        self._schedule_tuple = tuple(schedule)
        self.real = {s: _Server(s) for s in SITES}
        self.surrogates: dict[str, _Server] = {}
        self.failed_over: set[str] = set()
        self.burned: set[str] = set()
        self.overrides: dict[tuple[int, str], str] = {}
        self.committed: list[int] = []
        self.committed_names: dict[tuple[int, str], str] = {}
        self.step_labels: dict[int, tuple[str, ...]] = {}
        self.generation = 0
        self.epoch = 0
        #: parity of the steps that lead a pipelined beat (_spec_doom).
        self.lead_parity = 1
        self.violations: list[Violation] = []
        self.states: list[tuple] = []
        self.reconcile: dict[str, str] = {}
        self.pipeline = {"speculated": 0, "hits": 0, "mispredicts": 0,
                         "drains": 0}
        #: (site, counter) pairs whose exact value the model does not
        #: commit to (timing-dependent retry fans) — excluded from the
        #: conformance comparison.
        self.uncommitted: set[tuple[str, str]] = set()

    # -- bookkeeping ---------------------------------------------------------
    def _violate(self, invariant: str, step: int, site: str,
                 detail: str) -> None:
        self.violations.append(Violation(invariant, step, site, detail))

    def _snap(self, phase: str, step: int) -> None:
        """Record the canonical machine state after one phase."""
        self.states.append((
            step, phase, self.generation, self.epoch,
            tuple(sorted(self.failed_over)),
            tuple(self.committed),
            tuple(srv.canon() for srv in self.real.values()),
            tuple(srv.canon() for srv in
                  sorted(self.surrogates.values(), key=lambda s: s.name)),
        ))

    def _name(self, step: int, site: str) -> str:
        return (self.overrides.get((step, site))
                or transaction_name("model", step, site))

    def _server_for(self, site: str) -> _Server:
        if site in self.failed_over:
            return self.surrogates[site]
        return self.real[site]

    def _command(self, step: int) -> tuple:
        """The committed integrator command token for ``step``."""
        return ("cmd", step)

    def _fires(self, fault: ChaosEvent | None, site: str, *kinds) -> bool:
        """Whether ``fault`` hits ``site``'s message in this round.  A wire
        fault on a failed-over site is inert: the live watcher only sees
        traffic to the dead site's host, never the surrogate's."""
        return (fault is not None and fault.kind in kinds
                and fault.site == site and site not in self.failed_over)

    # -- protocol rounds -----------------------------------------------------
    def _propose_round(self, step: int, names: dict[str, str],
                       command: tuple, fault: ChaosEvent | None = None,
                       ) -> dict[str, str]:
        """One all-sites propose barrier; returns per-site verdicts."""
        verdicts = {}
        for site in SITES:
            name = names[site]
            srv = self._server_for(site)
            txn = srv.txns.get(name)
            if txn is not None and txn.state in ("cancelled", "failed",
                                                 "rejected"):
                # Burned or dead name re-proposed: terminal verdict, the
                # step can never proceed through it.
                self._violate(
                    "name-reuse", step, site,
                    f"proposal re-used terminal name {name!r} "
                    f"(state {txn.state})")
            verdicts[site] = srv.propose(name, step, command)
            if self._fires(fault, site, "drop_propose_reply",
                           "dup_propose_request"):
                # Lost reply => RPC retransmission; duplicated request =>
                # cloned delivery.  Either way the server sees the name
                # again and answers idempotently.
                srv.propose(name, step, command)
        return verdicts

    def _execute_round(self, step: int, names: dict[str, str],
                       fault: ChaosEvent | None = None) -> None:
        """One all-sites execute barrier with at-most-once checks."""
        for site in SITES:
            name = names[site]
            if name in self.burned:
                self._violate("orphaned-names", step, site,
                              f"coordinator executed burned name {name!r}")
            srv = self._server_for(site)
            txn = srv.execute(name, self.rules)
            if self._fires(fault, site, "drop_execute_reply",
                           "dup_execute_request"):
                txn = srv.execute(name, self.rules)
            if txn.executions > 1:
                self._violate(
                    "at-most-once", step, site,
                    f"transaction {name!r} ran {txn.executions} times")
            self._check_step_executions(step, site)

    def _check_step_executions(self, step: int, site: str) -> None:
        """No *reachable* site may physically run one step twice."""
        if site in self.failed_over:
            return
        total = sum(t.executions for t in self.real[site].txns.values()
                    if t.step == step)
        if total > 1:
            self._violate(
                "at-most-once", step, site,
                f"site {site} physically ran step {step} {total} times "
                f"under distinct names")

    def _commit(self, step: int, names: dict[str, str],
                spec_hit: bool = False) -> None:
        """COMMIT: ledger the step, check freshness + labeling + order."""
        for site in SITES:
            name = names[site]
            srv = self._server_for(site)
            txn = srv.txns.get(name)
            if txn is None or txn.state != "executed":
                self._violate("monotone-commits", step, site,
                              f"commit without execution for {name!r}")
                continue
            want = self._command(step)
            # An adopted speculation's command is equal by definition of
            # a hit (bit-exact predictor); anything else must match the
            # committed integrator command.
            if txn.command != want and not (spec_hit
                                            and txn.command[0] == "spec"
                                            and txn.command[1] == step):
                self._violate(
                    "command-freshness", step, site,
                    f"committed stale command {txn.command!r} for "
                    f"step {step} (wanted {want!r})")
            if (step, site) in self.committed_names:
                self._violate("monotone-commits", step, site,
                              f"step {step} committed twice at {site}")
            self.committed_names[(step, site)] = name
        truth = tuple(sorted(self.failed_over))
        self.step_labels[step] = truth if self.rules.label_degraded else ()
        if truth and not self.rules.label_degraded:
            self._violate(
                "degraded-labeling", step, truth[0],
                f"step {step} committed from surrogate(s) {truth} "
                f"without a degraded label")
        if step > 0:
            last = self.committed[-1] if self.committed else 0
            if step != last + 1:
                self._violate("monotone-commits", step, "-",
                              f"commit order {last} -> {step}")
            self.committed.append(step)

    # -- step machines -------------------------------------------------------
    def _plain_step(self, step: int, fault: ChaosEvent | None) -> None:
        """One clean (or wire-faulted) INTEGRATE...COMMIT cycle."""
        names = {s: self._name(step, s) for s in SITES}
        self._snap("propose", step)
        self._propose_round(step, names, self._command(step), fault)
        self._snap("execute", step)
        self._execute_round(step, names, fault)
        self._commit(step, names)
        self._snap("commit", step)

    def _crash_step(self, step: int, site: str, point: str) -> None:
        """Coordinator crash at ``point`` of ``step`` + checkpoint resume.

        The first incarnation runs the abort-on-first-failure policy: a
        transient outage at ``site`` kills it after the RPC ladder, the
        abort checkpoint carries the pending names, and the resumed
        incarnation reconciles per the §7 table before re-entering the
        step loop.
        """
        names = {s: self._name(step, s) for s in SITES}
        self._snap("propose", step)
        # The arming request reaches the site before the outage bites, so
        # every site holds the proposal (accepted); the faulted site's
        # reply is lost and the naive policy aborts.
        self._propose_round(step, names, self._command(step))
        if point == "execute":
            # All executes ran (the faulted site's plugin finished; only
            # its reply died in the outage).
            self._snap("execute", step)
            self._execute_round(step, names)
        self._snap("abort", step)  # incarnation 1 is gone

        # -- resume: §7 reconciliation over the checkpointed pending set.
        self.generation += 1
        for s in SITES:
            srv = self._server_for(s)
            txn = srv.txns.get(names[s])
            state = txn.state if txn is not None else None
            if state in ("proposed", "accepted"):
                srv.cancel(names[s])
                self.burned.add(names[s])
                self.reconcile[s] = "cancel"
                if self.rules.rename_after_cancel:
                    self.overrides[(step, s)] = (
                        f"{names[s]}-r{self.generation}")
                else:
                    self.overrides[(step, s)] = names[s]
            elif state == "executed":
                if self.rules.harvest_executed:
                    self.reconcile[s] = "harvest"
                else:
                    # Broken rule: cancel an executed transaction (the
                    # error is absorbed) and re-run under a fresh name.
                    srv.cancel(names[s])
                    self.burned.add(names[s])
                    self.overrides[(step, s)] = (
                        f"{names[s]}-r{self.generation}")
                    self.reconcile[s] = "cancel"
            else:
                self.reconcile[s] = "repropose"
        self._snap("reconcile", step)

        # -- incarnation 2 re-runs the step through the idempotent paths.
        names2 = {s: self._name(step, s) for s in SITES}
        self._propose_round(step, names2, self._command(step))
        self._snap("execute", step)
        self._execute_round(step, names2)
        self._commit(step, names2)
        self._snap("commit", step)

    def _fatal_outage_step(self, step: int, site: str) -> None:
        """Permanent site loss at ``step``'s propose: §8 surrogate swap.

        The doomed site holds the arming proposal (accepted, orphaned);
        healthy sites absorb a timing-dependent fan of duplicate
        proposals across the retry rounds — their exact count is not
        committed — and the step commits degraded from the surrogate.
        """
        names = {s: self._name(step, s) for s in SITES}
        self._snap("propose", step)
        self._propose_round(step, names, self._command(step))
        for s in SITES:
            if s != site:
                self.uncommitted.add((s, "duplicate_proposals"))
        # Breaker opens, the recovery budget lapses, failover activates:
        # fire-and-forget cancel is lost in the outage, the name burns
        # coordinator-side, the surrogate proposes under -f1.
        self.failed_over.add(site)
        self.burned.add(names[site])
        self.surrogates[site] = _Server(f"{site}-surrogate1")
        self.overrides[(step, site)] = f"{names[site]}-f1"
        self._snap("failover", step)
        names2 = {s: self._name(step, s) for s in SITES}
        self._propose_round(step, names2, self._command(step))
        self._snap("execute", step)
        self._execute_round(step, names2)
        self._commit(step, names2)
        self._snap("commit", step)

    # -- pipelined machine ---------------------------------------------------
    def _spec_doom(self, issue_step: int) -> ChaosEvent | None:
        """The §9 outage (if any) that will kill ``issue_step``'s round.

        Once the pipeline is warm the live machine issues its rounds in
        beats: a *lead* step's round and the next step's speculation go
        on the wire at one instant (the previous beat's two commits
        collapse onto one timestamp).  An outage armed on step ``m``'s
        first propose catches the lead round ``E`` of ``m``'s beat
        (``E = m`` when ``m`` leads, ``m - 1`` when it follows): ``E``
        loses its faulted-site propose reply and never executes, while
        spec ``E + 1`` is stranded and rolled back.  The odd steps lead
        until a reply drop delays a following round: the step after it
        then runs alone and the next beat starts one step later, so the
        leads switch parity (:attr:`lead_parity`).  A doomed round still
        gets *adopted* — adoption happens at commit time, before its
        propose ladder has died.
        """
        for event in (self.schedule.get(issue_step),
                      self.schedule.get(issue_step + 1)):
            if event is None or event.kind != "spec_outage_propose":
                continue
            # issue_step == E: a leading m arms on E's own propose, a
            # following m on spec(E+1)'s, issued at the same instant.
            if event.step - issue_step in (0, 1) and (
                    issue_step % 2 == self.lead_parity):
                return event
        return None

    def _run_pipelined(self) -> None:
        """The depth-1 overlapped machine (§9) over the schedule.

        A wire fault scheduled on step ``m`` hits the round that first
        carries ``m``'s messages — the speculative round for ``m >= 2``,
        the initial pending round for ``m == 1`` — matching how the
        replay arms faults on the first occurrence of the step marker.
        A ``spec_outage_propose`` on step ``m`` disrupts the round of
        the lead step ``E`` of ``m``'s beat (see :meth:`_spec_doom`).
        """
        n = 1
        spec_names: dict[str, str] | None = None
        doomed: ChaosEvent | None = None
        while n <= self.cfg.n_steps:
            fault = self.schedule.get(n)
            if spec_names is None:
                # Clean boundary: issue step n sequentially.
                names = {s: self._name(n, s) for s in SITES}
                self._snap("propose", n)
                self._propose_round(n, names, self._command(n), fault)
                if doomed is None:
                    doomed = self._spec_doom(n)
            else:
                # Step n is the adopted speculation: already proposed
                # (its execute never starts if the round is doomed).
                names = spec_names
                self._snap("propose", n)
            if doomed is not None:
                self._spec_outage(n, names, doomed,
                                  pending_is_hit=spec_names is not None)
                n += 1
                spec_names = None
                doomed = None
                continue
            spec_fault = self.schedule.get(n + 1)
            next_spec: dict[str, str] | None = None
            next_doomed: ChaosEvent | None = None
            if n < self.cfg.n_steps:
                # Issue step n+1 speculatively (propose + execute on the
                # wire under the predicted command; bit-exact predictor
                # means adoption is certain absent faults).  A round the
                # upcoming outage will kill proposes (the requests are
                # on the wire before the link dies) but never executes.
                self.pipeline["speculated"] += 1
                next_spec = {s: self._name(n + 1, s) for s in SITES}
                if (spec_fault is not None and spec_fault.kind.startswith(
                        "drop_") and n % 2 == self.lead_parity):
                    self.lead_parity ^= 1  # a late following round
                next_doomed = self._spec_doom(n + 1)
                self._propose_round(
                    n + 1, next_spec, ("spec", n + 1, self.epoch),
                    None if next_doomed is not None else spec_fault)
            self._snap("execute", n)
            if spec_names is None:
                self._execute_round(n, names, fault)
            # an adopted speculation's execute already ran in its round
            if next_spec is not None and next_doomed is None:
                self._execute_round(n + 1, next_spec, spec_fault)
            self._commit(n, names, spec_hit=names is spec_names)
            self._snap("commit", n)
            if next_spec is not None:
                # Adoption precedes the ladder's death: a doomed round
                # still counts a hit (pinned by the live replay).
                self.pipeline["hits"] += 1
            spec_names = next_spec
            doomed = next_doomed
            n += 1

    def _spec_outage(self, step: int, names: dict[str, str],
                     event: ChaosEvent, *,
                     pending_is_hit: bool = False) -> None:
        """§9 fault-under-speculation: rollback, fallback, rename.

        ``step`` is the lead step ``E`` whose in-flight round the outage
        caught (its proposes arrived everywhere; its faulted-site reply
        died; it never executed).  The disruption plays out as the live
        machine does:

        * spec ``E + 1`` (if within bounds) was issued at the arming
          instant and its proposes beat the link-down event within the
          same batch, so they arrive everywhere — at the faulted site
          the acceptance becomes a burned, inert orphan (its cancel
          dies in the outage).  They are the first to carry ``E + 1``'s
          marker, so a propose fault on ``E + 1`` is spent on them; a
          reply drop at the faulted site costs nothing, as every
          retransmission dies in the outage.
        * rollback (§9): fire-and-forget cancels land at the healthy
          sites only (the faulted link is down), the names are burned,
          and the step is renamed ``-s<epoch>``;
        * the fault policy re-runs step ``E``: each failed retry round
          re-proposes at the healthy sites; the succeeding round's
          faulted-site propose lands via an RPC retransmission after
          the outage lifts (every proposal already exists -> duplicate
          proposals everywhere, never a duplicate execute) and the
          round executes fresh.
        """
        site = event.site
        command = (("spec", step, self.epoch) if pending_is_hit
                   else self._command(step))
        if step < self.cfg.n_steps:
            self.pipeline["speculated"] += 1
            spec_names = {s: self._name(step + 1, s) for s in SITES}
            # The spec round's proposes beat the link-down event within
            # the arming batch, so they arrive everywhere — for a
            # following m the faulted-site propose *is* the arming message.
            fault = self.schedule.get(step + 1)
            if fault is not None and "propose" in fault.kind:
                del self.schedule[step + 1]
                if (fault.kind, fault.site) == ("drop_propose_reply", site):
                    fault = None
            self._propose_round(step + 1, spec_names,
                                ("spec", step + 1, self.epoch), fault)
            self._snap("spec-fault", step)
            self.epoch += 1
            self.pipeline["drains"] += 1
            for s in SITES:
                if s != site:
                    self._server_for(s).cancel(spec_names[s])
                self.burned.add(spec_names[s])
                if self.rules.rollback_renames:
                    self.overrides[(step + 1, s)] = (
                        f"{spec_names[s]}-s{self.epoch}")
                else:
                    self.overrides[(step + 1, s)] = spec_names[s]
            self._snap("rollback", step)

        failed_rounds = _transient_retry_rounds()
        for s in SITES:
            srv = self._server_for(s)
            for _ in range(failed_rounds if s != site else 0):
                srv.propose(names[s], step, command)
        self._propose_round(step, names, command)
        self._snap("execute", step)
        self._execute_round(step, names)
        self._commit(step, names, spec_hit=pending_is_hit)
        self._snap("commit", step)

    # -- final checks + observables ------------------------------------------
    def _final_checks(self) -> None:
        """Quiescence invariants: orphans, completion, ledger totality."""
        if len(self.committed) != self.cfg.n_steps:
            self._violate(
                "completion", len(self.committed) + 1, "-",
                f"run committed {len(self.committed)}/{self.cfg.n_steps} "
                f"steps under a rideable fault schedule")
        for site, srv in self.real.items():
            reachable = site not in self.failed_over
            for txn in srv.txns.values():
                if txn.state in _TERMINAL:
                    continue
                if txn.name in self.burned or not reachable:
                    continue  # burned-and-inert or unreachable: allowed
                if self.committed_names.get((txn.step, site)) == txn.name:
                    continue
                self._violate(
                    "orphaned-names", txn.step, site,
                    f"live non-terminal transaction {txn.name!r} "
                    f"({txn.state}) at reachable site")
        for step in [0, *range(1, self.cfg.n_steps + 1)]:
            if step > len(self.committed):
                break
            for site in SITES:
                if (step, site) not in self.committed_names:
                    self._violate(
                        "monotone-commits", step, site,
                        f"committed step {step} has no ledgered "
                        f"execution at {site}")

    def _expected(self) -> dict:
        """The observables the model commits to for a live replay."""
        per_site = {}
        for site in SITES:
            counters = dict(self.real[site].counters)
            if site in self.surrogates:
                surrogate = dict(self.surrogates[site].counters)
            else:
                surrogate = None
            for key in list(counters):
                if (site, key) in self.uncommitted:
                    counters[key] = None
            per_site[site] = {"real": counters, "surrogate": surrogate}
        return {
            "completed": len(self.committed) == self.cfg.n_steps,
            "committed_steps": list(self.committed),
            "generation": self.generation,
            "degraded": {str(step): list(labels)
                         for step, labels in self.step_labels.items()
                         if labels},
            "sites": per_site,
            "reconcile": dict(self.reconcile),
            "pipeline": dict(self.pipeline) if self.cfg.pipeline_depth
                        else None,
        }

    def run(self) -> TraceResult:
        """Execute the schedule; returns the trace's full outcome."""
        self._snap("init", 0)
        # Step 0: rest measurement through the same machine (no faults
        # scheduled at step 0 — there is no checkpoint to resume from).
        names0 = {s: self._name(0, s) for s in SITES}
        self._propose_round(0, names0, self._command(0))
        self._execute_round(0, names0)
        self._commit(0, names0)
        self._snap("commit", 0)
        if self.cfg.pipeline_depth:
            self._run_pipelined()
        else:
            for step in range(1, self.cfg.n_steps + 1):
                ev = self.schedule.get(step)
                if ev is not None and ev.kind in ("crash_propose",
                                                  "crash_execute"):
                    self._crash_step(step, ev.site,
                                     ev.kind.split("_", 1)[1])
                elif ev is not None and ev.kind == "fatal_outage_propose":
                    self._fatal_outage_step(step, ev.site)
                else:
                    self._plain_step(step, ev)
        self._final_checks()
        return TraceResult(
            schedule=self._schedule_tuple,
            violations=list(self.violations),
            states=list(self.states),
            expected=self._expected(),
        )
