"""The protocol's invariants, each stated once.

A predicate takes one run's :class:`Evidence` — what the live stack left
behind: the result, the NTCP servers' transaction tables and counters,
the coordinator's final names, the failover manager's events and the
servers' propose spans — and returns one line per violation it finds
(none when the invariant holds).  Nothing here predicts what a run
*should* have done; every predicate reads what it did.

``repro.verify`` judges every bounded replay by all of them, and
``repro.chaos`` every chaos and fleet run: a chaos run's evidence and a
bounded replay's come from one function (``repro.chaos.evidence_of``),
while a fleet run's carries no names, DOFs or propose spans, so
name-reuse, orphaned-names and command-freshness hold vacuously there.
PROTOCOL.md §10 lists them, in :data:`PREDICATES` order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.control.actions import displacement_targets
from repro.coordinator.state import transaction_name

__all__ = ["PREDICATES", "Evidence", "Violation", "judge"]

#: states a transaction may still leave: work the run left in flight
_LIVE = ("proposed", "accepted", "executing")
#: propose verdicts of a burned name
_BURNED = ("cancelled", "failed", "rejected")


@dataclass(frozen=True)
class Evidence:
    """What one run left behind; the only thing a predicate reads."""

    #: the run's :class:`~repro.coordinator.records.ExperimentResult`
    result: Any
    #: site -> its real NTCP server
    servers: Mapping[str, Any]
    #: the run's :class:`~repro.coordinator.failover.FailoverManager`
    failover: Any = None
    #: step -> site -> the coordinator's final transaction name
    names: Mapping[int, Mapping[str, str]] = field(default_factory=dict)
    #: site -> the global DOFs it serves
    dofs: Mapping[str, Sequence[int]] = field(default_factory=dict)
    #: the servers' finished ``core.server.propose`` spans
    proposals: Sequence[Any] = ()

    @property
    def surrogates(self) -> dict[str, Any]:
        """Site -> the surrogate server serving it as the run ended."""
        active = self.failover.active if self.failover is not None else {}
        return {site: surrogate.server for site, surrogate in active.items()}


class Violation(NamedTuple):
    """One invariant a run broke, and how."""

    invariant: str
    detail: str


def completion(ev: Evidence) -> list[str]:
    """The run committed every step."""
    return [] if ev.result.completed else [
        f"aborted at step {ev.result.aborted_at_step} "
        f"({ev.result.aborted_reason})"]


def monotone_commits(ev: Evidence) -> list[str]:
    """The committed steps are ``1..n``, each once, in order."""
    sequence = [record.step for record in ev.result.steps]
    return [] if sequence == list(range(1, len(sequence) + 1)) else [
        f"commit sequence not contiguous: {sequence[:10]}…"]


def at_most_once(ev: Evidence) -> list[str]:
    """Every server ran each executed transaction once, and no reachable
    real site executed two names of one of this run's base names."""
    found = []
    for site, server in [*ev.servers.items(), *ev.surrogates.items()]:
        executed = [txn.name for txn in server.transactions.values()
                    if txn.state.value == "executed"]
        runs = server.metrics()["executed"]
        if runs != len(executed):
            found.append(f"site {site} ran {runs} executions for "
                         f"{len(executed)} executed transactions")
        if site not in ev.surrogates:  # a real site, still reachable
            bases = {transaction_name(ev.result.run_id, step, site)
                     for step in range(ev.result.target_steps + 1)}
            found += [f"site {site} executed {count} transactions named "
                      f"{base}" for base, count in Counter(
                          _base(name, bases) for name in executed).items()
                      if base and count > 1]
    return found


def _base(name: str, bases: set[str]) -> str | None:
    """The base name in ``bases`` that ``name`` is (or renames), if any."""
    while name not in bases and "-" in name:
        name = name.rsplit("-", 1)[0]
    return name if name in bases else None


def name_reuse(ev: Evidence) -> list[str]:
    """No proposal re-used a burned (cancelled, failed, rejected) name."""
    return [f"{span.attrs['transaction']} re-proposed at "
            f"{span.attrs['site']}: {span.attrs['state']}"
            for span in ev.proposals if span.attrs.get("duplicate")
            and span.attrs.get("state") in _BURNED]


def orphaned_names(ev: Evidence) -> list[str]:
    """No reachable real site holds an unfinished transaction under the
    coordinator's final name for its step."""
    return [f"{name} left {txn.state.value} at {site}"
            for names in ev.names.values() for site, name in names.items()
            if site not in ev.surrogates
            and (txn := ev.servers[site].transactions.get(name)) is not None
            and txn.state.value in _LIVE]


def command_freshness(ev: Evidence) -> list[str]:
    """Each committed step's transaction executed the displacement the
    step committed, at each site's DOFs."""
    found = []
    for record, (site, dofs) in product(ev.result.steps, ev.dofs.items()):
        name = ev.names[record.step][site]
        txn = next((server.transactions[name] for server in (
            ev.servers[site], ev.surrogates.get(site))
            if server is not None and name in server.transactions), None)
        want = {local: float(record.displacement[dof])
                for local, dof in enumerate(dofs)}
        if txn is None or txn.state.value != "executed" or \
                displacement_targets(txn.proposal.actions) != want:
            found.append(f"step {record.step} at {site}: {name} did not "
                         f"execute the committed command")
    return found


def degraded_labeling(ev: Evidence) -> list[str]:
    """Each committed step is labelled degraded for exactly the sites a
    surrogate served, per the failover manager's events."""
    events = sorted(ev.failover.events if ev.failover else (),
                    key=lambda e: (e.step, e.kind))

    def served(step: int) -> set[str]:
        """The sites whose last event up to ``step`` is a failover."""
        last = {e.site: e.kind for e in events if e.step <= step}
        return {site for site, kind in last.items() if kind == "failover"}

    wrong = [record.step for record in ev.result.steps
             if set(record.degraded) != served(record.step)]
    return [f"degraded labels disagree with failover events at steps "
            f"{wrong[:10]}"] if wrong else []


#: every invariant, by the name PROTOCOL.md §10 gives it
PREDICATES: dict[str, Callable[[Evidence], list[str]]] = {
    "completion": completion,
    "monotone-commits": monotone_commits,
    "at-most-once": at_most_once,
    "name-reuse": name_reuse,
    "orphaned-names": orphaned_names,
    "command-freshness": command_freshness,
    "degraded-labeling": degraded_labeling,
}


def judge(evidence: Evidence,
          invariants: Sequence[str] = tuple(PREDICATES)) -> list[Violation]:
    """Every violation of ``invariants`` (default: all) in ``evidence``."""
    return [Violation(name, detail) for name in invariants
            for detail in PREDICATES[name](evidence)]
