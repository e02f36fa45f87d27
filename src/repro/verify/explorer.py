"""Exhaustive bounded exploration of the protocol on the live stack.

The verifier has no model of the protocol: each schedule runs through a
*real* deployment, the rig (``_Rig``) — a
:class:`~repro.coordinator.mspsds.SimulationCoordinator` driving genuine
NTCP servers over the simulated network, with the schedule's faults
injected at their message points — and the run's own evidence
(:class:`repro.invariants.Evidence`) is what the invariants judge.  The
kernel is deterministic, so the real code is its own model.  The rig is
stated here, once, as module constants: two simulation sites on one
star, run under the chaos campaign's fault-tolerant policy.

The bounded space is every fault schedule within the bounds: at most one
fault event per step, at most ``max_faults`` events per schedule, and at
most one *structural* event (crash / fatal outage / speculation outage)
per schedule — resume, failover and rollback each restructure the rest
of the run, so their pairwise products multiply schedules without adding
protocol paths.

`explore` replays every such schedule on a fresh rig through
:func:`repro.chaos.replay`, the fault driver the chaos campaigns replay
their seeded MOST schedules through: it arms the schedule's
:class:`~repro.grid.ChaosEvent` events up front with
:meth:`repro.grid.Grid.arm`, whose watcher on the wire recognises the
step's marker inside the site's request of the fault's NTCP operation
and installs the fault at that exact message point, so each fault lands
deterministically regardless of pacing.  Each run is judged by every
predicate of :mod:`repro.invariants`.  The coordinator and servers are
deterministic between fault points, so the schedules *are* the state
space.

:data:`MUTANTS` breaks one protocol rule of the real coordinator or
server per entry, as a patch applied for the length of its
:func:`sweep` only: a checker that cannot see a planted break proves
nothing by passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple
from unittest import mock

from repro import chaos
from repro.coordinator import FailoverManager, mspsds
from repro.coordinator.mspsds import SimulationCoordinator
from repro.coordinator.reconcile import Reconciler
from repro.core.client import NTCPClient
from repro.core.policy import SitePolicy
from repro.core.server import NTCPServer
from repro.core.transaction import TransactionState
from repro.grid import ChaosEvent, Grid
from repro.invariants import Evidence, Violation, judge
from repro.structural import StructuralModel, el_centro_like

__all__ = ["FAULT_KINDS", "MUTANTS", "SITES", "ExplorationResult",
           "TraceResult", "VerifyConfig", "enumerate_schedules", "explore",
           "mutated", "sweep"]

SITES = ("uiuc", "cu")
#: every site's (and its surrogate's and predictor's) design stiffness
STIFFNESS = dict.fromkeys(SITES, 30.0)
COMPUTE_TIME = 0.05
DT = 0.02
#: server-side execute budget; the execute RPC timeout is this + 10, so
#: one retransmission straddles the transient outage window.
EXECUTION_TIMEOUT = 120.0
#: RPC ladder for a propose (client timeout x (retries + 1)).
RPC_TIMEOUT = 10.0
RPC_RETRIES = 3
#: transient outage duration the fault-tolerant policy rides out.
OUTAGE_DURATION = 90.0

#: kinds legal in sequential (pipeline_depth == 0) schedules, each keyed
#: to one message point: a site's propose / execute reply lost once (the
#: RPC retransmits), its propose / execute request duplicated on the
#: wire, the coordinator dying mid-propose / mid-execute (checkpoint
#: resume), and the site lost for good at a propose (breaker opens,
#: surrogate swap).
SEQUENTIAL_KINDS = ("drop_propose_reply", "drop_execute_reply",
                    "dup_propose_request", "dup_execute_request",
                    "crash_propose", "crash_execute", "fatal_outage_propose")
#: every fault kind the verifier arms: the sequential ones and an outage
#: landing on a speculative propose (pipelined).
FAULT_KINDS = (*SEQUENTIAL_KINDS, "spec_outage_propose")
#: kinds legal in pipelined (pipeline_depth == 1) schedules.  Crash and
#: failover under a live speculation collapse into the §9 "rollback
#: first" / drain paths pinned by tests/test_pipeline_speculation.py.
PIPELINED_KINDS = (*FAULT_KINDS[:4], "spec_outage_propose")
#: kinds that change the run's *structure* (resume, failover, rollback);
#: at most one per schedule.
STRUCTURAL_KINDS = FAULT_KINDS[4:]


@dataclass(frozen=True)
class VerifyConfig:
    """One bounded verification over the rig's sites; the defaults are
    the shipped bound."""

    n_steps: int = 4
    pipeline_depth: int = 0
    max_faults: int = 2


@dataclass(kw_only=True)
class _Rig(Grid):
    """The verifier's deployment as one live :class:`~repro.grid.Grid`
    (``_Rig.star(config=...)``), with the experiment every replay of
    ``config`` runs on it; one of :func:`repro.chaos.replay`'s two
    deployments (MOST's is the other)."""

    config: VerifyConfig

    def __post_init__(self) -> None:
        self.add_simulation_sites(STIFFNESS, latency=0.01,
                                  compute_time=COMPUTE_TIME)
        self.model = StructuralModel(
            mass=[[2.0]], stiffness=[[100.0]]).with_rayleigh_damping(0.05)
        # n_steps committed steps need n_steps + 1 motion samples (the
        # extra one is the step-0 rest measurement).
        self.motion = el_centro_like(
            duration=(self.config.n_steps + 1) * DT,
            dt=DT).scaled_to_pga(1.0)
        self.ntcp_client = self.client(timeout=RPC_TIMEOUT,
                                       retries=RPC_RETRIES)

    def make_failover(self) -> FailoverManager:
        """Surrogate failover for both sites (a fatal outage's replay)."""
        return self.failover(
            STIFFNESS, port="ogsi-failover", compute_time=COMPUTE_TIME,
            surrogate_name="{}-surrogate".format, site_policy=SitePolicy())

    def make_coordinator(self, *, run_id: str,
                         **options) -> SimulationCoordinator:
        """A coordinator over this rig's sites, per the config's mode
        (pipelined replays get a fresh bit-exact predictor — the same
        linear substructures as the sites); ``options`` go to
        :class:`SimulationCoordinator` untouched."""
        predictor = None
        if self.config.pipeline_depth:
            predictor = self.predictor(STIFFNESS,
                                       name="{}-predictor".format)
        return SimulationCoordinator(
            run_id=run_id, client=self.ntcp_client, model=self.model,
            motion=self.motion, sites=self.bindings(),
            execution_timeout=EXECUTION_TIMEOUT, predictor=predictor,
            **options)


class TraceResult(NamedTuple):
    """One schedule's live replay, judged."""

    schedule: tuple[ChaosEvent, ...]
    violations: list[Violation]


@dataclass
class ExplorationResult:
    """Every judged replay of one bounded exploration."""

    config: VerifyConfig
    traces: list[TraceResult]

    @property
    def violations(self) -> list[tuple[tuple[ChaosEvent, ...], Violation]]:
        """Each violation found, with the schedule that produced it."""
        return [(trace.schedule, violation) for trace in self.traces
                for violation in trace.violations]

    @property
    def ok(self) -> bool:
        """True when no replay violated an invariant."""
        return not self.violations


def enumerate_schedules(config: VerifyConfig,
                        ) -> list[tuple[ChaosEvent, ...]]:
    """Every fault schedule within the configuration's bounds.

    Schedules are tuples of :class:`ChaosEvent` ordered by step; steps
    range over ``1..n_steps`` (step 0 is initialization — there is no
    checkpoint to resume from, so faulting it proves nothing the step-1
    events don't).  ``spec_outage_propose`` additionally requires step
    >= 2 (step 1 is never speculative) and a fault-free predecessor
    step (its outage spans both rounds).
    """
    kinds = PIPELINED_KINDS if config.pipeline_depth else SEQUENTIAL_KINDS
    # only the speculative outage lifts; a fatal outage or a crash downs
    # the link for good
    events_per_step = {step: [
        ChaosEvent(kind, step, site, duration=(
            OUTAGE_DURATION if kind == "spec_outage_propose"
            else float("inf")))
        for kind, site in product(kinds, SITES)
        if kind != "spec_outage_propose" or step >= 2]
        for step in range(1, config.n_steps + 1)}

    schedules: list[tuple[ChaosEvent, ...]] = [()]
    steps = sorted(events_per_step)
    for count in range(1, config.max_faults + 1):
        for step_combo in combinations(steps, count):
            for combo in product(*(events_per_step[s] for s in step_combo)):
                if sum(ev.kind in STRUCTURAL_KINDS for ev in combo) > 1:
                    continue
                if any(ev.kind == "spec_outage_propose"
                       and any(other.step == ev.step - 1 for other in combo)
                       for ev in combo):
                    continue
                schedules.append(tuple(combo))
    return schedules


def replay(config: VerifyConfig, schedule: tuple[ChaosEvent, ...],
           ) -> tuple[Evidence, SimulationCoordinator]:
    """Run ``schedule`` through :func:`repro.chaos.replay` on a fresh
    live rig — with surrogate failover when it holds a fatal outage —
    and return the run's evidence and its last coordinator."""
    return chaos.replay(_Rig.star(config=config), schedule, run_id="verify",
                        failover=any(event.kind == "fatal_outage_propose"
                                     for event in schedule))


def explore(config: VerifyConfig) -> ExplorationResult:
    """Replay and judge every bounded schedule."""
    return ExplorationResult(config, [
        TraceResult(schedule, judge(replay(config, schedule)[0]))
        for schedule in enumerate_schedules(config)])


def _misread_executed(get_transaction):
    def broken(self, handle, name):
        sde = yield from get_transaction(self, handle, name)
        return {**sde, "state": "accepted"} \
            if sde.get("state") == "executed" else sde
    return broken


def _rerun_duplicate(_):
    def broken(self, txn, span):
        txn.state = TransactionState.EXECUTING  # bypass the guard
        self._index[txn.name] = txn  # live again, no longer its row
        self._publish(txn)
        return self._run_plugin(txn, span)
    return broken


def _keep_rolled_back_names(retire):
    def broken(self, step, site, *, rename=None):
        keep = rename is not None and rename.startswith("-s")
        return retire(self, step, site, rename=None if keep else rename)
    return broken


#: name -> (patched object, attribute, original -> broken replacement,
#: the fault kinds whose single-fault schedules reach the break)
MUTANTS = {
    # §3: a duplicate execute re-runs the plugin (at-least-once)
    "dedupe_execute": (
        NTCPServer, "_answer_duplicate", _rerun_duplicate,
        ("drop_execute_reply", "dup_execute_request")),
    # §7: a cancelled name is re-proposed instead of its -r<gen> replacement
    "rename_after_cancel": (
        Reconciler, "_replacement", lambda _: lambda self, name: name,
        ("crash_propose",)),
    # §7: resume cancels an executed transaction instead of harvesting it
    # (the reconciler's probe reads `executed` as `accepted`)
    "harvest_executed": (
        NTCPClient, "get_transaction", _misread_executed,
        ("crash_execute",)),
    # §9: a rolled-back speculation's name is re-proposed, not -s<epoch>
    "rollback_renames": (
        SimulationCoordinator, "retire", _keep_rolled_back_names,
        ("spec_outage_propose",)),
    # §8: steps committed from a surrogate go unlabelled
    "label_degraded": (
        mspsds, "StepRecord",
        lambda record: lambda **fields: record(**{**fields, "degraded": ()}),
        ("fatal_outage_propose",)),
}


def mutated(name: str):
    """The patch (a context manager) that breaks the live stack as
    ``MUTANTS[name]`` says."""
    target, attribute, breaks, _ = MUTANTS[name]
    return mock.patch.object(target, attribute,
                             breaks(getattr(target, attribute)))


def sweep(mutant: str) -> list[tuple[tuple[ChaosEvent, ...], Violation]]:
    """Replay every single-fault schedule of a kind that reaches
    ``mutant`` (a :data:`MUTANTS` key), at each depth where the kind is
    legal, with the mutant's patch applied; returns every violation."""
    kinds = MUTANTS[mutant][3]
    configs = [VerifyConfig(pipeline_depth=depth, max_faults=1)
               for depth in (0, 1)]
    with mutated(mutant):
        return [(schedule, violation) for config in configs
                for schedule in enumerate_schedules(config)
                if schedule and schedule[0].kind in kinds
                for violation in judge(replay(config, schedule)[0])]
