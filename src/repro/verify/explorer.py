"""Exhaustive bounded exploration of the protocol state space.

The model (`repro.verify.model`) is deterministic between fault points,
so the bounded state space is exactly the set of machine states reachable
under every fault schedule within the bounds: at most one fault event per
step, at most ``max_faults`` events per schedule, and at most one
*structural* event (crash / fatal outage / speculation outage) per
schedule — resume, failover and rollback each restructure the rest of
the run, so their pairwise products explode without adding reachable
protocol states.

`explore` enumerates every such schedule, runs each through the
:class:`~repro.verify.model.ModelMachine`, deduplicates the canonical
states encountered, and collects every invariant violation with the
schedule that produced it.  The result carries the full per-trace
outcomes so the conformance layer can replay every one live.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from repro.grid import ChaosEvent
from repro.verify.model import (
    OUTAGE_DURATION,
    SITES,
    STRUCTURAL_KINDS,
    ModelMachine,
    TraceResult,
    VerifyConfig,
    Violation,
)

__all__ = ["ExplorationResult", "enumerate_schedules", "explore"]


@dataclass
class ExplorationResult:
    """Everything one bounded exploration produced."""

    config: VerifyConfig
    traces: list[TraceResult]
    states_explored: int
    violations: list[tuple[tuple[ChaosEvent, ...], Violation]]

    @property
    def ok(self) -> bool:
        """True when no trace violated an invariant."""
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
    # only the speculative outage lifts; a fatal outage or a crash downs
    # the link for good
    events_per_step = {step: [
        ChaosEvent(kind, step, site, duration=(
            OUTAGE_DURATION if kind == "spec_outage_propose"
            else float("inf")))
        for kind, site in product(config.fault_kinds(), SITES)
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


def explore(config: VerifyConfig) -> ExplorationResult:
    """Run every bounded schedule through the model; dedup states."""
    seen: set[tuple] = set()
    traces: list[TraceResult] = []
    violations: list[tuple[tuple[ChaosEvent, ...], Violation]] = []
    for schedule in enumerate_schedules(config):
        trace = ModelMachine(config, schedule).run()
        traces.append(trace)
        seen.update(trace.states)
        for violation in trace.violations:
            violations.append((schedule, violation))
    return ExplorationResult(config=config, traces=traces,
                             states_explored=len(seen),
                             violations=violations)
