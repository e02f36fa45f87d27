"""Seeded chaos engineering over the MOST assembly.

The paper's robustness story is a single anecdote — transient outages
absorbed during the day, one long outage fatal at step 1493.  This
package generalises it: :func:`make_plan` draws a deterministic schedule
of faults (drops, duplication, reordering, corruption, jitter bursts,
site crashes, link outages) from a seed, :class:`ChaosCampaign` runs the
full deployment under each schedule, and :func:`check_invariants` passes
judgement — at-most-once held, the commit sequence stayed monotone,
results match the clean baseline bit-exact unless a surrogate served,
and every degraded step is labelled.

The multi-tenant extension applies the same discipline to fleet runs:
:func:`make_fleet_outage_plan` draws seeded outages on *shared* pool
sites, :func:`arm_fleet_outages` installs them on a fleet grid, and
:func:`check_fleet_invariants` re-judges every invariant per tenant —
including bit-exactness against each tenant's solo run.  Both sweeps
judge a run by one rule body (``campaign._check_run``) over the
predicates of :mod:`repro.invariants` — the same statements the protocol
verifier judges every bounded replay by; each adds only what its layer
alone can see — degraded labels, fencing epochs.

The durable-queue extension targets the scheduler itself:
:func:`make_scheduler_crash_plan` draws deterministic mid-flight kill
times for :func:`~repro.queue.scheduler.run_durable_campaign`,
:func:`make_repo_outage_plan` cuts the coord—repo link under the
journal's claim/terminal appends, and ``check_fleet_invariants``'s
``fencing=`` sweep asserts no post-crash write from a stale epoch was
ever accepted.
"""

from repro.chaos.campaign import (
    CHAOS_KINDS,
    CHAOS_SITES,
    ChaosCampaign,
    ChaosPlan,
    ChaosRunReport,
    FleetOutage,
    arm_fleet_outages,
    arm_plan,
    check_fleet_invariants,
    check_invariants,
    make_fleet_outage_plan,
    make_plan,
    make_repo_outage_plan,
    make_scheduler_crash_plan,
)
from repro.grid import ChaosEvent

__all__ = [
    "ChaosCampaign",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosRunReport",
    "CHAOS_KINDS",
    "CHAOS_SITES",
    "FleetOutage",
    "arm_fleet_outages",
    "arm_plan",
    "check_fleet_invariants",
    "check_invariants",
    "make_fleet_outage_plan",
    "make_plan",
    "make_repo_outage_plan",
    "make_scheduler_crash_plan",
]
