"""Seeded chaos engineering over the MOST assembly.

The paper's robustness story is a single anecdote — transient outages
absorbed during the day, one long outage fatal at step 1493.  This
package generalises it: :func:`make_plan` draws a deterministic schedule
of faults (drops, duplication, reordering, corruption, jitter bursts,
site crashes, link outages) from a seed, and :class:`ChaosCampaign`
:func:`replay`-s it on a fresh MOST deployment.  :func:`replay` is the
one fault driver: the protocol verifier (:mod:`repro.verify`) replays
its bounded schedules through it on a two-site rig, and
:func:`evidence_of` builds every such run's
:class:`~repro.invariants.Evidence`.  :func:`check_invariants` judges a
chaos run by all seven predicates of :mod:`repro.invariants` — the
verifier's own — plus bit-exactness against the clean baseline (the
empty schedule's replay) when no surrogate served.

The multi-tenant extension applies the same discipline to fleet runs:
:func:`make_fleet_outage_plan` draws seeded outages on *shared* pool
sites, :func:`arm_fleet_outages` installs them on a fleet grid, and
:func:`check_fleet_invariants` re-judges every invariant per tenant —
including bit-exactness against each tenant's solo run.  Both sweeps
judge a run by one rule body (``campaign._check_run``); a fleet run's
evidence carries no transaction names or propose spans, so name-reuse,
orphaned-names and command-freshness hold vacuously there, and the
fleet sweep adds only what its layer alone can see — fencing epochs.

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
    check_fleet_invariants,
    check_invariants,
    evidence_of,
    make_fleet_outage_plan,
    make_plan,
    make_repo_outage_plan,
    make_scheduler_crash_plan,
    replay,
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
    "check_fleet_invariants",
    "check_invariants",
    "evidence_of",
    "make_fleet_outage_plan",
    "make_plan",
    "make_repo_outage_plan",
    "make_scheduler_crash_plan",
    "replay",
]
