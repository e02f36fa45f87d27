"""MOST scenarios (paper §3.4 "MOST Results").

The §3.4 runs, each a function returning a :class:`ScenarioReport`:

* :func:`run_simulation_only` — the rehearsal with three numerical sites;
* :func:`run_dry_run` — full hybrid configuration, clean network, naive
  coordinator: completes all steps ("the dry run ... ran successfully to
  completion", ~5.5 h);
* :func:`run_with_fault_tolerance` — the counterfactual to the public
  run's step-1493 death: identical faults, a coordinator that uses
  NTCP's fault-tolerance features, completion.

All of them are thin wrappers over
:class:`~repro.most.session.ExperimentSession` — the composable builder
that replaced the per-scenario copies of the build → observe → fault →
coordinate skeleton.  The richer historical entry points
(``run_public_experiment``, ``run_public_with_resume``,
``run_degraded_experiment``, ``run_monitored_experiment``) have been
removed after their deprecation cycle: compose the same runs with
``ExperimentSession`` directly, e.g. ``ExperimentSession(config)
.with_observers().with_faults().run()`` for the public run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.coordinator import ExperimentResult
from repro.most.assembly import MOSTDeployment
from repro.most.config import MOSTConfig
from repro.most.session import ExperimentSession, SessionResult


@dataclass
class ScenarioReport:
    """Everything a benchmark needs to print a §3.4-style results row."""

    result: ExperimentResult
    deployment: MOSTDeployment
    ntcp_retries: int = 0
    chef_peak_online: int = 0
    files_ingested: int = 0
    stream_samples_pushed: int = 0
    extras: dict[str, Any] = field(default_factory=dict)


def _legacy_report(outcome: SessionResult,
                   extras: dict[str, Any] | None = None) -> ScenarioReport:
    """A :class:`SessionResult` repackaged in the historical shape."""
    return ScenarioReport(result=outcome.result,
                          deployment=outcome.deployment,
                          ntcp_retries=outcome.ntcp_retries,
                          chef_peak_online=outcome.chef_peak_online,
                          files_ingested=outcome.files_ingested,
                          stream_samples_pushed=outcome.stream_samples_pushed,
                          extras=dict(extras or {}))


def run_simulation_only(config: MOSTConfig | None = None) -> ScenarioReport:
    """The distributed simulation-only rehearsal (§3: built first)."""
    outcome = ExperimentSession(config, run_id="most-simonly",
                                simulation_only=True).run()
    return _legacy_report(outcome)


def run_dry_run(config: MOSTConfig | None = None) -> ScenarioReport:
    """The hybrid dry run: no injected faults; completes all steps."""
    outcome = ExperimentSession(config, run_id="most-dry").run()
    return _legacy_report(outcome)


def run_with_fault_tolerance(config: MOSTConfig | None = None, *,
                             fail_at_step: int | None = None) -> ScenarioReport:
    """Identical faults to the public run; fault-tolerant coordinator."""
    outcome = (ExperimentSession(config, run_id="most-ft")
               .with_metadata(False)
               .with_faults(fail_at_step)
               .with_fault_tolerance()
               .run())
    return _legacy_report(outcome, {"fail_at_step": outcome.fail_at_step})
