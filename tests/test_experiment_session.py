"""The unified run API: ExperimentSession and SessionResult.

One builder replaces the retired ``run_*_experiment`` entry points.
These tests pin the contract: the compositions reproduce the historical
scenarios' physics, and the composable capabilities land their results
on the typed :class:`SessionResult` fields.
"""

import pytest

import repro
from repro.most import ExperimentSession, MOSTConfig, SessionResult
from repro.most.session import default_fail_step
from repro.util.errors import ConfigurationError


def small() -> MOSTConfig:
    return MOSTConfig().scaled(40)


class TestExports:
    def test_session_is_in_the_curated_top_level_api(self):
        assert repro.ExperimentSession is ExperimentSession
        assert repro.SessionResult is SessionResult
        assert "ExperimentSession" in repro.__all__
        assert "SessionResult" in repro.__all__

    def test_legacy_shims_are_gone(self):
        import repro.most as most

        for name in ("run_public_experiment", "run_public_with_resume",
                     "run_monitored_experiment", "run_degraded_experiment"):
            assert not hasattr(most, name)
            assert name not in most.__all__


class TestScenarioCompositions:
    def test_public_composition_dies_at_the_scaled_fatal_step(self):
        composed = (ExperimentSession(small(), run_id="most-public")
                    .with_observers()
                    .with_faults()
                    .run())
        assert isinstance(composed, SessionResult)
        assert not composed.result.completed
        assert composed.fail_at_step == default_fail_step(small())
        assert composed.result.aborted_at_step == composed.fail_at_step

    def test_resume_composition_lands_on_typed_fields(self):
        composed = (ExperimentSession(small(), run_id="most-resume")
                    .with_faults()
                    .with_resume(checkpoint_every=10)
                    .run())
        assert composed.aborted_result is not None
        assert composed.reconciliation is not None
        assert composed.checkpoints > 0
        assert composed.result.completed


    def test_resume_after_a_permanent_outage_is_refused(self):
        """Resuming waits out the outage first; forever is a wiring error,
        not a run that never returns."""
        session = (ExperimentSession(small(), run_id="most-forever")
                   .with_faults(outage_duration=float("inf"))
                   .with_resume())
        with pytest.raises(ConfigurationError, match="permanent outage"):
            session.run()


    @pytest.mark.parametrize("arm, named", [
        (lambda s: s.with_faults(fail_at_step=500), "fail_at_step"),
        (lambda s: s.with_faults(fail_at_step=-3), "fail_at_step"),
        (lambda s: s.with_faults(outage_duration=-5.0), "outage_duration"),
        (lambda s: s.with_faults(outage_duration=float("nan")),
         "outage_duration"),
        (lambda s: s.with_anomalies(outage_at_step=900), "outage_at_step"),
        (lambda s: s.with_anomalies(slow_at_step=800), "slow_at_step"),
        (lambda s: s.with_anomalies(outage_duration=-1.0),
         "outage_duration"),
    ])
    def test_a_fault_the_run_cannot_take_is_refused(self, arm, named):
        """A fault step past the run is never armed and a bad duration
        fails mid-run: both are refused up front, naming the parameter."""
        session = ExperimentSession(MOSTConfig().scaled(60),
                                    simulation_only=True)
        with pytest.raises(ConfigurationError, match=named):
            arm(session).run()

    def test_every_step_of_the_run_takes_a_fault(self):
        # step 0 is the initialization round; n_steps - 1 the last step
        session = ExperimentSession(MOSTConfig().scaled(60))
        session.with_faults(fail_at_step=0, outage_duration=float("inf"))
        session.with_faults(fail_at_step=59)
        session.with_anomalies(outage_at_step=59, slow_at_step=0)


class TestSessionResults:
    def test_capability_fields_default_empty(self):
        outcome = ExperimentSession(small(), run_id="plain",
                                    simulation_only=True).run()
        assert outcome.completed
        assert outcome.steps_completed == outcome.result.steps_completed
        assert outcome.alerts == [] and outcome.rollups == {}
        assert outcome.monitoring is None and outcome.failover is None
        assert outcome.aborted_result is None
        assert outcome.reconciliation is None and outcome.checkpoints == 0

    def test_monitoring_lands_on_typed_fields(self):
        outcome = (ExperimentSession(small(), run_id="mon")
                   .with_fault_tolerance()
                   .with_monitoring()
                   .with_anomalies()
                   .run())
        assert outcome.completed
        assert outcome.monitoring is not None
        assert outcome.alerts
        assert "dominant_site" in outcome.rollups
        assert outcome.outage_at_step is not None
        assert outcome.slow_at_step is not None

    def test_capabilities_compose_in_one_run(self):
        outcome = (ExperimentSession(small(), run_id="composed")
                   .with_faults()
                   .with_fault_tolerance()
                   .with_monitoring()
                   .with_resume(checkpoint_every=10)
                   .run())
        assert outcome.completed
        # fault tolerance rode out the outage, so no resume was needed —
        # but the checkpoints were still written
        assert outcome.aborted_result is None
        assert outcome.checkpoints > 0
        assert outcome.rollups


SHAPES = {
    "sim_only": lambda config: ExperimentSession(config,
                                                 simulation_only=True),
    "with_observers": lambda config: (ExperimentSession(config)
                                      .with_observers()),
    "with_observatory": lambda config: (ExperimentSession(config)
                                        .with_observers()
                                        .with_observatory()),
}


class TestRetention:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_run_keeps_no_second_archive(self, shape):
        """What a finished run still holds, by type (the outcome is held,
        so everything reachable from it counts): streamed samples live
        only in the NSDS services' bounded rings — no subscriber keeps
        its own copy of the stream — a structured record or a finished
        span lives only in a sink that keeps it (the flight recorder's
        bounded rings; no other: the tracer keeps a span as an untracked
        row), and a terminal NTCP transaction lives only as its server's
        untracked row, with no ``Transaction``, ``Proposal``, ``Action``
        or ``ExecutionOutcome`` kept.  A short run of the same shape goes
        first, so what the first run of a process imports is not counted
        as kept.  The census is printed (``-s``) for CHANGES.md."""
        import gc
        from collections import Counter

        from repro.core import (
            Action,
            ExecutionOutcome,
            Proposal,
            Transaction,
        )
        from repro.nsds import StreamSample
        from repro.telemetry import LogRecord, Span

        def census():
            gc.collect()
            return Counter(type(o) for o in gc.get_objects())

        assert SHAPES[shape](MOSTConfig().scaled(10)).run().completed
        session = SHAPES[shape](MOSTConfig().scaled(300))
        before = census()
        outcome = session.run()
        retained = census() - before
        assert outcome.completed
        steps = outcome.steps_completed

        print(f"\n{shape}: {sum(retained.values()) / steps:.1f} gc-tracked "
              f"objects retained per committed step")
        for kind, count in retained.most_common(12):
            print(f"  {kind.__name__:<20} {count / steps:6.2f}")

        dep = outcome.deployment
        services = [site.nsds for site in dep.sites.values()
                    if site.nsds is not None]
        if outcome.monitoring is not None:
            services.append(outcome.monitoring.nsds)
        rings = sum(buffer.capacity for service in services
                    for buffer in service.buffers.values())
        assert retained[StreamSample] <= rings
        assert [retained[kind] for kind in (
            Transaction, Proposal, Action, ExecutionOutcome)] == [0] * 4
        if outcome.observatory is None:
            assert retained[LogRecord] == retained[Span] == 0
        else:
            recorder = outcome.observatory.recorder.stats()
            ringed = recorder["capacity"] * recorder["sources"]
            assert retained[LogRecord] <= ringed
            assert retained[Span] <= ringed
        if shape == "sim_only":
            assert retained[StreamSample] == 0
            assert retained[tuple] / steps < 4.5
            # 22.5 when each terminal transaction was kept as objects
            assert sum(retained.values()) / steps <= 4.5
        else:
            assert outcome.stream_samples_pushed > rings
