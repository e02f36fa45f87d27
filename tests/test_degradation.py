"""Graceful degradation: circuit breakers, surrogate failover, chaos plans.

The campaign-scale behaviour (bit-exact recoverable runs, forced failover
under monitoring) is exercised end-to-end by
``benchmarks/bench_tchaos_campaign.py``; these tests pin the unit
semantics and the cheap integration paths.
"""

import json

import numpy as np
import pytest

from repro.chaos import (
    CHAOS_KINDS,
    CHAOS_SITES,
    ChaosCampaign,
    check_fleet_invariants,
    make_plan,
)
from repro.coordinator import DegradationPolicy, NaiveFaultPolicy, StepRecord
from repro.coordinator.state import record_from_payload, record_to_payload
from repro.most import ExperimentSession, MOSTConfig
from repro.net import BreakerConfig, BreakerOpen, CircuitBreaker
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import ConfigurationError


def run_degraded(config, *, fail_at_step=None,
                 outage_duration=float("inf"), fault_policy=None,
                 breaker_config=None, degradation_policy=None):
    """A degraded-mode run composed the way the retired shim built it."""
    session = (ExperimentSession(config, run_id="most-degraded")
               .with_faults(fail_at_step, outage_duration=outage_duration)
               .with_degradation(degradation_policy,
                                 breaker_config=breaker_config))
    return session.with_fault_tolerance(fault_policy).run()


def make_breaker(**cfg):
    k = Kernel()
    config = BreakerConfig(**cfg) if cfg else None
    return k, CircuitBreaker(k, "uiuc", config)


def advance(kernel, duration):
    """Move simulated time forward (the breaker only reads the clock)."""

    def idle():
        yield kernel.timeout(duration)

    kernel.run(until=kernel.process(idle()))


class TestBreakerConfig:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(open_interval=0.0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(half_open_probes=0)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_fast_fails(self):
        k, breaker = make_breaker(failure_threshold=3, open_interval=60.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        # the count lives in the hub; the attribute is a view of it
        assert breaker.trips == 1 == k.telemetry.counter(
            "net.breaker.trips", site="uiuc").value
        with pytest.raises(BreakerOpen) as excinfo:
            breaker.check()
        assert excinfo.value.site == "uiuc"
        assert excinfo.value.retry_after == pytest.approx(60.0)

    def test_success_resets_the_consecutive_count(self):
        k, breaker = make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        k, breaker = make_breaker(failure_threshold=1, open_interval=60.0)
        breaker.record_failure()
        assert not breaker.allow()
        advance(k, 61.0)
        assert breaker.allow()  # open interval elapsed: admit the probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.open_since is None
        assert breaker.open_duration == 0.0

    def test_half_open_probe_failure_reopens_keeping_the_episode(self):
        k, breaker = make_breaker(failure_threshold=1, open_interval=60.0)
        breaker.record_failure()  # first trip at t=0
        advance(k, 61.0)
        assert breaker.allow()
        breaker.record_failure()  # failed probe: re-open, same episode
        assert breaker.state == "open"
        assert breaker.open_since == 0.0
        assert breaker.open_duration == pytest.approx(k.now)
        # the interval restarts from the failed probe, not the first trip
        assert not breaker.allow()

    def test_multiple_probes_required_to_close(self):
        k, breaker = make_breaker(failure_threshold=1, open_interval=10.0,
                                  half_open_probes=2)
        breaker.record_failure()
        advance(k, 11.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "half_open"  # one success is not enough
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert k.telemetry.counter("net.breaker.probes",
                                   site="uiuc").value == 2

    def test_state_changes_fire_callback_and_telemetry(self):
        k = Kernel()
        sink = k.telemetry.add_sink(InMemorySink())
        transitions = []
        breaker = CircuitBreaker(
            k, "cu", BreakerConfig(failure_threshold=1, open_interval=5.0),
            on_state_change=lambda b, old, new: transitions.append((old, new)))
        breaker.record_failure()
        advance(k, 6.0)
        breaker.allow()
        breaker.record_success()
        assert transitions == [("closed", "open"), ("open", "half_open"),
                               ("half_open", "closed")]
        kinds = [r.kind for r in sink.records
                 if r.kind.startswith("breaker.")]
        assert kinds == ["breaker.open", "breaker.half_open",
                         "breaker.closed"]

    def test_snapshot_is_json_friendly(self):
        k, breaker = make_breaker(failure_threshold=1, open_interval=60.0)
        breaker.record_failure()
        advance(k, 45.0)
        snap = breaker.snapshot()
        assert snap == {"site": "uiuc", "state": "open", "failures": 1,
                        "trips": 1, "open_duration": pytest.approx(45.0)}
        json.dumps(snap)


class TestDegradedRecords:
    def make_record(self, **overrides):
        fields = dict(step=7, model_time=0.14,
                      displacement=np.array([0.001, 0.002]),
                      restoring_force=np.array([-3.0, 1.5]),
                      site_forces={"uiuc": {0: -3.0}}, attempts=2,
                      wall_started=10.0, wall_finished=12.5)
        fields.update(overrides)
        return StepRecord(**fields)

    def test_degraded_label_round_trips_through_checkpoint_payload(self):
        record = self.make_record(degraded=("uiuc",))
        payload = record_to_payload(record)
        assert payload["degraded"] == ["uiuc"]
        back = record_from_payload(json.loads(json.dumps(payload)))
        assert back.degraded == ("uiuc",)
        assert back.is_degraded

    def test_healthy_records_carry_no_degraded_key(self):
        payload = record_to_payload(self.make_record())
        assert "degraded" not in payload
        assert record_from_payload(payload).degraded == ()


class TestDegradedScenario:
    def test_surrogate_finishes_where_the_naive_policy_aborts(self):
        config = MOSTConfig().scaled(60)
        report = run_degraded(config)
        result = report.result
        assert result.completed
        assert result.steps_completed == result.target_steps
        assert result.degraded_steps >= 1
        spans = result.degraded_spans()
        assert spans and spans[-1][2] == ("uiuc",)
        assert report.degraded_steps == result.degraded_steps
        assert report.deployment.kernel.telemetry.counter(
            "coordinator.failover.degraded_steps",
            run_id="most-degraded").value == result.degraded_steps
        # never closed — the run may end mid-probe (half_open), but a
        # permanent outage means the site is never won back
        assert report.breakers["uiuc"]["state"] in ("open", "half_open")
        events = report.failover["events"]
        assert [e["kind"] for e in events] == ["failover"]
        assert events[0]["site"] == "uiuc"
        assert events[0]["replacement"].startswith(events[0]["transaction"])
        assert "-f" in events[0]["replacement"]
        assert report.metadata_object is not None

        # Identical permanent outage, paper-faithful policy: the run dies
        # at the fatal step instead of degrading.
        control = run_degraded(config, fault_policy=NaiveFaultPolicy())
        assert not control.result.completed
        assert control.result.aborted_at_step == control.fail_at_step
        assert control.result.degraded_steps == 0

    def test_recovered_site_is_readmitted_at_a_step_boundary(self):
        # A finite outage with an impatient degradation policy: the
        # coordinator fails over quickly, then wins the site back once
        # the link returns.
        config = MOSTConfig().scaled(60)
        report = run_degraded(
            config, fail_at_step=12, outage_duration=400.0,
            breaker_config=BreakerConfig(failure_threshold=2,
                                         open_interval=30.0),
            degradation_policy=DegradationPolicy(recovery_budget=60.0,
                                                 readmit=True,
                                                 probe_interval=30.0))
        result = report.result
        assert result.completed
        kinds = [e["kind"] for e in report.failover["events"]]
        assert kinds == ["failover", "readmit"]
        # degraded steps form one internal window; the run ends healthy
        assert result.degraded_steps >= 1
        assert result.steps[-1].degraded == ()
        assert report.breakers["uiuc"]["state"] == "closed"
        spans = result.degraded_spans()
        assert len(spans) == 1
        first, last, sites = spans[0]
        assert sites == ("uiuc",) and last < result.target_steps


class TestChaosPlans:
    def test_same_seed_same_plan(self):
        config = MOSTConfig().scaled(100)
        assert make_plan(11, config) == make_plan(11, config)

    def test_different_seeds_differ(self):
        config = MOSTConfig().scaled(100)
        assert make_plan(1, config).describe() != make_plan(2,
                                                            config).describe()

    def test_events_stay_in_the_middle_window(self):
        config = MOSTConfig().scaled(100)
        plan = make_plan(3, config, n_events=8)
        assert len(plan.events) == 8
        for event in plan.events:
            assert event.kind in CHAOS_KINDS
            assert event.site in CHAOS_SITES
            assert 10 <= event.step < 90
        assert plan.fatal_site == "" and plan.fatal_step == 0

    def test_force_failover_appends_the_fatal_outage(self):
        config = MOSTConfig().scaled(100)
        plan = make_plan(3, config, n_events=2, force_failover=True)
        assert plan.fatal_site in CHAOS_SITES
        # the paper's fatal fraction, clamped inside the run
        assert plan.fatal_step == min(round(100 * 1493 / 1500), 99)
        rows = plan.describe()
        assert rows[-1]["kind"] == "fatal_outage"
        assert rows[-1]["duration"] == float("inf")
        assert len(rows) == 3

    def test_negative_event_count_rejected(self):
        with pytest.raises(ConfigurationError):
            make_plan(1, MOSTConfig().scaled(100), n_events=-1)


class TestChaosCampaign:
    def test_recoverable_seed_passes_all_invariants(self):
        campaign = ChaosCampaign(MOSTConfig().scaled(30), n_events=2)
        report = campaign.run_one(1)
        assert report.ok, report.invariants["violations"]
        row = report.row()
        assert row["completed"]
        assert row["steps_completed"] == report.result.target_steps
        assert row["degraded_steps"] == 0
        assert row["checks"]["bit_exact_vs_baseline"]
        json.dumps(row)

    def test_reports_are_deterministic_across_campaign_instances(self):
        config = MOSTConfig().scaled(30)
        first = ChaosCampaign(config, n_events=2).run_one(4)
        second = ChaosCampaign(config, n_events=2).run_one(4)
        assert json.dumps(first.row(), sort_keys=True) == \
            json.dumps(second.row(), sort_keys=True)

    def test_each_per_run_rule_names_its_violation(self):
        """The rule body both sweeps share really fires: doctor a clean
        three-step result four ways and read each violation back through
        the fleet sweep (the chaos sweep reaches the same function —
        ``test_a_guarantee_has_one_gate``)."""
        from types import SimpleNamespace

        steps = [SimpleNamespace(step=n) for n in (1, 2, 3)]
        history = np.zeros((3, 1))

        def result(**doctored):
            return SimpleNamespace(**{
                "completed": True, "steps": steps, "degraded_steps": 0,
                "displacement_history": lambda: history, **doctored})

        def sweep(result, executed=4, solo=history):
            outcome = SimpleNamespace(
                tenant="t00", run_id="r0", result=result,
                usage={"uiuc": {"executed": executed}},
                resumed_from_step=0, duplicate_executes=lambda: 0)
            return check_fleet_invariants([outcome], baselines={"r0": solo})

        assert sweep(result())["ok"]
        for verdict, said in (
                (sweep(result(completed=False, aborted_at_step=2,
                              aborted_reason="outage")),
                 "t00/r0: aborted at step 2 (outage)"),
                (sweep(result(steps=steps[1:])), "not contiguous"),
                (sweep(result(), executed=5),
                 "site uiuc executed 5 transactions, expected 4"),
                (sweep(result(), solo=history + 1e-12), "histories differ")):
            assert not verdict["ok"]
            assert any(said in line for line in verdict["violations"]), said
