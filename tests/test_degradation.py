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
    ChaosEvent,
    ChaosPlan,
    check_fleet_invariants,
    check_invariants,
    evidence_of,
    make_plan,
    replay,
)
from repro.coordinator import (
    DegradationPolicy,
    FailoverManager,
    NaiveFaultPolicy,
    SimulationCoordinator,
    StepRecord,
)
from repro.coordinator.state import (
    record_from_payload,
    record_to_payload,
    transaction_name,
)
from repro.core.transaction import TransactionState
from repro.grid import Grid
from repro.most import ExperimentSession, MOSTConfig, build_most
from repro.net import BreakerConfig, BreakerOpen, CircuitBreaker
from repro.sim import Kernel
from repro.structural import StructuralModel, el_centro_like
from repro.telemetry import InMemorySink
from repro.util.errors import ConfigurationError
from repro.verify.explorer import mutated


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

    def test_the_failover_manager_owns_the_breakers_the_run_reports(
            self, monkeypatch):
        made = []
        make = ExperimentSession._make_coordinator

        def capture(session, dep, **options):
            made.append(make(session, dep, **options))
            return made[-1]

        monkeypatch.setattr(ExperimentSession, "_make_coordinator", capture)
        report = run_degraded(MOSTConfig().scaled(30))
        [coordinator] = made
        manager = coordinator.failover
        assert coordinator.breakers is manager.breakers
        assert report.breakers == {site: breaker.snapshot() for site, breaker
                                   in manager.breakers.items()}
        assert sorted(report.breakers) == ["cu", "ncsa", "uiuc"]
        # the surrogate serving uiuc is not gated by the real site's breaker
        assert manager.active and set(manager.active) == {"uiuc"}
        assert manager.breaker_for("uiuc") is None
        assert manager.breaker_for("cu") is manager.breakers["cu"]

    def test_a_surrogate_site_without_a_breaker_is_refused(self):
        manager = build_most(MOSTConfig().scaled(10)).make_failover()
        breakers = dict(manager.breakers)
        del breakers["uiuc"]
        with pytest.raises(ConfigurationError, match="uiuc"):
            FailoverManager(container=manager.container, specs=manager.specs,
                            breakers=breakers)

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


class TestArming:
    @pytest.mark.parametrize("event, named", [
        (ChaosEvent(kind="bogus", step=5, site="uiuc"), "bogus"),
        (ChaosEvent(kind="outage", step=5, site="nowhere"), "nowhere"),
        (ChaosEvent(kind="outage", step=-1, site="uiuc"), "step"),
        (ChaosEvent(kind="outage", step=5.0, site="uiuc"), "step"),
        (ChaosEvent(kind="transient_drop", step=5, site="uiuc", count=0),
         "count"),
        (ChaosEvent(kind="outage", step=5, site="uiuc", duration=-1.0),
         "duration"),
        (ChaosEvent(kind="crash", step=5, site="uiuc",
                    duration=float("nan")), "duration"),
        (ChaosEvent(kind="jitter", step=5, site="uiuc", duration=60.0,
                    magnitude=-0.1), "magnitude"),
        (ChaosEvent(kind="slowdown", step=5, site="ncsa",
                    magnitude=float("inf")), "magnitude"),
    ])
    def test_a_bad_event_is_refused_before_the_run(self, event, named):
        """An arming mistake is the plan's error, raised by ``replay``
        before the run — not a drop filter's exception that the
        coordinator books as a failure of the site it was aimed at."""
        dep = build_most(MOSTConfig().scaled(30))
        plan = ChaosPlan(seed=0, n_steps=30, events=(event,))
        with pytest.raises(ConfigurationError, match=named):
            replay(dep, plan.schedule, run_id="refused")
        assert dep.kernel.now == 0.0

    def test_a_permanent_event_is_legal(self):
        dep = build_most(MOSTConfig().scaled(30))
        for event in ChaosPlan(seed=0, n_steps=30, events=(
                ChaosEvent(kind="slowdown", step=3, site="ncsa",
                           magnitude=40.0),), fatal_site="cu").schedule:
            dep.arm(event)

    def test_a_reorder_swaps_the_sites_next_two_requests(self):
        """``reorder`` holds the site's next two requests and releases
        them last-first: on a pipelined run step 3's round and step 4's
        speculation go out together, so step 4's proposal reaches the
        site first — and at-most-once execution holds through it."""
        grid = Grid.star()
        stiffness = {"uiuc": 30.0, "cu": 30.0}
        grid.add_simulation_sites(stiffness, latency=0.01,
                                  compute_time=0.05)
        grid.arm(ChaosEvent("reorder", 3, "uiuc", count=2))
        coordinator = SimulationCoordinator(
            run_id="r", client=grid.client(timeout=10.0, retries=3),
            model=StructuralModel(mass=[[2.0]], stiffness=[[100.0]]),
            motion=el_centro_like(duration=0.2, dt=0.02),
            sites=grid.bindings(), predictor=grid.predictor(
                stiffness, name="{}-predictor".format))
        result = grid.run(coordinator.run())
        assert result.completed

        def arrivals(site):  # proposals in the order the site took them
            names = list(grid.sites[site].server.transactions)
            return [names.index(transaction_name("r", step, site))
                    for step in (3, 4)]

        assert arrivals("uiuc") == sorted(arrivals("uiuc"), reverse=True)
        assert arrivals("cu") == sorted(arrivals("cu"))
        for site in stiffness:
            metrics = grid.sites[site].server.metrics()
            assert metrics["executed"] == len(result.steps) + 1
            assert metrics["duplicate_executes"] == 0


    def test_a_reorder_on_a_sequential_run_only_holds(self):
        """On a sequential run a site's propose and its execute are
        causally ordered, so ``reorder`` has nothing in flight to swap:
        it holds both 0.2 s, they reach the site in send order, and the
        run is the unarmed one, two holds later."""
        def run(*events):
            grid = Grid.star()
            stiffness = {"uiuc": 30.0, "cu": 30.0}
            grid.add_simulation_sites(stiffness, latency=0.01,
                                      compute_time=0.05)
            sink = grid.kernel.telemetry.add_sink(InMemorySink())
            for event in events:
                grid.arm(event)
            coordinator = SimulationCoordinator(
                run_id="r", client=grid.client(timeout=10.0, retries=3),
                model=StructuralModel(mass=[[2.0]], stiffness=[[100.0]]),
                motion=el_centro_like(duration=0.2, dt=0.02),
                sites=grid.bindings())
            result = grid.run(coordinator.run())
            assert result.completed
            return grid, result, sink

        _, plain, _ = run()
        grid, armed, sink = run(ChaosEvent("reorder", 3, "uiuc", count=2))
        held = [r for r in sink.records if r.kind == "chaos.reorder"]
        assert [r.detail["dst"] for r in held] == ["uiuc", "uiuc"]
        names = list(grid.sites["uiuc"].server.transactions)
        assert [names.index(transaction_name("r", step, "uiuc"))
                 for step in (3, 4)] == [3, 4]
        def took(result):
            return result.wall_finished - result.wall_started

        # each held request arrives 0.2 s (+ 1 ms per later slot) after
        # its capture instead of one 0.01 s link later
        assert took(armed) - took(plain) == pytest.approx(
            (0.2 + 0.001 - 0.01) + (0.2 - 0.01))
        assert [s.displacement.tolist() for s in armed.steps] == \
            [s.displacement.tolist() for s in plain.steps]
        metrics = grid.sites["uiuc"].server.metrics()
        assert metrics["executed"] == len(armed.steps) + 1
        assert metrics["duplicate_executes"] == 0


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

    def test_a_chaos_run_is_judged_by_what_the_verifier_reads(self):
        """A chaos run's evidence carries what the verifier's replays
        carry — the coordinator's final names, the sites' DOFs and the
        servers' propose spans — so command-freshness judges it: a
        coordinator that records a committed displacement other than the
        one it sent is caught."""
        from unittest import mock

        from repro.coordinator import mspsds

        campaign = ChaosCampaign(MOSTConfig().scaled(30), n_events=2)
        evidence = campaign.run_one(1).evidence
        last = evidence.result.target_steps
        assert sorted(evidence.names) == list(range(last + 1))
        assert sorted(evidence.names[last]) == sorted(CHAOS_SITES)
        assert sorted(evidence.dofs) == sorted(CHAOS_SITES)
        assert len(evidence.proposals) >= 3 * (last + 1)
        record = mspsds.StepRecord

        def misrecorded(**fields):
            return record(**{**fields,
                             "displacement": fields["displacement"] + 1e-9})

        with mock.patch.object(mspsds, "StepRecord", misrecorded):
            report = campaign.run_one(1)
        assert not report.invariants["checks"]["commands_fresh"]
        assert "step 1 at uiuc: chaos-1-step00001-uiuc did not execute " \
            "the committed command" in report.invariants["violations"]

    def test_reports_are_deterministic_across_campaign_instances(self):
        config = MOSTConfig().scaled(30)
        first = ChaosCampaign(config, n_events=2).run_one(4)
        second = ChaosCampaign(config, n_events=2).run_one(4)
        assert json.dumps(first.row(), sort_keys=True) == \
            json.dumps(second.row(), sort_keys=True)

    def test_each_per_run_rule_names_its_violation(self):
        """The rule body both sweeps share really fires: doctor a clean
        three-step result five ways and read each violation back through
        the fleet sweep (the chaos sweep reaches the same function —
        ``test_a_guarantee_has_one_gate``)."""
        from types import SimpleNamespace

        steps = [SimpleNamespace(step=n, degraded=()) for n in (1, 2, 3)]
        history = np.zeros((3, 1))
        names = [transaction_name("r0", n, "uiuc") for n in range(4)]

        def result(**doctored):
            return SimpleNamespace(**{
                "run_id": "r0", "target_steps": 3, "completed": True,
                "steps": steps, "degraded_steps": 0,
                "displacement_history": lambda: history, **doctored})

        def sweep(result, executed=4, solo=history, names=names):
            server = SimpleNamespace(
                metrics=lambda: {"executed": executed},
                transactions={name: SimpleNamespace(
                    name=name, state=TransactionState.EXECUTED)
                    for name in names})
            outcome = SimpleNamespace(
                tenant="t00", run_id="r0", result=result,
                lease=SimpleNamespace(sites=[
                    SimpleNamespace(name="uiuc", server=server)]),
                failover=None, duplicate_executes=lambda: 0)
            return check_fleet_invariants([outcome], baselines={"r0": solo})

        assert sweep(result())["ok"]
        for verdict, said in (
                (sweep(result(completed=False, aborted_at_step=2,
                              aborted_reason="outage")),
                 "t00/r0: aborted at step 2 (outage)"),
                (sweep(result(steps=steps[1:])), "not contiguous"),
                (sweep(result(), executed=5),
                 "site uiuc ran 5 executions for 4 executed transactions"),
                (sweep(result(), executed=5,
                       names=[*names, names[2] + "-r1"]),
                 "site uiuc executed 2 transactions named "
                 "r0-step00002-uiuc"),
                (sweep(result(), solo=history + 1e-12), "histories differ")):
            assert not verdict["ok"]
            assert any(said in line for line in verdict["violations"]), said

    def test_a_double_execution_is_caught_on_an_aborted_run(self):
        """At-most-once is judged on every run, not only a completed one:
        with the server's dedupe ablated, a dropped execute reply's
        retransmission re-runs the plugin, and the naive run then aborts
        on a lost site — still a double execution."""
        dep = build_most(MOSTConfig().scaled(30))
        dep.start_backends()
        dep.arm(ChaosEvent("drop_execute_reply", 3, "uiuc"))
        dep.arm(ChaosEvent("outage", 6, "cu", duration=float("inf")))
        coordinator = dep.make_coordinator(run_id="aborts",
                                           fault_policy=NaiveFaultPolicy())
        with mutated("dedupe_execute"):
            result = dep.kernel.run(
                until=dep.kernel.process(coordinator.run()))
        dep.stop_observation()
        verdict = check_invariants(evidence_of(dep, coordinator, result))
        assert result.aborted_at_step == 6
        assert not verdict["checks"]["no_double_execute"]
        assert "site uiuc ran 7 executions for 6 executed transactions" \
            in verdict["violations"]
