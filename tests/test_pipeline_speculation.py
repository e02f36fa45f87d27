"""Pipelined (speculative) stepping: every ending leaves clean physics.

The speculation contract is §7's: a speculative proposal that turns out
wrong — mispredicted forces, a fault mid-EXECUTE, a breaker opening, an
abort with the speculation still in flight — is cancelled, its name
burned, and the step re-proposed from committed state.  Whatever happens,
the committed histories must be ``np.array_equal`` with a sequential run
of the same scenario and no site may execute a step twice.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.coordinator import variant_displacement_history
from repro.telemetry.report import step_rows
from repro.most import ExperimentSession, MOSTConfig
from repro.most.assembly import build_simulation_only
from repro.structural import GroundMotion
from repro.util.errors import ConfigurationError

N_STEPS = 40


def session(run_id: str, n_steps: int = N_STEPS) -> ExperimentSession:
    return ExperimentSession(MOSTConfig().scaled(n_steps), run_id=run_id,
                             simulation_only=True)


def duplicates(outcome) -> int:
    return sum(s.server.metrics()["duplicate_executes"]
               for s in outcome.deployment.sites.values())


def pipeline_counter(outcome, name: str) -> int:
    return outcome.deployment.kernel.telemetry.counter(
        f"coordinator.pipeline.{name}", run_id=outcome.run_id).value


def assert_same_physics(a, b) -> None:
    assert np.array_equal(a.result.displacement_history(),
                          b.result.displacement_history())
    assert np.array_equal(a.result.force_history(), b.result.force_history())


class TestCleanPipeline:
    def test_bit_exact_faster_and_duplicate_free(self):
        seq = session("seq").run()
        pipe = session("pipe").with_pipeline().run()
        assert seq.result.completed and pipe.result.completed
        assert_same_physics(seq, pipe)
        # overlap buys real simulated wall time: >= 1.5x aggregate steps/s
        assert (seq.result.wall_duration
                >= 1.5 * pipe.result.wall_duration)
        assert duplicates(seq) == 0
        assert duplicates(pipe) == 0
        # on an all-numerical deployment the predictor is exact: every
        # speculation lands
        assert pipeline_counter(pipe, "speculated") > 0
        assert pipeline_counter(pipe, "hits") == \
            pipeline_counter(pipe, "speculated")
        assert pipeline_counter(pipe, "mispredicts") == 0

    def test_sequential_mode_reports_no_speculation(self):
        seq = session("seq-quiet", n_steps=10).run()
        assert pipeline_counter(seq, "speculated") == 0

    def test_every_pipelined_step_is_in_the_step_report(self):
        pipe = session("pipe-report", n_steps=30).with_pipeline().run()
        rows = step_rows(pipe.deployment.kernel.telemetry.spans())
        assert len(rows) == pipe.steps_completed + 1  # + the step-0 init
        assert [r["step"] for r in rows] == list(range(30))
        assert all(r["attempts"] == 1 and r["total"] > 0 for r in rows[1:])

    def test_a_clean_pipelined_step_has_the_sequential_phases(self):
        """One loop, one span tree: at a clean boundary (step 1, nothing
        in flight) a pipelined step holds the phases a sequential step
        does; only its propose/execute nest one level down, in the
        background round."""

        def phases(outcome, step):
            spans = outcome.deployment.kernel.telemetry.spans()
            [root] = [s for s in spans if s.name == "coordinator.step"
                      and s.attrs["step"] == step]
            parents = {root.span_id} | {
                s.span_id for s in spans if s.parent_id == root.span_id
                and s.name == "coordinator.step.round"}
            return sorted(s.name for s in spans if s.parent_id in parents
                          and s.name != "coordinator.step.round")

        seq = phases(session("phases-seq", n_steps=5).run(), 1)
        pipe = phases(session("phases-pipe", n_steps=5).with_pipeline().run(),
                      1)
        assert seq == pipe == sorted(
            f"coordinator.step.{phase}"
            for phase in ("integrate", "propose", "execute", "commit"))


class _PerturbedPredictor:
    """Wraps the exact predictor and spoils every force it predicts."""

    def __init__(self, inner, error: float = 1e-3):
        self.inner = inner
        self.error = error

    def predict(self, site, targets):
        predicted = self.inner.predict(site, targets)
        return {dof: ([f + self.error for f in force]
                      if isinstance(force, list) else force + self.error)
                for dof, force in predicted.items()}


class TestMispredictRollback:
    def test_mispredict_beyond_tolerance_rolls_back_bit_exact(self):
        seq = session("seq").run()
        bad = session("bad-predict")
        dep_probe = build_simulation_only(MOSTConfig().scaled(N_STEPS))
        predictor = _PerturbedPredictor(dep_probe.make_predictor())
        pipe = bad.with_pipeline(predictor=predictor).run()
        assert pipe.result.completed
        # every speculation was wrong, every one was rolled back, and the
        # committed physics never noticed
        assert pipeline_counter(pipe, "mispredicts") > 0
        assert pipeline_counter(pipe, "hits") == 0
        assert_same_physics(seq, pipe)
        assert duplicates(pipe) == 0

class TestFaultDuringSpeculativeExecute:
    def test_outage_mid_pipeline_retries_to_the_same_history(self):
        def scenario(run_id, pipelined):
            s = (session(run_id)
                 .with_faults(fail_at_step=20)
                 .with_fault_tolerance())
            if pipelined:
                s = s.with_pipeline()
            return s.run()

        seq = scenario("ft-seq", pipelined=False)
        pipe = scenario("ft-pipe", pipelined=True)
        assert seq.result.completed and pipe.result.completed
        assert pipe.result.recoveries >= 1
        assert_same_physics(seq, pipe)
        assert duplicates(seq) == 0
        assert duplicates(pipe) == 0


class TestBreakerOpenMidPipeline:
    def test_failover_mid_pipeline_matches_sequential_degradation(self):
        def scenario(run_id, pipelined):
            s = (session(run_id)
                 .with_faults(fail_at_step=20,
                              outage_duration=float("inf"))
                 .with_fault_tolerance()
                 .with_degradation())
            if pipelined:
                s = s.with_pipeline()
            return s.run()

        seq = scenario("deg-seq", pipelined=False)
        pipe = scenario("deg-pipe", pipelined=True)
        assert seq.result.completed and pipe.result.completed
        # the breaker opened and the surrogate took over mid-pipeline
        assert pipe.degraded_steps > 0
        assert pipe.failover is not None and pipe.failover["events"]
        assert pipe.degraded_steps == seq.degraded_steps
        assert_same_physics(seq, pipe)
        assert duplicates(seq) == 0
        assert duplicates(pipe) == 0


class TestResumeWithSpeculationInFlight:
    def test_abort_and_resume_merge_bit_exact(self):
        clean = session("clean").run()
        resumed = (session("resume-pipe")
                   .with_faults(fail_at_step=20)
                   .with_resume(checkpoint_every=1)
                   .with_pipeline()
                   .run())
        # the first incarnation died with a speculative step in flight;
        # the second reconciled it (harvest / cancel / re-propose)
        assert resumed.aborted_result is not None
        assert not resumed.aborted_result.completed
        assert resumed.result.completed
        assert resumed.reconciliation is not None
        assert resumed.checkpoints > 0
        assert_same_physics(clean, resumed)
        assert duplicates(resumed) == 0


class TestEnsembleSession:
    N_VARIANTS = 4

    def variants(self, config):
        return ensemble_variants(config, self.N_VARIANTS)

    def test_each_variant_matches_its_solo_run(self):
        config = MOSTConfig().scaled(20)
        variants = self.variants(config)
        ens = (ExperimentSession(config, run_id="ens",
                                 simulation_only=True)
               .with_ensemble(variants)
               .run())
        assert ens.result.completed
        assert duplicates(ens) == 0
        for i, motion in enumerate(variants):
            dep = build_simulation_only(config)
            dep.motion = motion
            dep.start_backends()
            coord = dep.make_coordinator(run_id=f"solo{i}")
            coord.motion = motion
            solo = dep.kernel.run(until=dep.kernel.process(coord.run()))
            assert np.array_equal(
                variant_displacement_history(ens.result, i),
                np.array([r.displacement for r in solo.steps]))

    def test_one_protocol_cycle_advances_every_variant(self):
        config = MOSTConfig().scaled(20)
        ens = (ExperimentSession(config, run_id="ens-cost",
                                 simulation_only=True)
               .with_ensemble(self.variants(config))
               .run())
        solo = ExperimentSession(config, run_id="solo-cost",
                                 simulation_only=True).run()
        # batching N variants costs one coordinator cycle, not N
        assert ens.result.wall_duration == pytest.approx(
            solo.result.wall_duration, rel=0.05)


def ensemble_variants(config, n):
    base = build_simulation_only(config).motion
    return [GroundMotion(dt=base.dt, accel=base.accel * (0.5 + 0.25 * i))
            for i in range(n)]


#: Recorded at fe327f1, before the stepping loops shared one
#: INTEGRATE/COMMIT body — do not regenerate to make a refactor pass: a
#: moved count means the event schedule moved, which T-WALL and the
#: committed sim-clock benches pin too (only 15 s later).  Two keys count
#: the implementation, not the schedule, and each was re-recorded once,
#: alone: ``series`` counts instruments (87/87/89 → 62 when the unread
#: ones were deleted), and ``events`` counts kernel entries fired
#: (2809/2849/2809 → 2449/2489/2449 when an RPC attempt stopped waiting
#: through an ``AnyOf`` — 240 — and the server stopped creating a
#: completion event no duplicate execute waits on — 120; → 2099/2136/2099
#: when an RPC or execution timer whose wait had already ended stopped
#: reaching the heap — about 9 per committed step).  ``schedule``
#: is what holds the second of those honest: the SHA-256 of every span's
#: sorted ``(start, end_time, name)`` plus the final ``kernel.now``,
#: recorded at b56f92e *before* ``events`` moved (sorted because order
#: inside one instant is not something a clock can see).  The count
#: moved; the schedule any clock can see did not.
#:
#: ``schedule`` and the spans of an NTCP hop (``_RPC_SPANS``) were
#: re-recorded once, alone, in every row, when a verb's client span came
#: to cover its hop: the ``net.rpc.call`` / ``net.rpc.server`` pair under
#: each ``core.client.*`` span went (240 + 240 per sequential run; the
#: observed rows keep the pairs of their uncovered calls).  Each old
#: schedule less those covered pairs is the new one, row by row; nothing
#: else moved.
_RPC_SPANS = {"core.client.execute": 120, "core.client.propose": 120,
              "core.server.execute": 120, "core.server.propose": 120}
_SEQUENTIAL_SPANS = {"coordinator.step": 40, "coordinator.step.commit": 39,
                     "coordinator.step.execute": 40,
                     "coordinator.step.integrate": 39,
                     "coordinator.step.propose": 40, **_RPC_SPANS}
_SOLO_SHA = "efd54ad7858bf7792c89530f9e9a3566bafbda966c77aa9212f67ef3adc2badb"
_FULL_SHA = "8a9bcbe6d98060bee3ab6558b063455b3a9b16fe0c425b590056f6697610d067"
_SEQUENTIAL_SCHEDULE = (
    "e9911e8b137b1b5f61f0c60f6e8b4a9291f338681c6af2c76ebe1afd3183166e")
TRACE_SHAPES = {
    "sequential": dict(events=2099, sent=480, series=62, sha=_SOLO_SHA,
                       schedule=_SEQUENTIAL_SCHEDULE,
                       spans=_SEQUENTIAL_SPANS),
    # ``spans`` and ``schedule`` re-recorded once, alone, when the two
    # stepping loops became one: every step is a ``coordinator.step`` (a
    # pipelined one had a span name of its own), and a pipelined step
    # gained the integrate (clean boundary only) and commit phases a
    # sequential one has.  ``events``, ``sent`` and ``sha`` did not move.
    "pipelined": dict(events=2136, sent=480, series=62, sha=_SOLO_SHA,
                      schedule="8c016373cfbed490789198fbd6f6f1ad"
                               "970bc23dd537dd5e65ab5468e7c74298",
                      spans={"coordinator.step": 40,
                             "coordinator.step.commit": 39,
                             "coordinator.step.execute": 40,
                             "coordinator.step.integrate": 1,
                             "coordinator.step.propose": 40,
                             "coordinator.step.round": 1,
                             "coordinator.step.speculate": 38, **_RPC_SPANS}),
    "ensemble": dict(
        events=2099, sent=480, series=62, spans=_SEQUENTIAL_SPANS,
        schedule=_SEQUENTIAL_SCHEDULE,
        sha="e7327b72f7a309bf98b43d6dd66d28b1aa12bfb624bcb3ec151e93dc0c180b09"),
    # The observed deployments, recorded at 1407aea: NSDS push and OGSI
    # notification fan-out are on these schedules.  ``events`` and
    # ``sent`` re-recorded when a push came to reach each sink host as one
    # datagram (4,781 -> 3,725 and 2,216 -> 1,160: the four viewers on
    # ``portal`` shared one); nothing else moved.
    "observers": dict(
        events=3725, sent=1160, series=83, sha=_FULL_SHA, pushed=1408,
        health_updates=0,
        schedule="4f8e7e02d2b67ba2d9c80d0a837fc469"
                 "2a75ee63333e6162f2beb81ca1e733da"),
    # ``series`` re-recorded when the console and the observatory came to
    # share one receiver and one store (82 -> 84: the console's
    # ``monitor.console.samples`` went, its store's three instruments
    # came); nothing else moved.
    "monitoring": dict(
        events=2210, sent=526, series=84, sha=_SOLO_SHA, pushed=3,
        health_updates=33,
        schedule="a9fd58fb3799ec65b5222fcb43d810dc"
                 "044d14247363eeabe4662a8d14f0403b"),
    # Re-recorded at the same change: the observatory's own receiver,
    # subscription, RPC clients and container on ``repo`` went, so its
    # traffic left the schedule (events 5,257 -> 5,237, sent 2,435 ->
    # 2,418, pushed 1,438 -> 1,423, series 110 -> 102); ``sha`` did not
    # move.  ``events`` and ``sent`` re-recorded with ``observers``'
    # (5,237 -> 4,181 and 2,418 -> 1,362).
    "observatory": dict(
        events=4181, sent=1362, series=102, sha=_FULL_SHA, pushed=1423,
        health_updates=177,
        schedule="aa8f64897a324097dd2c47e177ceea7a"
                 "3e5d1c790afd5bdb32fdeb7af4acc301"),
}


def _shape_session(mode: str) -> ExperimentSession:
    if mode == "observers":
        return ExperimentSession(MOSTConfig().scaled(N_STEPS),
                                 run_id=f"shape-{mode}").with_observers()
    if mode == "observatory":
        return (ExperimentSession(MOSTConfig().scaled(N_STEPS),
                                  run_id=f"shape-{mode}")
                .with_observers().with_observatory())
    s = session(f"shape-{mode}")
    if mode == "pipelined":
        s.with_pipeline()
    elif mode == "ensemble":
        s.with_ensemble(ensemble_variants(s.config, 3))
    elif mode == "monitoring":
        s.with_monitoring()
    return s


@pytest.mark.parametrize("mode", sorted(TRACE_SHAPES))
def test_trace_shape_is_pinned(mode):
    """Kernel events, messages, series, span histogram, span schedule
    and committed history of a 40-step run: per stepping mode
    (simulation-only), and for the observed deployments — NSDS datagrams
    pushed and console health updates too."""
    outcome = _shape_session(mode).run()
    kernel = outcome.deployment.kernel
    hub = kernel.telemetry

    def total(name):
        return sum(record["value"] for record in hub.metrics_snapshot()
                   if record["name"] == name)

    history = np.ascontiguousarray(outcome.result.displacement_history())
    schedule = sorted((span.start, span.end_time, span.name)
                      for span in hub.spans())
    assert outcome.steps_completed == N_STEPS - 1
    measured = dict(events=total("sim.kernel.events"),
                    sent=total("net.network.sent"), series=len(hub.registry),
                    sha=hashlib.sha256(history.tobytes()).hexdigest(),
                    schedule=hashlib.sha256(
                        repr((schedule, kernel.now)).encode()).hexdigest(),
                    spans=dict(Counter(span.name for span in hub.spans())),
                    pushed=total("nsds.stream.pushed"),
                    health_updates=total("monitor.console.health_updates"))
    pinned = TRACE_SHAPES[mode]
    assert {key: measured[key] for key in pinned} == pinned


class TestSessionGuards:
    def test_a_session_runs_once(self):
        s = session("once", n_steps=5)
        s.run()
        with pytest.raises(ConfigurationError):
            s.run()
