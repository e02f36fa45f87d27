"""Conformance replay: the model's transition relation vs the real stack.

Every fault kind the explorer samples is replayed through a *live*
coordinator deployment with the same fault injected at the same message
point; the model's expected observable table must match the deployment's
bit-for-bit.  A tampered expectation must be *detected* — a comparator
that never diverges proves nothing by passing.
"""

import copy

import pytest

from repro.util.errors import ConfigurationError
from repro.verify import (
    ProtocolRules,
    VerifyConfig,
    explore,
    replay_trace,
    run_conformance,
)
from repro.verify.model import (
    PIPELINED_KINDS,
    SEQUENTIAL_KINDS,
    SITES,
    FaultEvent,
)


@pytest.fixture(scope="module")
def sequential():
    return explore(VerifyConfig(pipeline_depth=0))


@pytest.fixture(scope="module")
def pipelined():
    return explore(VerifyConfig(pipeline_depth=1))


# ---------------------------------------------------------------------------
# one replay per fault kind, both stepping modes


class TestPerKindReplay:
    @pytest.mark.parametrize("kind", ("clean", *SEQUENTIAL_KINDS))
    def test_sequential_kind_replays_conformant(self, sequential, kind):
        trace = sequential.traces_by_kind()[kind]
        assert replay_trace(sequential.config, trace) == []

    @pytest.mark.parametrize("kind", ("clean", *PIPELINED_KINDS))
    def test_pipelined_kind_replays_conformant(self, pipelined, kind):
        trace = pipelined.traces_by_kind()[kind]
        assert replay_trace(pipelined.config, trace) == []


# ---------------------------------------------------------------------------
# the speculation-outage parity cases (§9/§10): the outage always kills
# the in-flight round of the ODD step, so odd and even arming steps take
# different paths through the model — replay both, at both sites


class TestSpeculationOutageParity:
    @pytest.mark.parametrize("step,site", [
        (2, "uiuc"), (3, "uiuc"), (4, "uiuc"), (3, "cu"),
    ])
    def test_spec_outage_step_replays_conformant(self, pipelined,
                                                 step, site):
        event = FaultEvent(step=step, kind="spec_outage_propose", site=site)
        wanted = (event,)
        trace = next(t for t in pipelined.traces if t.schedule == wanted)
        assert replay_trace(pipelined.config, trace) == []


# ---------------------------------------------------------------------------
# the comparator itself


class TestComparator:
    def test_tampered_expectation_is_detected(self, sequential):
        trace = copy.deepcopy(sequential.traces_by_kind()["clean"])
        trace.expected["generation"] = trace.expected["generation"] + 7
        divergences = replay_trace(sequential.config, trace)
        assert [d.path for d in divergences] == ["$.generation"]

    def test_tampered_counter_is_detected(self, sequential):
        trace = copy.deepcopy(sequential.traces_by_kind()["clean"])
        site = SITES[0]
        trace.expected["sites"][site]["real"]["executed"] = 99
        divergences = replay_trace(sequential.config, trace)
        assert [d.path for d in divergences] == \
            [f"$.sites.{site}.real.executed"]

    def test_multi_fault_schedules_are_refused(self, sequential):
        trace = next(t for t in sequential.traces if len(t.schedule) == 2)
        with pytest.raises(ConfigurationError):
            replay_trace(sequential.config, trace)


# ---------------------------------------------------------------------------
# the sampling driver


class TestRunConformance:
    def test_smoke_bound_samples_every_kind_cleanly(self):
        result = explore(VerifyConfig(n_steps=2, max_faults=1,
                                      pipeline_depth=0))
        assert set(result.traces_by_kind()) == {"clean", *SEQUENTIAL_KINDS}
        assert run_conformance(result) == []

    def test_mutated_model_diverges_from_the_live_stack(self):
        # break the model's dedupe rule: its expected duplicate counters
        # now disagree with what the real servers do under a replayed
        # wire fault, and conformance must notice
        result = explore(VerifyConfig(
            n_steps=2, max_faults=1, pipeline_depth=0,
            rules=ProtocolRules().mutate("dedupe_execute")))
        divergences = run_conformance(result)
        assert divergences
        assert {kind for kind, _ in divergences} <= \
            set(result.traces_by_kind())
