"""Conformance replay: the model's transition relation vs the real stack.

Every explored schedule, at both stepping modes, is replayed through a
*live* coordinator deployment with the same faults injected at the same
message points; the model's expected observable table must match the
deployment's bit-for-bit.  A tampered expectation must be *detected* — a
comparator that never diverges proves nothing by passing.
"""

import copy

import pytest

from repro.verify import (
    ProtocolRules,
    VerifyConfig,
    explore,
    replay_trace,
    run_conformance,
)
from repro.verify.model import PIPELINED_KINDS, SEQUENTIAL_KINDS, SITES


@pytest.fixture(scope="module")
def sequential(verify_pass):
    return verify_pass[2][0]


@pytest.fixture(scope="module")
def pipelined(verify_pass):
    return verify_pass[2][1]


def divergences_of(replay, kind):
    """The divergences of the replayed traces whose schedule holds
    ``kind`` (``clean``: the empty schedule); at least one such trace."""
    exploration, divergences = replay

    def has(trace):
        return kind in ({e.kind for e in trace.schedule} or {"clean"})

    assert any(map(has, exploration.traces))
    return [d for trace, d in divergences if has(trace)]


# ---------------------------------------------------------------------------
# every schedule, both stepping modes, one replay per session


class TestExhaustiveReplay:
    def test_every_schedule_replays_conformant(self, verify_pass):
        replays = verify_pass[2]
        assert [len(exploration.traces) for exploration, _ in replays] == \
            [1017, 519]
        # divergent traces per depth
        assert [len({id(t) for t, _ in divergences})
                for _, divergences in replays] == [0, 0]


class TestPerKindReplay:
    @pytest.mark.parametrize("kind", ("clean", *SEQUENTIAL_KINDS))
    def test_sequential_kind_replays_conformant(self, sequential, kind):
        assert divergences_of(sequential, kind) == []

    @pytest.mark.parametrize("kind", ("clean", *PIPELINED_KINDS))
    def test_pipelined_kind_replays_conformant(self, pipelined, kind):
        assert divergences_of(pipelined, kind) == []


# ---------------------------------------------------------------------------
# the speculation-outage parity cases (§9/§10): the outage kills the
# in-flight round of the step that leads its beat, so leading and
# following arming steps take different paths through the model


class TestSpeculationOutageParity:
    @pytest.mark.parametrize("step,site", [
        (2, "uiuc"), (3, "uiuc"), (4, "uiuc"), (3, "cu"),
    ])
    def test_spec_outage_step_replays_conformant(self, pipelined,
                                                 step, site):
        wanted = [("spec_outage_propose", step, site)]
        assert [d for t, d in pipelined[1] if wanted == [
            (e.kind, e.step, e.site) for e in t.schedule]] == []


# ---------------------------------------------------------------------------
# the comparator itself


class TestComparator:
    def test_tampered_expectation_is_detected(self, sequential):
        trace = copy.deepcopy(sequential[0].traces[0])
        trace.expected["generation"] = trace.expected["generation"] + 7
        divergences = replay_trace(sequential[0].config, trace)
        assert [d.path for d in divergences] == ["$.generation"]

    def test_tampered_counter_is_detected(self, sequential):
        trace = copy.deepcopy(sequential[0].traces[0])
        site = SITES[0]
        trace.expected["sites"][site]["real"]["executed"] = 99
        divergences = replay_trace(sequential[0].config, trace)
        assert [d.path for d in divergences] == \
            [f"$.sites.{site}.real.executed"]


# ---------------------------------------------------------------------------
# the replay driver on a small bound


class TestRunConformance:
    def test_smoke_bound_samples_every_kind_cleanly(self):
        result = explore(VerifyConfig(n_steps=2, max_faults=1,
                                      pipeline_depth=0))
        assert {e.kind for t in result.traces for e in t.schedule} == \
            set(SEQUENTIAL_KINDS)
        assert run_conformance(result) == []

    def test_mutated_model_diverges_from_the_live_stack(self):
        # break the model's dedupe rule: its expected duplicate counters
        # now disagree with what the real servers do under a replayed
        # execute fault, and conformance must notice
        result = explore(VerifyConfig(
            n_steps=2, max_faults=1, pipeline_depth=0,
            rules=ProtocolRules().mutate("dedupe_execute")))
        divergences = run_conformance(result)
        assert divergences
        assert all("execute" in trace.schedule[0].kind
                   for trace, _ in divergences)
