"""Live replay: every bounded schedule, judged by the invariants.

Every explored schedule, at both stepping modes, runs through a *live*
coordinator deployment with its faults injected at their message points,
and the run's own evidence must satisfy every predicate of
:mod:`repro.invariants`.  There is no model to diverge from: the real
code is its own.
"""

import pytest

from repro.verify import VerifyConfig, explore
from repro.verify.explorer import PIPELINED_KINDS, SEQUENTIAL_KINDS


@pytest.fixture(scope="module")
def sequential(verify_pass):
    return verify_pass[2][0]


@pytest.fixture(scope="module")
def pipelined(verify_pass):
    return verify_pass[2][1]


def violations_of(exploration, kind):
    """The violations of the replayed traces whose schedule holds
    ``kind`` (``clean``: the empty schedule); at least one such trace."""

    def has(trace):
        return kind in ({e.kind for e in trace.schedule} or {"clean"})

    assert any(map(has, exploration.traces))
    return [v for trace in exploration.traces if has(trace)
            for v in trace.violations]


# ---------------------------------------------------------------------------
# every schedule, both stepping modes, one replay per session


class TestExhaustiveReplay:
    def test_every_schedule_replays_conformant(self, verify_pass):
        explorations = verify_pass[2]
        assert [len(exploration.traces) for exploration in explorations] == \
            [1017, 519]
        # violating traces per depth
        assert [sum(bool(t.violations) for t in exploration.traces)
                for exploration in explorations] == [0, 0]


class TestPerKindReplay:
    @pytest.mark.parametrize("kind", ("clean", *SEQUENTIAL_KINDS))
    def test_sequential_kind_replays_conformant(self, sequential, kind):
        assert violations_of(sequential, kind) == []

    @pytest.mark.parametrize("kind", ("clean", *PIPELINED_KINDS))
    def test_pipelined_kind_replays_conformant(self, pipelined, kind):
        assert violations_of(pipelined, kind) == []


# ---------------------------------------------------------------------------
# the speculation-outage parity cases (§9/§10): the outage kills the
# in-flight round of the step that leads its beat, so leading and
# following arming steps take different paths through the live machine


class TestSpeculationOutageParity:
    @pytest.mark.parametrize("step,site", [
        (2, "uiuc"), (3, "uiuc"), (4, "uiuc"), (3, "cu"),
    ])
    def test_spec_outage_step_replays_conformant(self, pipelined,
                                                 step, site):
        wanted = [("spec_outage_propose", step, site)]
        [trace] = [t for t in pipelined.traces if wanted == [
            (e.kind, e.step, e.site) for e in t.schedule]]
        assert trace.violations == []


# ---------------------------------------------------------------------------
# the replay driver on a small bound


class TestRunConformance:
    def test_smoke_bound_samples_every_kind_cleanly(self):
        result = explore(VerifyConfig(n_steps=2, max_faults=1,
                                      pipeline_depth=0))
        assert {e.kind for t in result.traces for e in t.schedule} == \
            set(SEQUENTIAL_KINDS)
        assert result.ok
