"""The bounded protocol verifier: exploration, mutations, the CLI.

The load-bearing assertions: the shipped protocol rules explore *clean*
at both pipeline depths across the full bounded schedule space, and each
deliberately broken rule is *caught* — a checker that can't catch a
seeded break proves nothing by passing.
"""

import pytest

from repro.verify import (
    FAULT_KINDS,
    ProtocolRules,
    VerifyConfig,
    enumerate_schedules,
    explore,
)
from repro.verify.__main__ import main
from repro.verify.model import (
    PIPELINED_KINDS,
    SEQUENTIAL_KINDS,
    STRUCTURAL_KINDS,
)


def config_at(depth: int, **kwargs) -> VerifyConfig:
    return VerifyConfig(pipeline_depth=depth, **kwargs)


@pytest.fixture(scope="module")
def sequential(verify_pass):
    return verify_pass[2][0][0]


@pytest.fixture(scope="module")
def pipelined(verify_pass):
    return verify_pass[2][1][0]


# ---------------------------------------------------------------------------
# schedule enumeration bounds


class TestEnumeration:
    def test_sequential_kinds_only_at_depth_zero(self):
        schedules = enumerate_schedules(config_at(0))
        kinds = {e.kind for s in schedules for e in s}
        assert kinds == set(SEQUENTIAL_KINDS)

    def test_pipelined_kinds_only_at_depth_one(self):
        schedules = enumerate_schedules(config_at(1))
        kinds = {e.kind for s in schedules for e in s}
        assert kinds == set(PIPELINED_KINDS)
        assert set(SEQUENTIAL_KINDS) | kinds == set(FAULT_KINDS)

    def test_bounds_are_respected(self):
        for schedule in enumerate_schedules(config_at(1)):
            assert len(schedule) <= 2
            steps = [e.step for e in schedule]
            assert len(set(steps)) == len(steps)  # one event per step
            structural = [e for e in schedule
                          if e.kind in STRUCTURAL_KINDS]
            assert len(structural) <= 1

    def test_spec_outage_needs_a_warm_pipeline(self):
        for schedule in enumerate_schedules(config_at(1)):
            for event in schedule:
                if event.kind == "spec_outage_propose":
                    assert event.step >= 2
                    assert not any(other.step == event.step - 1
                                   for other in schedule
                                   if other is not event)

    def test_empty_schedule_is_included(self):
        assert () in enumerate_schedules(config_at(0))


# ---------------------------------------------------------------------------
# exploration of the shipped protocol


class TestExploration:
    def test_sequential_space_is_clean(self, sequential):
        assert sequential.ok
        assert sequential.violations == []
        assert len(sequential.traces) > 500
        assert sequential.states_explored > 50

    def test_pipelined_space_is_clean(self, pipelined):
        assert pipelined.ok
        assert len(pipelined.traces) > 200
        assert pipelined.states_explored > 20

    def test_every_trace_completes_and_commits_all_steps(self, sequential):
        for trace in sequential.traces:
            assert trace.expected["completed"]
            assert trace.expected["committed_steps"] == [1, 2, 3, 4]

    def test_exploration_is_deterministic(self, sequential):
        again = explore(config_at(0))
        assert [t.schedule for t in again.traces] == \
               [t.schedule for t in sequential.traces]
        assert again.states_explored == sequential.states_explored
        assert [t.expected for t in again.traces] == \
               [t.expected for t in sequential.traces]


# ---------------------------------------------------------------------------
# the seeded-mutation regression: break a rule, the checker must see it


MUTATION_EXPECTATIONS = {
    "dedupe_execute": "at-most-once",
    "rename_after_cancel": "name-reuse",
    "harvest_executed": "at-most-once",
    "rollback_renames": "name-reuse",
    "label_degraded": "degraded-labeling",
}


class TestMutations:
    @pytest.mark.parametrize("rule,invariant",
                             sorted(MUTATION_EXPECTATIONS.items()))
    def test_broken_rule_is_caught(self, rule, invariant):
        caught: set[str] = set()
        for depth in (0, 1):
            result = explore(config_at(depth,
                                       rules=ProtocolRules().mutate(rule)))
            caught.update(v.invariant for _, v in result.violations)
        assert invariant in caught

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError):
            ProtocolRules().mutate("no_such_rule")


# ---------------------------------------------------------------------------
# the CLI: one pass, no options


class TestCli:
    def test_one_pass_is_clean_and_takes_no_option(self, capsys,
                                                   verify_pass):
        status, out, _ = verify_pass
        assert status == 0
        assert out.endswith("conformance: 1536 traces replayed, "
                            "0 divergences\nverify: OK\n")
        assert out.count("\nmutation ") == len(MUTATION_EXPECTATIONS)
        for rule in MUTATION_EXPECTATIONS:
            assert f"mutation {rule}: caught -> " in out
        for switch in ("--sites", "--steps", "--max-faults", "--depth",
                       "--smoke", "--no-mutations", "--no-conformance",
                       "--mutate", "--format", "--output"):
            assert main([switch]) == 2, switch
            captured = capsys.readouterr()
            assert captured.err == "usage: python -m repro.verify\n"
            assert not captured.out
