"""The bounded protocol verifier: exploration, mutations, the CLI.

The load-bearing assertions: the live stack replays *clean* at both
pipeline depths across the full bounded schedule space, and each
deliberately broken rule of the real coordinator or server is *caught* —
a checker that can't catch a seeded break proves nothing by passing.
"""

import pytest

from repro.invariants import judge
from repro.verify import VerifyConfig, sweep
from repro.verify.__main__ import main
from repro.verify.explorer import replay as _replay
from repro.verify.explorer import (
    FAULT_KINDS,
    MUTANTS,
    PIPELINED_KINDS,
    SEQUENTIAL_KINDS,
    STRUCTURAL_KINDS,
    enumerate_schedules,
)


def config_at(depth: int, **kwargs) -> VerifyConfig:
    return VerifyConfig(pipeline_depth=depth, **kwargs)


@pytest.fixture(scope="module")
def sequential(verify_pass):
    return verify_pass[2][0]


@pytest.fixture(scope="module")
def pipelined(verify_pass):
    return verify_pass[2][1]


def single_fault(kind: str):
    """``(config, schedule)``: the first single-fault schedule of ``kind``,
    at the depth where it is legal."""
    config = VerifyConfig(pipeline_depth=int(kind not in SEQUENTIAL_KINDS),
                          max_faults=1)
    return config, next(s for s in enumerate_schedules(config)
                        if s and s[0].kind == kind)


def counters(evidence) -> dict:
    """Every server's counters, real and surrogate, by site."""
    return {(site, role): server.metrics()
            for role, servers in (("real", evidence.servers),
                                  ("surrogate", evidence.surrogates))
            for site, server in servers.items()}


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

    def test_pipelined_space_is_clean(self, pipelined):
        assert pipelined.ok
        assert len(pipelined.traces) > 200

    def test_every_trace_completes_and_commits_all_steps(self, sequential):
        assert not [v for _, v in sequential.violations
                    if v.invariant in ("completion", "monotone-commits")]
        # the predicates read what the run did: a sample of the replays
        # committed steps 1..4 in order
        for trace in sequential.traces[::97]:
            evidence, _ = _replay(sequential.config, trace.schedule)
            assert evidence.result.completed
            assert [r.step for r in evidence.result.steps] == [1, 2, 3, 4]

    def test_exploration_is_deterministic(self):
        config = VerifyConfig()
        [schedule] = [s for s in enumerate_schedules(config)
                      if [(e.kind, e.step) for e in s] ==
                      [("crash_execute", 2), ("dup_execute_request", 3)]
                      and s[0].site == "uiuc" and s[1].site == "cu"]
        first, again = (_replay(config, schedule)[0] for _ in range(2))
        assert judge(first) == judge(again) == []
        assert counters(first) == counters(again)
        assert counters(first)[("cu", "real")]["duplicate_executes"] == 2


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
        assert invariant in {v.invariant for _, v in sweep(rule)}

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            sweep("no_such_rule")

    def test_a_sweep_leaves_the_stack_as_it_found_it(self):
        found = {rule: getattr(target, attribute)
                 for rule, (target, attribute, *_) in MUTANTS.items()}
        for rule, (target, attribute, _, kinds) in MUTANTS.items():
            assert sweep(rule)
            assert getattr(target, attribute) is found[rule]
            evidence, _ = _replay(*single_fault(kinds[0]))
            assert judge(evidence) == [], rule


# ---------------------------------------------------------------------------
# the CLI: one pass, no options


class TestCli:
    def test_one_pass_is_clean_and_takes_no_option(self, capsys,
                                                   verify_pass):
        status, out, _ = verify_pass
        assert status == 0
        assert "depth=0 max_faults=2: 1017 schedules, 0 violations\n" in out
        assert "depth=1 max_faults=2: 519 schedules, 0 violations\n" in out
        assert out.endswith("\nverify: OK\n")
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
