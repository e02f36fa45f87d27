"""The bounded protocol verifier: exploration, mutations, reports.

The load-bearing assertions: the shipped protocol rules explore *clean*
at both pipeline depths across the full bounded schedule space, and each
deliberately broken rule is *caught* — a checker that can't catch a
seeded break proves nothing by passing.
"""

import json

import pytest

from repro.verify import (
    FAULT_KINDS,
    VERIFY_SCHEMA_ID,
    ProtocolRules,
    VerifyConfig,
    build_report,
    ensure_valid,
    enumerate_schedules,
    explore,
    validate_verify_payload,
)
from repro.verify.model import (
    PIPELINED_KINDS,
    SEQUENTIAL_KINDS,
    STRUCTURAL_KINDS,
)
from repro.verify.report import VerifyReportError


def config_at(depth: int, **kwargs) -> VerifyConfig:
    return VerifyConfig(pipeline_depth=depth, **kwargs)


@pytest.fixture(scope="module")
def sequential():
    return explore(config_at(0))


@pytest.fixture(scope="module")
def pipelined():
    return explore(config_at(1))


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
            assert trace.completed
            assert trace.committed == 4

    def test_exploration_is_deterministic(self, sequential):
        again = explore(config_at(0))
        assert [t.schedule for t in again.traces] == \
               [t.schedule for t in sequential.traces]
        assert again.states_explored == sequential.states_explored
        assert [t.expected for t in again.traces] == \
               [t.expected for t in sequential.traces]

    def test_traces_by_kind_samples_every_kind(self, sequential, pipelined):
        assert set(sequential.traces_by_kind()) == \
               {"clean", *SEQUENTIAL_KINDS}
        assert set(pipelined.traces_by_kind()) == \
               {"clean", *PIPELINED_KINDS}
        assert set(SEQUENTIAL_KINDS) | set(PIPELINED_KINDS) == \
               set(FAULT_KINDS)


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

    def test_broken_lists_the_flipped_rule(self):
        rules = ProtocolRules().mutate("dedupe_execute")
        assert rules.broken() == ("dedupe_execute",)
        assert ProtocolRules().broken() == ()


# ---------------------------------------------------------------------------
# the repro.verify/v1 report schema


class TestReport:
    def smoke_report(self) -> dict:
        result = explore(config_at(0, n_steps=2, max_faults=1))
        mutations = [{"rule": "dedupe_execute", "caught": True,
                      "violations": ["at-most-once"]}]
        conformance = {"traces_replayed": 0, "divergences": [],
                       "replays": []}
        return build_report([result], mutations=mutations,
                            conformance=conformance)

    def test_build_report_validates(self):
        report = self.smoke_report()
        assert report["schema"] == VERIFY_SCHEMA_ID
        assert report["ok"] is True
        assert ensure_valid(report) is report
        # JSON round-trip keeps it valid
        validate_verify_payload(json.loads(json.dumps(report)))

    def test_validator_rejects_mutilated_documents(self):
        report = self.smoke_report()
        for mutation in (
            {"schema": "repro.verify/v0"},
            {"ok": "yes"},
            {"explorations": None},
            {"ok": False},  # inconsistent with clean explorations
            # booleans are not integers
            {"explorations": [{**report["explorations"][0],
                               "pipeline_depth": False}]},
            {"conformance": {**report["conformance"],
                             "traces_replayed": True}},
        ):
            with pytest.raises(VerifyReportError):
                validate_verify_payload({**report, **mutation})

    def test_uncaught_mutation_fails_the_report(self):
        result = explore(config_at(0, n_steps=2, max_faults=1))
        report = build_report(
            [result],
            mutations=[{"rule": "dedupe_execute", "caught": False,
                        "violations": []}],
            conformance=None)
        assert report["ok"] is False


# ---------------------------------------------------------------------------
# the CLI


class TestCli:
    def test_smoke_run_is_clean(self, tmp_path, capsys):
        from repro.verify.__main__ import main
        out_path = tmp_path / "verify.json"
        code = main(["--smoke", "--no-conformance", "--no-mutations",
                     "--output", str(out_path)])
        assert code == 0
        assert "verify: OK" in capsys.readouterr().out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        validate_verify_payload(payload)
        assert payload["ok"] is True

    def test_single_mutation_mode(self, capsys):
        from repro.verify.__main__ import main
        code = main(["--smoke", "--mutate", "dedupe_execute"])
        assert code == 0
        assert "caught" in capsys.readouterr().out
