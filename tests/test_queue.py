"""Durable ingress queue: journal, fencing, recovery, redelivery.

Covers :mod:`repro.queue` end to end: the ``repro.queue/v1`` entry
schema, all three journal stores (in-memory, JSONL file, repository-
backed with concurrent sequence reservation), the fencing authority's
epoch discipline and refusal ledger, the fenced checkpoint/NTCP
wrappers, the queue's dedupe / claim / terminal / replay-voiding
semantics, crash recovery with bit-exact resumed histories, and the
chaos-side scheduler-crash plan plus the fencing invariant sweep.
"""

import json

import numpy as np
import pytest

from repro.chaos import (
    arm_fleet_outages,
    check_fleet_invariants,
    make_repo_outage_plan,
    make_scheduler_crash_plan,
)
from repro.cli import main as cli_main
from repro.fleet import (
    SitePool,
    TenantRegistry,
    build_fleet_grid,
    tenant_sweep,
)
from repro.ogsi import SdeStatusService
from repro.queue import (
    ENTRY_KINDS,
    QUEUE_SCHEMA_ID,
    QUEUE_SDE,
    ExperimentQueue,
    FencedCheckpointStore,
    FencedNTCPClient,
    FencingAuthority,
    FencingError,
    FileJournalStore,
    InMemoryJournalStore,
    QueueSchemaError,
    QueueSubmission,
    attach_durable_repository,
    build_entry,
    run_durable_campaign,
    validate_queue_entry,
)
from repro.repository.checkpoint import (
    CheckpointCorrupt,
    InMemoryCheckpointStore,
)
from repro.sim import Kernel
from repro.telemetry import InMemorySink
from repro.util.errors import ConfigurationError

from test_checkpoint_resume import make_doc, run_store


def make_queue(store=None, kernel=None):
    kernel = kernel or Kernel()
    queue = ExperimentQueue(kernel, store or InMemoryJournalStore(),
                            FencingAuthority(kernel))
    return kernel, queue


def drive(kernel, gen, name="test.proc"):
    """Run one queue process to completion on a fresh kernel run."""
    return kernel.run(until=kernel.process(gen, name=name))


def submission(sid="s-0", **overrides):
    fields = dict(submission_id=sid, tenant="t00", n_steps=6, n_sites=1,
                  motion_scale=1.0, checkpoint_every=3)
    fields.update(overrides)
    return QueueSubmission(**fields)


def campaign_submissions(n_tenants=4, runs_per_tenant=2, *, n_steps=10,
                         checkpoint_every=3):
    return tenant_sweep(n_tenants, runs_per_tenant, n_steps=n_steps,
                        n_sites=1, checkpoint_every=checkpoint_every)


# ---------------------------------------------------------------------------
# the repro.queue/v1 entry schema


class TestJournalSchema:
    def good(self, kind="submit"):
        bodies = {
            "submit": submission().body(),
            "epoch": {"epoch": 1, "scheduler_id": "sched-1"},
            "claim": {"submission_id": "s-0", "epoch": 1, "attempt": 1,
                      "sites": ["uiuc"]},
            "terminal": {"submission_id": "s-0", "epoch": 1,
                         "status": "completed", "steps": 6},
        }
        return {"schema": QUEUE_SCHEMA_ID, "seq": 1, "time": 0.0,
                "kind": kind, "body": bodies[kind]}

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_every_kind_validates(self, kind):
        validate_queue_entry(self.good(kind))

    def test_wrong_schema_id_is_rejected(self):
        entry = self.good()
        entry["schema"] = "repro.queue/v0"
        with pytest.raises(QueueSchemaError, match=r"\$\.schema"):
            validate_queue_entry(entry)

    def test_unknown_kind_is_rejected(self):
        entry = self.good()
        entry["kind"] = "lease"
        with pytest.raises(QueueSchemaError, match=r"\$\.kind"):
            validate_queue_entry(entry)

    def test_seq_must_be_a_positive_integer(self):
        for bad in (0, -1, 1.5, True):
            entry = self.good()
            entry["seq"] = bad
            with pytest.raises(QueueSchemaError, match=r"\$\.seq"):
                validate_queue_entry(entry)

    def test_claim_needs_a_nonempty_site_list(self):
        entry = self.good("claim")
        entry["body"]["sites"] = []
        with pytest.raises(QueueSchemaError, match=r"\$\.body\.sites"):
            validate_queue_entry(entry)

    def test_terminal_status_vocabulary_is_closed(self):
        entry = self.good("terminal")
        entry["body"]["status"] = "aborted"
        with pytest.raises(QueueSchemaError, match=r"\$\.body\.status"):
            validate_queue_entry(entry)

    def test_build_entry_stamps_and_validates(self):
        entry = build_entry(seq=7, time=12.5, kind="epoch",
                            body={"epoch": 3, "scheduler_id": "s"})
        assert entry["schema"] == QUEUE_SCHEMA_ID
        assert entry["seq"] == 7 and entry["time"] == 12.5
        with pytest.raises(QueueSchemaError):
            build_entry(seq=0, time=0.0, kind="epoch",
                        body={"epoch": 3, "scheduler_id": "s"})


# ---------------------------------------------------------------------------
# journal stores


class TestInMemoryJournalStore:
    def test_append_replay_round_trip(self):
        store = InMemoryJournalStore()
        entry = run_store(store.append("submit", submission().body(),
                                       time=1.0))
        assert entry["seq"] == 1
        entries = run_store(store.replay())
        assert [e["seq"] for e in entries] == [1]
        assert entries[0]["body"]["submission_id"] == "s-0"


class TestFileJournalStore:
    def test_persists_across_store_instances(self, tmp_path):
        path = tmp_path / "q.jsonl"
        writer = FileJournalStore(path)
        run_store(writer.append("submit", submission().body(), time=0.0))
        run_store(writer.append(
            "epoch", {"epoch": 1, "scheduler_id": "sched-1"}, time=1.0))
        reader = FileJournalStore(path)
        entries = run_store(reader.replay())
        assert [e["seq"] for e in entries] == [1, 2]
        entry = run_store(reader.append(
            "claim", {"submission_id": "s-0", "epoch": 1, "attempt": 1,
                      "sites": ["uiuc"]}, time=2.0))
        assert entry["seq"] == 3  # the scan resumed the sequence

    def test_corrupt_line_is_a_typed_error(self, tmp_path):
        path = tmp_path / "q.jsonl"
        run_store(FileJournalStore(path).append(
            "submit", submission().body(), time=0.0))
        with path.open("a") as fh:
            fh.write("{truncated\n")
        with pytest.raises(QueueSchemaError, match="corrupt journal line"):
            run_store(FileJournalStore(path).append(
                "epoch", {"epoch": 1, "scheduler_id": "s"}, time=1.0))

    def test_non_ascending_seq_is_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        lines = [build_entry(seq=2, time=0.0, kind="submit",
                             body=submission().body()),
                 build_entry(seq=1, time=1.0, kind="epoch",
                             body={"epoch": 1, "scheduler_id": "s"})]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))
        with pytest.raises(QueueSchemaError, match="not ascending"):
            run_store(FileJournalStore(path).append(
                "epoch", {"epoch": 2, "scheduler_id": "s"}, time=2.0))

    @pytest.mark.parametrize("tail, message", [
        ('{"broken\n', "corrupt journal line"),
        (json.dumps(build_entry(
            seq=1, time=1.0, kind="epoch",
            body={"epoch": 1, "scheduler_id": "s"})) + "\n",
         "not ascending"),
    ])
    def test_read_path_turns_a_bad_journal_into_the_typed_error(
            self, tmp_path, capsys, tail, message):
        path = tmp_path / "q.jsonl"
        run_store(FileJournalStore(path).append(
            "submit", submission().body(), time=0.0))
        with path.open("a") as fh:
            fh.write(tail)
        with pytest.raises(QueueSchemaError, match=message):
            run_store(FileJournalStore(path).replay())
        assert cli_main(["queue", "status", "--journal", str(path)]) != 0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and not captured.out


class TestRepositoryJournalStore:
    def test_concurrent_appends_never_share_a_seq(self):
        """Two drive processes journaling at the same instant must get
        distinct sequence numbers: the store reserves the seq before its
        first repository hop yields."""
        grid = build_fleet_grid(2)
        store = attach_durable_repository(grid, name="seqtest")
        kernel = grid.kernel
        entries = []

        def append(i):
            entry = yield from store.append(
                "submit", submission(f"s-{i}").body(), time=kernel.now)
            entries.append(entry)

        procs = [kernel.process(append(i), name=f"append-{i}")
                 for i in range(4)]
        kernel.run(until=kernel.all_of(procs))
        assert sorted(e["seq"] for e in entries) == [1, 2, 3, 4]

        def replay():
            replayed = yield from store.replay()
            return replayed

        got = kernel.run(until=kernel.process(replay(), name="replay"))
        assert [e["seq"] for e in got] == [1, 2, 3, 4]
        assert {e["body"]["submission_id"] for e in got} == \
            {f"s-{i}" for i in range(4)}

    @pytest.mark.parametrize("rows", [
        [(1.0, '{"schema": "repro.queue/v1", "seq": 1, "ti')],  # truncated
        [(1.0, "")],                                            # blank
        [],                                                     # no rows
    ])
    def test_damaged_entry_in_the_repository_is_a_typed_error(self, rows):
        """A journal entry that fetches back truncated or empty is a
        QueueSchemaError naming the logical file, never a raw
        JSONDecodeError / IndexError out of ``replay()``."""
        grid = build_fleet_grid(2)
        store = attach_durable_repository(grid, name="damaged")
        kernel = grid.kernel
        kernel.run(until=kernel.process(store.append(
            "submit", submission().body(), time=0.0)))
        name = "queue/damaged/000001.json"
        store.repo_store.remove(name)
        store.repo_store.deposit(name, rows, created=kernel.now)
        with pytest.raises(QueueSchemaError, match=name):
            kernel.run(until=kernel.process(store.replay()))


# ---------------------------------------------------------------------------
# fencing


class TestFencingAuthority:
    def test_register_is_strictly_monotone(self):
        authority = FencingAuthority(Kernel())
        assert authority.register("a") == 1
        assert authority.register("b") == 2
        assert [e for e, _, _ in authority.epochs] == [1, 2]

    def test_observe_fast_forwards_but_never_rewinds(self):
        authority = FencingAuthority(Kernel())
        authority.observe(3, "journal")
        assert authority.current_epoch == 3
        authority.observe(2, "stale")
        assert authority.current_epoch == 3
        assert authority.register("next") == 4

    def test_stale_epoch_is_refused_and_recorded(self):
        authority = FencingAuthority(Kernel())
        authority.register("a")
        authority.register("b")
        with pytest.raises(FencingError) as exc_info:
            authority.validate(1, "queue.claim")
        assert exc_info.value.epoch == 1
        assert exc_info.value.current_epoch == 2
        assert authority.refusals_by_epoch() == {1: 1}
        assert authority.refusals[0]["path"] == "queue.claim"

    def test_current_epoch_is_accepted_and_logged(self):
        authority = FencingAuthority(Kernel())
        authority.register("a")
        authority.validate(1, "queue.terminal")
        assert authority.stale_accepts() == []
        accepted = [v for v in authority.validations if v["accepted"]]
        assert len(accepted) == 1 and accepted[0]["path"] == "queue.terminal"

    def test_report_shape(self):
        authority = FencingAuthority(Kernel())
        authority.register("a")
        report = authority.report()
        assert report["current_epoch"] == 1
        assert report["epochs"][0]["scheduler_id"] == "a"
        assert report["refusals"] == [] and report["stale_accepts"] == []


class _RecordingNTCP:
    """A stub NTCP client that records which verbs were invoked."""

    def __init__(self):
        self.calls = []
        self.rpc = "rpc-layer"

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append(name)
            return name
        return record


class TestFencedWrappers:
    def test_zombie_checkpoint_save_is_refused(self):
        kernel = Kernel()
        authority = FencingAuthority(kernel)
        epoch = authority.register("sched-1")
        store = FencedCheckpointStore(InMemoryCheckpointStore(), authority,
                                      epoch)
        run_store(store.save(make_doc(seq=1)))
        authority.register("sched-2")  # supersedes the wrapper's epoch
        with pytest.raises(FencingError):
            run_store(store.save(make_doc(seq=2)))
        # reads still pass through: a zombie reading stale state is harmless
        assert run_store(store.list_seqs("run")) == [1]
        assert authority.refusals_by_epoch() == {1: 1}

    def test_ntcp_write_verbs_fence_and_reads_pass(self):
        kernel = Kernel()
        authority = FencingAuthority(kernel)
        epoch = authority.register("sched-1")
        inner = _RecordingNTCP()
        client = FencedNTCPClient(inner, authority, epoch)
        client.propose("h", "txn")
        client.propose_and_execute("h", "txn")
        authority.register("sched-2")
        for verb in ("propose", "execute", "cancel", "propose_and_execute"):
            with pytest.raises(FencingError):
                getattr(client, verb)("h", "txn")
        client.get_results("h", "txn")  # reads never fence
        assert client.rpc == "rpc-layer"
        assert inner.calls == ["propose", "propose_and_execute",
                               "get_results"]
        paths = {r["path"] for r in authority.refusals}
        assert paths == {"ntcp.propose", "ntcp.execute", "ntcp.cancel"}


# ---------------------------------------------------------------------------
# the queue itself


class TestExperimentQueue:
    def test_resubmitted_id_is_deduped(self):
        kernel, queue = make_queue()

        def proc():
            first = yield from queue.submit(submission())
            again = yield from queue.submit(
                submission(motion_scale=9.9))  # same id, different payload
            return first, again

        first, again = drive(kernel, proc())
        assert again == first  # the journaled original wins
        assert queue.stats()["submitted"] == 1

    def test_claim_unknown_submission_is_a_config_error(self):
        kernel, queue = make_queue()
        with pytest.raises(ConfigurationError, match="unknown submission"):
            drive(kernel, queue.claim("ghost", 1, ["uiuc"]))
        with pytest.raises(ConfigurationError, match="unknown submission"):
            drive(kernel, queue.mark_terminal("ghost", 1,
                                              status="completed", steps=1))

    def test_attempts_and_redeliveries_count_claims(self):
        kernel, queue = make_queue()

        def proc():
            yield from queue.submit(submission())
            epoch = yield from queue.register_scheduler("sched-1")
            first = yield from queue.claim("s-0", epoch, ["uiuc"])
            second = yield from queue.claim("s-0", epoch, ["colorado"])
            return first, second

        first, second = drive(kernel, proc())
        assert (first, second) == (1, 2)
        assert queue.attempts("s-0") == 2
        assert queue.redeliveries() == 1
        assert queue.claimed_sites("s-0") == {"uiuc", "colorado"}

    def test_terminal_clears_the_submission_from_outstanding(self):
        kernel, queue = make_queue()

        def proc():
            yield from queue.submit(submission())
            epoch = yield from queue.register_scheduler("sched-1")
            yield from queue.claim("s-0", epoch, ["uiuc"])
            yield from queue.mark_terminal("s-0", epoch,
                                           status="completed", steps=6)

        drive(kernel, proc())
        assert queue.depth() == 0 and queue.outstanding() == []
        assert queue.terminal("s-0")["status"] == "completed"
        stats = queue.stats()
        assert stats["completed"] == 1 and stats["failed"] == 0

    def test_stale_claim_is_refused_at_the_queue_door(self):
        kernel, queue = make_queue()

        def proc():
            yield from queue.submit(submission())
            old = yield from queue.register_scheduler("sched-1")
            yield from queue.register_scheduler("sched-2")
            with pytest.raises(FencingError):
                yield from queue.claim("s-0", old, ["uiuc"])

        drive(kernel, proc())
        assert queue.attempts("s-0") == 0  # nothing was journaled

    def test_replay_voids_entries_behind_a_newer_epoch(self):
        """A zombie write that raced past the in-memory validator is
        voided by *journal order* on replay: any claim or terminal whose
        epoch is older than the newest epoch entry preceding it."""
        store = InMemoryJournalStore()
        run_store(store.append("submit", submission().body(), time=0.0))
        run_store(store.append("epoch", {"epoch": 1,
                                         "scheduler_id": "sched-1"},
                               time=1.0))
        run_store(store.append("claim", {"submission_id": "s-0",
                                         "epoch": 1, "attempt": 1,
                                         "sites": ["uiuc"]}, time=2.0))
        run_store(store.append("epoch", {"epoch": 2,
                                         "scheduler_id": "sched-2"},
                               time=3.0))
        # the zombie's terminal, appended AFTER the successor registered
        run_store(store.append("terminal", {"submission_id": "s-0",
                                            "epoch": 1,
                                            "status": "completed",
                                            "steps": 6}, time=4.0))
        kernel, queue = make_queue(store)
        report = drive(kernel, queue.recover())
        assert report == {"entries": 5, "voided": 1}
        assert queue.voided[0]["kind"] == "terminal"
        assert queue.depth() == 1  # the zombie terminal never applied
        assert queue.attempts("s-0") == 1  # the pre-supersede claim did
        assert queue.authority.current_epoch == 2  # fast-forwarded

    def test_recover_is_idempotent(self):
        kernel, queue = make_queue()

        def proc():
            yield from queue.submit(submission())
            yield from queue.recover()
            yield from queue.recover()

        drive(kernel, proc())
        assert queue.stats()["submitted"] == 1


# ---------------------------------------------------------------------------
# crash recovery end to end


class TestDurableCampaign:
    def build(self):
        grid = build_fleet_grid(4)
        pool = SitePool(grid.kernel, grid.sites.values())
        registry = TenantRegistry(grid)
        queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                                FencingAuthority(grid.kernel))
        return grid, pool, registry, queue

    def test_crash_recovery_is_complete_exact_and_fenced(self):
        subs = campaign_submissions()
        baseline = run_durable_campaign(*self.build(), subs)
        assert baseline.summary()["completed"] == len(subs)

        result = run_durable_campaign(*self.build(), subs,
                                      crash_after=(2.0,),
                                      takeover_delay=8.0)
        summary = result.summary()
        assert summary["completed"] == len(subs)
        assert summary["outstanding"] == 0
        assert summary["incarnations"] == 2
        assert summary["final_epoch"] == 2
        assert summary["duplicate_executes"] == 0
        assert summary["stale_accepts"] == 0
        assert result.fencing["refusals_by_epoch"].get(1, 0) >= 1
        for run_id, history in baseline.histories().items():
            assert np.array_equal(result.histories()[run_id], history)
        verdict = check_fleet_invariants(result.outcomes,
                                         fencing=result.fencing)
        assert verdict["ok"], verdict["violations"]
        assert verdict["fencing"]["stale_accepts"] == 0

    def test_a_submission_no_pool_can_grant_fails_and_the_rest_drain(self):
        """Both admission refusals of ``SitePool.acquire`` — more sites
        than the pool owns, and an avoid-set (every site a dead claim
        held) that leaves too few — journal that submission ``failed``
        with 0 steps; the drain goes on."""
        grid, pool, registry, queue = self.build()
        sink = grid.kernel.telemetry.add_sink(InMemorySink())

        def dead_claim():
            yield from queue.submit(submission("cornered", n_sites=2))
            epoch = yield from queue.register_scheduler("dead")
            yield from queue.claim("cornered", epoch,
                                   ["site-0", "site-1", "site-2"])

        drive(grid.kernel, dead_claim())
        result = run_durable_campaign(
            grid, pool, registry, queue,
            [submission("big", n_sites=5), submission("ok")])
        summary = result.summary()
        assert (summary["completed"], summary["failed"],
                summary["outstanding"]) == (1, 2, 0)
        for sid in ("big", "cornered"):
            terminal = queue.terminal(sid)
            assert (terminal["status"], terminal["steps"]) == ("failed", 0)
        assert [outcome.run_id for outcome in result.outcomes] == ["ok"]
        refused = [r for r in sink.records if r.kind == "admission.refused"]
        assert {r.subsystem for r in refused} == {"queue.scheduler"}
        assert sorted(r.detail["submission_id"] for r in refused) == \
            ["big", "cornered"]

    def test_campaign_without_crashes_has_no_refusals(self):
        subs = campaign_submissions(1, 2)
        result = run_durable_campaign(*self.build(), subs)
        summary = result.summary()
        assert summary["completed"] == len(subs)
        assert summary["incarnations"] == 1
        assert summary["refusals"] == 0 and summary["redeliveries"] == 0

    def test_repository_outage_delays_journal_appends_and_loses_none(self):
        """Seeded outages cut the repository host under the journal's
        claim and terminal appends (seed 3: the first one, 19-28 s in,
        lands on the second wave of runs).  The store's retry schedule
        rides it out: appends are late, none is lost."""
        subs = campaign_submissions()
        grid, pool, registry, queue = self.build()
        sink = grid.kernel.telemetry.add_sink(InMemorySink())
        queue.store = attach_durable_repository(grid, name="outage")
        arm_fleet_outages(grid, make_repo_outage_plan(3))
        summary = run_durable_campaign(grid, pool, registry, queue,
                                       subs).summary()
        assert summary["completed"] == len(subs)
        assert summary["outstanding"] == 0 and summary["failed"] == 0
        backoffs = [r for r in sink.records if r.kind == "retry.backoff"]
        assert backoffs, "no append ever met the outage"
        assert all(record.detail["key"].startswith("queue.outage.")
                   for record in backoffs)

    def test_status_service_carries_the_final_queue_stats(self):
        subs = campaign_submissions(1, 2)
        grid, pool, registry, queue = self.build()
        status = SdeStatusService("queue-status", QUEUE_SDE,
                                  "getQueueStatus")
        grid.coord_container.deploy(status)
        run_durable_campaign(grid, pool, registry, queue, subs,
                             status=status)
        assert status.service_data.value(QUEUE_SDE) == queue.stats()
        assert queue.stats()["completed"] == len(subs)


class TestSchedulerCrashPlan:
    def test_plan_is_deterministic_and_windowed(self):
        plan = make_scheduler_crash_plan(11, n_crashes=3,
                                         window=(5.0, 20.0))
        assert plan == make_scheduler_crash_plan(11, n_crashes=3,
                                                 window=(5.0, 20.0))
        assert len(plan) == 3
        assert all(5.0 <= t <= 20.0 for t in plan)
        assert plan != make_scheduler_crash_plan(12, n_crashes=3,
                                                 window=(5.0, 20.0))

    def test_negative_crash_count_is_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler_crash_plan(1, n_crashes=-1)

    def test_fencing_sweep_flags_stale_accepts(self):
        report = {"current_epoch": 2, "epochs": [
            {"epoch": 1, "scheduler_id": "a", "time": 0.0},
            {"epoch": 2, "scheduler_id": "b", "time": 1.0}],
            "refusals": [], "refusals_by_epoch": {},
            "stale_accepts": [{"epoch": 1, "current_epoch": 2,
                               "path": "queue.claim", "time": 2.0}]}
        verdict = check_fleet_invariants([], fencing=report)
        assert not verdict["ok"]
        assert any("ACCEPTED" in v for v in verdict["violations"])
        assert verdict["fencing"]["stale_accepts"] == 1


# ---------------------------------------------------------------------------
# corrupt-checkpoint fallback (the resume path redelivery leans on)


class TestCheckpointCorruptFallback:
    def corrupt(self, store, seq, text="{truncated"):
        store._runs["run"][seq] = text

    def test_load_raises_the_typed_error(self):
        store = InMemoryCheckpointStore()
        run_store(store.save(make_doc(seq=1)))
        self.corrupt(store, 1)
        with pytest.raises(CheckpointCorrupt) as exc_info:
            run_store(store.load("run", 1))
        assert exc_info.value.run_id == "run"
        assert exc_info.value.seq == 1

    def test_a_corrupt_newest_falls_back_to_the_newest_valid(self):
        store = InMemoryCheckpointStore()
        run_store(store.save(make_doc(seq=1, step=3)))
        run_store(store.save(make_doc(seq=2, step=6)))
        self.corrupt(store, 2)
        doc, records = run_store(store.load_history("run"))
        assert doc["seq"] == 1  # the truncated newest was skipped
        assert [r["step"] for r in records] == [1, 2]

    def test_load_history_merges_around_a_corrupt_document(self):
        # make_doc's documents are cumulative, so seq 3 is whole without
        # seq 2; a lost *tail* is TestAHistoryNeverHasAHole's case
        store = InMemoryCheckpointStore()
        run_store(store.save(make_doc(seq=1, step=3)))
        run_store(store.save(make_doc(seq=2, step=5)))
        run_store(store.save(make_doc(seq=3, step=7)))
        self.corrupt(store, 2, text='{"schema": "wrong/v9"}')
        latest, records = run_store(store.load_history("run"))
        assert latest["seq"] == 3
        assert [r["step"] for r in records] == [1, 2, 3, 4, 5, 6]

    def test_all_corrupt_yields_a_cold_start(self):
        store = InMemoryCheckpointStore()
        run_store(store.save(make_doc(seq=1)))
        self.corrupt(store, 1)
        assert tuple(run_store(store.load_history("run"))) == (None, [])
