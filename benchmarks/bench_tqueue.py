"""T-QUEUE — durable experiment queue under scheduler crashes.

The paper's MOST run survived *site* outages; the durable queue layer
(:mod:`repro.queue`) makes the campaign survive the death of the fleet
scheduler itself.  This benchmark submits a seeded campaign through the
write-ahead journal (the repository-backed store — every entry is a
logical file in the NEESgrid repository), kills the live scheduler
incarnation three times mid-flight, and witnesses the four properties
the queue exists to provide:

1. **At-least-once redelivery** — every submission reaches a journaled
   terminal state despite the crashes: each successor incarnation
   replays the journal and re-drives claimed-but-unterminated work.
2. **Exactly-once execution** — zero duplicate executes across every
   leased site, and a deliberately resubmitted submission id is deduped
   rather than run twice.
3. **Fencing** — each crashed incarnation's epoch is refused at least
   once on a durable write path (the zombie really did try), and no
   stale epoch was ever accepted.
4. **Bit-exactness** — the committed displacement history of every run
   equals the same campaign run with no crashes at all: recovery through
   checkpoints on disjoint sites changes nothing numerically.

Run as a script (``make bench-queue``) it emits the document
``BENCH_tqueue.json`` at the repo root; under pytest (``make
bench-figures``) ``bench_tqueue`` is the short mode.  Either way the
floors are the ``tqueue`` row of ``_report.BENCHES`` — this module builds
the document and judges nothing.  Every figure is *simulated* seconds on
the deterministic kernel, so the document is bit-identical run to run —
safe to commit and diff.
"""

import pathlib

import numpy as np

from repro.chaos import make_scheduler_crash_plan
from repro.fleet import (
    SitePool,
    TenantRegistry,
    build_fleet_grid,
    tenant_sweep,
)
from repro.queue import (
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
    attach_durable_repository,
    run_durable_campaign,
)

from _report import (
    BENCH_SCHEMA_ID,
    check_bench,
    write_bench,
    write_metrics,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DOC = REPO_ROOT / "BENCH_tqueue.json"


def _run_campaign(submissions, *, n_sites: int, crash_times=(),
                  takeover_delay: float = 30.0, durable: bool = True):
    """One campaign on a fresh grid; returns (result, journal, kernel)."""
    grid = build_fleet_grid(n_sites)
    pool = SitePool(grid.kernel, grid.sites.values())
    registry = TenantRegistry(grid)
    store = (attach_durable_repository(grid, name="tqueue")
             if durable else InMemoryJournalStore())
    queue = ExperimentQueue(grid.kernel, store,
                            FencingAuthority(grid.kernel))
    result = run_durable_campaign(
        grid, pool, registry, queue, submissions,
        crash_after=tuple(crash_times), takeover_delay=takeover_delay)
    return result, store, grid.kernel


def run_queue_campaign(*, n_sites: int = 8, n_tenants: int = 12,
                       runs_per_tenant: int = 5, n_steps: int = 20,
                       checkpoint_every: int = 5, n_crashes: int = 3,
                       takeover_delay: float = 25.0,
                       seed: int = 11) -> tuple:
    """Run crashed + uncrashed campaigns; return (document, telemetry)."""
    # T-FLEET's sweep, one site per lease, so the two benches exercise
    # the same physics.
    submissions = tenant_sweep(n_tenants, runs_per_tenant, n_steps=n_steps,
                               n_sites=1, checkpoint_every=checkpoint_every)

    # The uncrashed reference: same submissions, one incarnation, fast
    # in-memory journal.  Its histories are the bit-exactness oracle and
    # its duration bounds the seeded crash window below.
    baseline, _, _ = _run_campaign(submissions, n_sites=n_sites,
                                   durable=False)
    base_histories = baseline.histories()
    duration = baseline.summary()["duration"]

    # Seeded mid-flight kill times, counted from each incarnation's
    # drain start.  The window is bounded well below the uncrashed
    # duration: a zombie keeps (validly) working until its successor
    # registers, so each crash + takeover consumes queue progress — the
    # window must leave every later incarnation real in-flight work to
    # inherit, or a crash would land on an idle scheduler and fence
    # nothing.
    crash_times = make_scheduler_crash_plan(
        seed, n_crashes=n_crashes,
        window=(0.03 * duration, 0.10 * duration))

    # The crashed campaign proper, on the repository-backed journal —
    # with one submission deliberately submitted twice to witness dedupe.
    resubmitted = submissions + [submissions[0]]
    result, store, kernel = _run_campaign(
        resubmitted, n_sites=n_sites, crash_times=crash_times,
        takeover_delay=takeover_delay)
    summary = result.summary()

    n_submissions = len(submissions)
    by_epoch = result.fencing["refusals_by_epoch"]
    unrefused = [epoch for epoch in range(1, len(crash_times) + 1)
                 if by_epoch.get(epoch, 0) < 1]
    refusal_paths = sorted({r["path"] for r in result.fencing["refusals"]})
    histories = result.histories()
    mismatches = [run_id for run_id, base in base_histories.items()
                  if not np.array_equal(histories.get(run_id), base)]

    payload = {
        "schema": BENCH_SCHEMA_ID,
        "experiment": "tqueue",
        "config": {"n_sites": n_sites, "n_tenants": n_tenants,
                   "runs_per_tenant": runs_per_tenant,
                   "n_submissions": n_submissions, "n_steps": n_steps,
                   "checkpoint_every": checkpoint_every, "seed": seed,
                   "crash_times": [round(t, 3) for t in crash_times],
                   "takeover_delay": takeover_delay},
        "campaign": {"completed": summary["completed"],
                     "failed": summary["failed"],
                     "outstanding": summary["outstanding"],
                     "redeliveries": summary["redeliveries"],
                     "voided": summary["voided"],
                     "incarnations": summary["incarnations"],
                     "final_epoch": summary["final_epoch"],
                     "journal_entries": store.appended,
                     "duration": summary["duration"]},
        "fencing": {"refusals": summary["refusals"],
                    "stale_accepts": summary["stale_accepts"],
                    "refusals_by_epoch": {str(epoch): count for epoch, count
                                          in sorted(by_epoch.items())},
                    "refusal_paths": refusal_paths,
                    "every_crash_epoch_refused": not unrefused},
        "exactness": {"duplicate_executes": summary["duplicate_executes"],
                      "runs_checked": len(base_histories),
                      "resubmit_deduped":
                          summary["submissions"] == n_submissions,
                      "bit_exact_vs_uncrashed": not mismatches},
    }
    return payload, kernel.telemetry


def _queue_report(payload: dict) -> list[str]:
    config = payload["config"]
    campaign = payload["campaign"]
    fencing = payload["fencing"]
    exact = payload["exactness"]
    crash_list = ", ".join(f"{t:.1f}" for t in config["crash_times"])
    lines = [
        "Durable queue campaign surviving scheduler crashes",
        "",
        f"    {config['n_submissions']} submissions "
        f"({config['n_tenants']} tenants x {config['runs_per_tenant']} "
        f"runs, {config['n_steps']} steps each) over "
        f"{config['n_sites']} shared sites; scheduler killed at "
        f"[{crash_list}] s into each incarnation (seed {config['seed']})",
        "",
        f"    completed           : {campaign['completed']:>10d} "
        f"({campaign['failed']} failed, "
        f"{campaign['outstanding']} outstanding)",
        f"    incarnations        : {campaign['incarnations']:>10d} "
        f"(final epoch {campaign['final_epoch']})",
        f"    journal entries     : {campaign['journal_entries']:>10d} "
        f"({campaign['voided']} zombie entries voided on replay)",
        f"    redeliveries        : {campaign['redeliveries']:>10d}",
        f"    fencing refusals    : {fencing['refusals']:>10d} "
        f"(stale accepts: {fencing['stale_accepts']})",
        f"    refused per epoch   : " + ", ".join(
            f"e{epoch}:{count}"
            for epoch, count in fencing["refusals_by_epoch"].items()),
        f"    refusal write paths : " + ", ".join(fencing["refusal_paths"]),
        f"    duplicate executes  : {exact['duplicate_executes']:>10d} "
        "(exactly-once held)",
        f"    resubmit deduped    : {str(exact['resubmit_deduped']):>10}",
        f"    bit-exact recovery  : "
        f"{str(exact['bit_exact_vs_uncrashed']):>10} "
        f"({exact['runs_checked']} histories vs the uncrashed run)",
        f"    campaign duration   : {campaign['duration']:>10.1f} s "
        "(simulated)",
    ]
    return lines


def bench_tqueue():
    payload, hub = run_queue_campaign(n_sites=4, n_tenants=4,
                                      runs_per_tenant=3, n_steps=10,
                                      n_crashes=2, takeover_delay=8.0)
    check_bench(payload, committed=False)
    write_metrics("tqueue", hub)
    write_report("tqueue", _queue_report(payload))


def main() -> int:
    """``make bench-queue``: the full campaign, written to the repo root."""
    payload, hub = run_queue_campaign()
    print("\n".join(_queue_report(payload)))
    write_bench(BENCH_DOC, payload, committed=True)
    write_metrics("tqueue", hub)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
