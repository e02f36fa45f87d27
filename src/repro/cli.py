"""Command-line interface: ``python -m repro <command>``.

Subcommands map to the experiments a user most often wants to replay:

* ``most`` — run a MOST scenario (dry/public/ft/sim-only) and print the
  §3.4-style summary row;
* ``resume`` — the public run with checkpoints: abort at the fatal step,
  reconcile, resume, and verify the merged histories;
* ``monitor`` — run MOST under the live operations console: health SDEs,
  streamed metrics, anomaly alerts (with injected faults by default), and
  the critical-path blame table;
* ``chaos`` — run a seeded chaos campaign: randomized fault schedules
  over the full assembly, protocol-invariant verdicts per seed;
* ``fleet`` — run a multi-tenant campaign over a shared site pool:
  fair-share leases, per-tenant GSI identity, optional seeded outages;
* ``observatory`` — run MOST with the grid observatory attached and dump
  the time-series store, then ``query``/``postmortem`` the dump offline;
* ``queue`` — the durable experiment queue: ``submit`` appends to a
  write-ahead journal file, ``status`` replays it, ``drain`` runs every
  outstanding submission through the crash-recoverable fleet scheduler
  (optionally killing incarnations mid-flight to demonstrate fenced
  recovery);
* ``mini-most`` — run the tabletop rig (optionally on the kinetic
  simulator);
* ``followon`` — run one of the §5 experiments;
* ``info`` — print the library's subsystem inventory.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.util.errors import ConfigurationError, ReproError


def _config(args: argparse.Namespace):
    """The MOST configuration shortened to ``--steps``."""
    from repro.most import MOSTConfig

    return MOSTConfig().scaled(args.steps)


def _status(result) -> str:
    """How a run ended, for a subcommand's headline."""
    return ("completed" if result.completed else
            f"exited prematurely at step {result.aborted_at_step}")


def _cmd_most(args: argparse.Namespace) -> int:
    from repro.most import ExperimentSession

    builders = {
        "dry": lambda c: ExperimentSession(c, run_id="most-dry"),
        "public": lambda c: (ExperimentSession(c, run_id="most-public")
                             .with_observers()
                             .with_faults()),
        "ft": lambda c: (ExperimentSession(c, run_id="most-ft")
                         .with_metadata(False)
                         .with_faults()
                         .with_fault_tolerance()),
        "sim-only": lambda c: ExperimentSession(c, run_id="most-simonly",
                                                simulation_only=True),
    }
    config = _config(args)
    report = builders[args.scenario](config).run()
    r = report.result
    print(f"MOST {args.scenario}: {r.steps_completed}/{r.target_steps} "
          f"steps, {_status(r)}")
    print(f"  simulated wall time : {r.wall_duration / 3600:.2f} h "
          f"({float(np.mean(r.step_durations())) if r.steps else 0:.1f} "
          "s/step)")
    print(f"  NTCP retransmissions: {report.ntcp_retries}; "
          f"step-level recoveries: {r.recoveries}")
    if report.chef_peak_online:
        print(f"  remote participants : {report.chef_peak_online}")
    print(f"  data files archived : {report.files_ingested}")
    if args.plot and r.steps:
        from repro.viz import sparkline

        print("  roof drift          : "
              + sparkline(r.displacement_history().ravel(), width=60))
    return 0 if (r.completed or args.scenario == "public") else 1


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.most import ExperimentSession

    config = _config(args)
    report = (ExperimentSession(config, run_id=args.run_id)
              .with_faults()
              .with_resume(checkpoint_every=args.checkpoint_every)
              .run())
    r = report.result
    aborted = report.aborted_result
    if aborted is not None:
        print(f"MOST resume ({args.run_id}): aborted at step "
              f"{aborted.aborted_at_step} with {aborted.steps_completed} "
              "steps committed")
    else:
        print(f"MOST resume ({args.run_id}): first incarnation never "
              "aborted; nothing to reconcile")
    if report.reconciliation is not None:
        for line in report.reconciliation.rows():
            print(f"  {line}")
    print(f"  merged result       : {r.steps_completed}/{r.target_steps} "
          f"steps, {_status(r)}")
    print(f"  checkpoints written : {report.checkpoints}")
    print(f"  NTCP retransmissions: {report.ntcp_retries}; "
          f"step-level recoveries: {r.recoveries}")
    return 0 if r.completed else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.most import ExperimentSession

    config = _config(args)

    def feed(alert) -> None:
        site = f" site={alert.site}" if alert.site else ""
        print(f"  [{alert.time:9.1f}s] {alert.severity.upper():<8} "
              f"{alert.kind}{site}: {alert.message}")

    inject = not args.clean
    print(f"MOST monitored run ({'faulted' if inject else 'clean'}), "
          f"{config.n_steps} steps — live alert feed:")
    session = (ExperimentSession(config, run_id="most-monitored")
               .with_fault_tolerance()
               .with_monitoring(on_alert=feed))
    if inject:
        session.with_anomalies()
    report = session.run()
    r = report.result
    alerts = report.alerts
    rollups = report.rollups
    if not alerts:
        print("  (no alerts)")
    print(f"MOST monitored: {r.steps_completed}/{r.target_steps} steps, "
          f"{_status(r)}")
    print(f"  alerts raised       : {len(alerts)}")
    stream = rollups.get("stream") or {}
    print(f"  metric samples seen : {stream.get('received', 0)} "
          f"(gaps: {stream.get('gaps', 0)})")
    health = ", ".join(f"{src}={st}" for src, st
                       in sorted(rollups.get("health", {}).items()))
    print(f"  final health        : {health}")
    if args.critical_path:
        from repro.monitor import critical_path_report

        print(critical_path_report(
            report.deployment.kernel.telemetry.tracer.finished))
    return 0 if r.completed else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import ChaosCampaign

    config = _config(args)
    campaign = ChaosCampaign(config, n_events=args.events,
                             force_failover=args.force_failover,
                             failover=not args.no_failover,
                             monitor=args.monitor)
    mode = ", forcing failover" if args.force_failover else ""
    print(f"chaos campaign: seeds {args.seeds}, {config.n_steps} steps, "
          f"{args.events} event(s)/seed{mode}")
    reports = campaign.run(args.seeds)
    for report in reports:
        r = report.result
        inv = report.invariants
        verdict = "OK" if report.ok else "VIOLATED"
        print(f"  seed {report.seed:>4}: {r.steps_completed}/"
              f"{r.target_steps} steps, recoveries={r.recoveries}, "
              f"degraded_steps={inv['degraded_steps']}, "
              f"duplicate_executes={inv['duplicate_executes']} — {verdict}")
        if args.schedule:
            for event in report.plan.describe():
                print(f"      {event['kind']:<14} step {event['step']:>5}  "
                      f"site {event['site']}")
        for violation in inv["violations"]:
            print(f"      ! {violation}")
        for kind, severity, site, step in report.alerts:
            where = f" site={site}" if site else ""
            print(f"      alert {severity}/{kind}{where} at step {step}")
    if args.json:
        print(json.dumps([report.row() for report in reports], indent=2,
                         sort_keys=True))
    return 0 if all(report.ok for report in reports) else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import (
        arm_fleet_outages,
        check_fleet_invariants,
        make_fleet_outage_plan,
    )
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
        run_durable_campaign,
    )

    grid = build_fleet_grid(args.sites)
    pool = SitePool(grid.kernel, grid.sites.values())
    pool.validate_request(args.sites_per_lease)
    registry = TenantRegistry(grid)
    submissions = tenant_sweep(
        args.tenants, args.runs, n_steps=args.steps,
        n_sites=args.sites_per_lease,
        degradation=args.outages > 0 and not args.no_failover)
    plan = None
    if args.outages > 0:
        plan = make_fleet_outage_plan(args.seed, sorted(grid.sites),
                                      n_events=args.outages)
        arm_fleet_outages(grid, plan)
    n = args.tenants * args.runs
    faulted = (f", {len(plan)} seeded outages (seed {args.seed})"
               if plan else "")
    print(f"fleet campaign: {n} experiments ({args.tenants} tenants x "
          f"{args.runs} runs, {args.steps} steps) over {args.sites} "
          f"shared sites{faulted}")
    queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                            FencingAuthority(grid.kernel))
    result = run_durable_campaign(grid, pool, registry, queue, submissions,
                                  settle_delay=0.0)
    summary = result.summary()
    verdict = check_fleet_invariants(result.outcomes,
                                     expect_completion=not plan)
    print(f"  completed           : {summary['completed']}/{n}")
    print(f"  campaign duration   : {summary['duration']:.1f} s (simulated)")
    print(f"  peak queue depth    : {summary['peak_queue_depth']}")
    print(f"  lease wait max/mean : {summary['lease_wait_max']:.1f} / "
          f"{summary['lease_wait_mean']:.1f} s")
    print(f"  fairness ratio      : {summary['completion_ratio']:.2f} "
          "(max/min tenant completion time)")
    print(f"  duplicate executes  : {verdict['duplicate_executes']} "
          "absorbed (at-most-once held)")
    print(f"  invariants          : "
          f"{'OK' if verdict['ok'] else 'VIOLATED'}")
    for violation in verdict["violations"]:
        print(f"      ! {violation}")
    if args.table:
        print(f"  {'tenant':<8}{'runs':>6}{'steps':>7}{'wait max [s]':>14}"
              f"{'degraded':>10}")
        for tenant, stats in sorted(result.per_tenant().items()):
            print(f"  {tenant:<8}{stats['runs']:>6}{stats['steps']:>7}"
                  f"{stats['lease_wait_max']:>14.1f}"
                  f"{stats['degraded_runs']:>10}")
    if args.json:
        doc = {"summary": summary, "tenants": result.per_tenant(),
               "invariants": verdict}
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    return 0 if verdict["ok"] else 1


def _open_file_queue(path: str):
    """A file-journal-backed queue on a fresh kernel (the CLI's view)."""
    from repro.queue import ExperimentQueue, FencingAuthority, \
        FileJournalStore
    from repro.sim import Kernel

    kernel = Kernel()
    authority = FencingAuthority(kernel)
    queue = ExperimentQueue(kernel, FileJournalStore(path), authority)
    return kernel, queue


def _cmd_queue_submit(args: argparse.Namespace) -> int:
    from repro.queue import QueueSubmission

    kernel, queue = _open_file_queue(args.journal)
    submission = QueueSubmission(
        submission_id=args.submission_id, tenant=args.tenant,
        run_id=args.run_id, n_steps=args.steps,
        n_sites=args.sites_per_lease, motion_scale=args.motion_scale,
        checkpoint_every=args.checkpoint_every)

    def driver():
        yield from queue.recover()
        known = queue.stats()["submitted"]
        body = yield from queue.submit(submission)
        return body, queue.stats()["submitted"] == known

    body, deduped = kernel.run(
        until=kernel.process(driver(), name="queue.cli.submit"))
    if deduped:
        print(f"deduped: {body['submission_id']} already journaled "
              f"(tenant {body['tenant']}, run {body['run_id']})")
    else:
        print(f"queued {body['submission_id']}: tenant {body['tenant']}, "
              f"run {body['run_id']}, {body['n_steps']} steps x "
              f"{body['n_sites']} site(s), "
              f"checkpoint every {body['checkpoint_every'] or '-'}")
    print(f"  journal: {args.journal} "
          f"({queue.stats()['outstanding']} outstanding)")
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    import json

    kernel, queue = _open_file_queue(args.journal)
    kernel.run(until=kernel.process(queue.recover(),
                                    name="queue.cli.status"))
    stats = queue.stats()
    if args.json:
        doc = dict(stats)
        doc["outstanding_submissions"] = [
            {"submission_id": s.submission_id, "tenant": s.tenant,
             "run_id": s.run_id,
             "attempts": queue.attempts(s.submission_id)}
            for s in queue.outstanding()]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"queue journal {args.journal}:")
    print(f"  submitted           : {stats['submitted']}")
    print(f"  outstanding         : {stats['outstanding']}")
    print(f"  completed / failed  : {stats['completed']} / "
          f"{stats['failed']}")
    print(f"  claims              : {stats['claims']} "
          f"({stats['redeliveries']} redeliveries)")
    print(f"  fencing epoch       : {stats['epoch']} "
          f"({stats['voided']} zombie entries voided)")
    for submission in queue.outstanding():
        attempts = queue.attempts(submission.submission_id)
        state = (f"claimed x{attempts}" if attempts else "unclaimed")
        print(f"    {submission.submission_id:<20} "
              f"tenant {submission.tenant:<8} "
              f"{submission.n_steps:>5} steps  {state}")
    return 0


def _cmd_queue_drain(args: argparse.Namespace) -> int:
    import json

    from repro.chaos import check_fleet_invariants
    from repro.fleet import SitePool, TenantRegistry, build_fleet_grid
    from repro.queue import (
        ExperimentQueue,
        FencingAuthority,
        FileJournalStore,
        run_durable_campaign,
    )

    grid = build_fleet_grid(args.sites)
    pool = SitePool(grid.kernel, grid.sites.values())
    registry = TenantRegistry(grid)
    authority = FencingAuthority(grid.kernel)
    queue = ExperimentQueue(grid.kernel, FileJournalStore(args.journal),
                            authority)
    # Pre-replay so the authority observes epochs a *previous* drain
    # journaled: the first incarnation below must register a fresh epoch
    # above every epoch already in the log, or its own writes would be
    # voided as stale on the next replay.
    grid.kernel.run(until=grid.kernel.process(queue.recover(),
                                              name="queue.cli.bootstrap"))
    outstanding = queue.depth()
    crashes = tuple(args.crash_after or ())
    print(f"draining {args.journal}: {outstanding} outstanding over "
          f"{args.sites} sites, {len(crashes)} scheduled scheduler "
          f"crash(es)")
    result = run_durable_campaign(
        grid, pool, registry, queue, [], crash_after=crashes,
        takeover_delay=args.takeover_delay)
    summary = result.summary()
    print(f"  completed           : {summary['completed']}"
          f"/{summary['submissions']}"
          f" ({summary['failed']} failed, "
          f"{summary['outstanding']} still outstanding)")
    print(f"  incarnations        : {summary['incarnations']} "
          f"(final epoch {summary['final_epoch']})")
    print(f"  redeliveries        : {summary['redeliveries']}; "
          f"zombie writes refused: {summary['refusals']}, "
          f"voided in journal: {summary['voided']}")
    print(f"  duplicate executes  : {summary['duplicate_executes']} "
          f"(stale accepts: {summary['stale_accepts']})")
    print(f"  campaign duration   : {summary['duration']:.1f} s "
          "(simulated)")
    verdict = check_fleet_invariants(result.outcomes, fencing=result.fencing)
    for violation in verdict["violations"]:
        print(f"      ! {violation}")
    if args.json:
        print(json.dumps({"summary": summary,
                          "incarnations": result.incarnations,
                          "queue": result.queue_stats},
                         indent=2, sort_keys=True, default=str))
    return 0 if verdict["ok"] else 1


def _load_dump(path: str):
    import json

    from repro.observatory.schema import ObservatorySchemaError, validate_dump

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # torn JSON or bytes that are not UTF-8
        raise ObservatorySchemaError(
            f"{path}: not a JSON dump: {exc}") from exc
    validate_dump(doc)
    return doc


def _cmd_observatory_run(args: argparse.Namespace) -> int:
    import json

    from repro.most import ExperimentSession

    config = _config(args)
    session = (ExperimentSession(config, run_id=args.run_id,
                                 simulation_only=True)
               .with_observatory())
    if args.abort:
        session.with_faults(outage_duration=float("inf"))
    else:
        session.with_fault_tolerance()
    report = session.run()
    obs = report.observatory
    r = report.result
    print(f"MOST observed run ({args.run_id}): "
          f"{r.steps_completed}/{r.target_steps} steps, {_status(r)}")
    stats = obs.store.stats()
    print(f"  series stored       : {stats['series']} "
          f"({stats['points']} points from "
          f"{stats['samples_ingested']} stream samples)")
    for status_row in obs.slo.evaluate_quiet():
        print(f"  SLO {status_row['name']:<18}: "
              f"budget {status_row['budget_remaining']:.0%} remaining, "
              f"{int(status_row['bad'])}/{int(status_row['events'])} bad")
    print(f"  flight snapshots    : {len(obs.recorder.snapshots)}")
    dump = obs.dump()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dump, indent=2, sort_keys=True) + "\n")
    print(f"  store dumped        : {args.out}")
    return 0 if (r.completed or args.abort) else 1


def _non_negative(option: str, value: int) -> int:
    """A count option's value; a negative one is a typed error."""
    if value < 0:
        raise ConfigurationError(f"{option} must be at least 0, got {value}")
    return value


def _cmd_observatory_query(args: argparse.Namespace) -> int:
    import json

    from repro.observatory.query import run_query
    from repro.observatory.tsdb import TimeSeriesStore

    show_points = _non_negative("--show-points", args.show_points)
    doc = _load_dump(args.store)
    store = TimeSeriesStore.from_records(doc["series"])
    selector = {}
    for pair in args.label:
        if "=" not in pair:
            print(f"error: --label takes key=value, got {pair!r}",
                  file=sys.stderr)
            return 2
        key, _, value = pair.partition("=")
        selector[key] = value
    request = {"metric": args.metric, "selector": selector,
               "start": args.start, "tier": args.tier, "page": args.page,
               "page_size": args.page_size}
    if args.end is not None:
        request["end"] = args.end
    if args.agg is not None:
        request["agg"] = args.agg
    if args.quantile is not None:
        request["quantile"] = args.quantile
    result = run_query(store, request, now=doc["time"])
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    print(f"{result['query']['metric']}  tier={result['tier']}  "
          f"series {len(result['series'])}/{result['total_series']} "
          f"(page {result['page']}/{result['pages']})")
    for entry in result["series"]:
        labels = ",".join(f"{k}={v}"
                          for k, v in sorted(entry["labels"].items()))
        suffix = ""
        if entry["aggregate"] is not None:
            agg = entry["aggregate"]
            suffix = f"  {agg['op']}={agg['value']:.6g} (n={agg['count']})"
        more = " ..." if entry["truncated"] else ""
        print(f"  {{{labels}}}  {len(entry['points'])} points{more}{suffix}")
        for t, v in entry["points"][-show_points:] if show_points else ():
            print(f"    {t:>12.3f}  {v:.6g}")
    if result["aggregate"] is not None:
        agg = result["aggregate"]
        print(f"  combined {agg['op']} = {agg['value']:.6g} "
              f"over {agg['count']} points")
    return 0


def _cmd_observatory_postmortem(args: argparse.Namespace) -> int:
    from repro.observatory.recorder import postmortem_timeline

    last_steps = _non_negative("--last-steps", args.last_steps)
    doc = _load_dump(args.store)
    wanted = [snap for snap in doc["snapshots"]
              if snap["run_id"] == args.run_id]
    if not wanted:
        recorded = sorted({snap["run_id"] for snap in doc["snapshots"]})
        print(f"error: no flight snapshot for run {args.run_id!r} in "
              f"{args.store} (recorded: {recorded or 'none'})",
              file=sys.stderr)
        return 1
    print(postmortem_timeline(wanted[-1], last_steps=last_steps))
    return 0


def _cmd_mini_most(args: argparse.Namespace) -> int:
    from repro.mini_most import MiniMOSTConfig, run_mini_most

    config = MiniMOSTConfig(n_steps=args.steps)
    result, dep = run_mini_most(
        config, use_kinetic_simulator=args.kinetic)
    mode = "kinetic simulator" if args.kinetic else "stepper rig"
    print(f"Mini-MOST ({mode}): {result.steps_completed}/"
          f"{result.target_steps} steps")
    print(f"  peak tip displacement: "
          f"{1e3 * result.summary()['peak_displacement']:.2f} mm")
    if not args.kinetic:
        print(f"  motor steps moved    : {dep.motor.total_steps_moved}")
    if args.plot and result.steps:
        from repro.viz import sparkline

        print("  tip displacement     : "
              + sparkline(result.displacement_history().ravel(), width=60))
    return 0 if result.completed else 1


def _cmd_followon(args: argparse.Namespace) -> int:
    if args.experiment == "soil-structure":
        from repro.followon import SoilStructureConfig, \
            run_soil_structure_experiment

        result, rig = run_soil_structure_experiment(
            SoilStructureConfig(n_steps=args.steps))
        print(f"soil-structure (CD-36): {result.steps_completed} steps, "
              f"completed={result.completed}")
        return 0 if result.completed else 1
    if args.experiment == "field-test":
        from repro.followon import FieldTestConfig, run_field_test

        rep = run_field_test(FieldTestConfig())
        print(f"UCLA field test: {rep.samples_received}/{rep.samples_sent} "
              f"samples ({100 * rep.wifi_loss_fraction:.0f}% wifi loss), "
              f"{rep.files_uploaded_via_satellite} files via satellite")
        return 0
    if args.experiment == "robot":
        from repro.followon import run_robot_survey

        survey, _ = run_robot_survey()
        for tag in ("initial", "after-shaking", "after-improvement"):
            vs = float(np.mean(list(survey["phases"][tag].values())))
            print(f"  Vs {tag:<18}: {vs:6.1f} m/s")
        return 0
    from repro.followon import run_six_dof_loading

    records, _ = run_six_dof_loading()
    stills = sum(len(r["images"]) for r in records)
    print(f"six-DOF: {len(records)} poses, {stills} stills captured")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — NEESgrid/MOST reproduction "
          "(HPDC-13, 2004)")
    inventory = [
        ("repro.sim", "discrete-event kernel"),
        ("repro.net", "simulated WAN + RPC + fault injection"),
        ("repro.gsi", "GSI security: CA, proxies, gridmap, CAS"),
        ("repro.ogsi", "OGSI container: SDEs, soft state, notifications"),
        ("repro.structural", "PSD numerics, specimens, ground motions"),
        ("repro.core", "NTCP (the paper's contribution)"),
        ("repro.control", "site plugins: Shore-Western/MPlugin/xPC/LabVIEW"),
        ("repro.daq / nsds / repository", "data acquisition -> streaming "
         "-> archive"),
        ("repro.telepresence / chef", "cameras, referral, portal, viewers"),
        ("repro.coordinator / most / mini_most", "MS-PSDS + experiments"),
        ("repro.followon", "the four §5 planned experiments"),
    ]
    for module, what in inventory:
        print(f"  {module:<36} {what}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NEESgrid/MOST reproduction — distributed hybrid "
                    "earthquake engineering experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_most = sub.add_parser("most", help="run a MOST scenario (§3.4)")
    p_most.add_argument("scenario",
                        choices=["dry", "public", "ft", "sim-only"])
    p_most.add_argument("--steps", type=int, default=1500,
                        help="record length (default: the paper's 1500)")
    p_most.add_argument("--plot", action="store_true",
                        help="sparkline the response")
    p_most.set_defaults(fn=_cmd_most)

    p_resume = sub.add_parser(
        "resume", help="abort the public run, then resume from checkpoints")
    p_resume.add_argument("run_id", nargs="?", default="most-resume",
                          help="experiment run id (default: most-resume)")
    p_resume.add_argument("--steps", type=int, default=1500,
                          help="record length (default: the paper's 1500)")
    p_resume.add_argument("--checkpoint-every", type=int, default=25,
                          help="checkpoint period in steps (default: 25)")
    p_resume.set_defaults(fn=_cmd_resume)

    p_mon = sub.add_parser(
        "monitor", help="run MOST under the live operations console")
    p_mon.add_argument("--steps", type=int, default=1500,
                       help="record length (default: the paper's 1500)")
    p_mon.add_argument("--clean", action="store_true",
                       help="skip fault injection (expect zero alerts)")
    p_mon.add_argument("--critical-path", action="store_true",
                       help="print the per-site blame table afterwards")
    p_mon.set_defaults(fn=_cmd_monitor)

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded chaos campaign with invariant checks")
    p_chaos.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3],
                         help="campaign seeds (default: 1 2 3)")
    p_chaos.add_argument("--steps", type=int, default=1500,
                         help="record length (default: the paper's 1500)")
    p_chaos.add_argument("--events", type=int, default=5,
                         help="fault events per seed (default: 5)")
    p_chaos.add_argument("--force-failover", action="store_true",
                         help="end each schedule in a permanent outage so "
                              "only surrogate failover can finish the run")
    p_chaos.add_argument("--no-failover", action="store_true",
                         help="run without breakers/surrogates (faults "
                              "must be survivable by retries alone)")
    p_chaos.add_argument("--monitor", action="store_true",
                         help="attach the operations console; print alerts")
    p_chaos.add_argument("--schedule", action="store_true",
                         help="print each seed's fault schedule")
    p_chaos.add_argument("--json", action="store_true",
                         help="dump the full campaign report as JSON")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_fleet = sub.add_parser(
        "fleet", help="run a multi-tenant campaign over a shared site pool")
    p_fleet.add_argument("--tenants", type=int, default=4,
                         help="number of tenants (default: 4)")
    p_fleet.add_argument("--runs", type=int, default=3,
                         help="experiments per tenant (default: 3)")
    p_fleet.add_argument("--steps", type=int, default=10,
                         help="steps per experiment (default: 10)")
    p_fleet.add_argument("--sites", type=int, default=4,
                         help="shared pool size (default: 4)")
    p_fleet.add_argument("--sites-per-lease", type=int, default=2,
                         help="sites each experiment leases (default: 2)")
    p_fleet.add_argument("--outages", type=int, default=0,
                         help="seeded shared-site outages to inject "
                              "(default: 0)")
    p_fleet.add_argument("--seed", type=int, default=7,
                         help="outage plan seed (default: 7)")
    p_fleet.add_argument("--no-failover", action="store_true",
                         help="with outages, rely on retries alone "
                              "(no breakers/surrogates)")
    p_fleet.add_argument("--table", action="store_true",
                         help="print the per-tenant roll-up table")
    p_fleet.add_argument("--json", action="store_true",
                         help="dump the campaign report as JSON")
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_obs = sub.add_parser(
        "observatory",
        help="durable operational history: run, query, postmortem")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_obs_run = obs_sub.add_parser(
        "run", help="run MOST with the observatory attached; dump the store")
    p_obs_run.add_argument("run_id", nargs="?", default="most-obs",
                           help="experiment run id (default: most-obs)")
    p_obs_run.add_argument("--steps", type=int, default=1500,
                           help="record length (default: the paper's 1500)")
    p_obs_run.add_argument("--abort", action="store_true",
                           help="arm the fatal-step outage with no retry "
                                "policy, so the run aborts and the flight "
                                "recorder snapshots the incident")
    p_obs_run.add_argument("--out", default="observatory.json",
                           help="dump file (default: observatory.json)")
    p_obs_run.set_defaults(fn=_cmd_observatory_run)

    p_obs_query = obs_sub.add_parser(
        "query", help="range-query a dumped time-series store")
    p_obs_query.add_argument("metric", help="exact metric name")
    p_obs_query.add_argument("--store", default="observatory.json",
                             help="dump file (default: observatory.json)")
    p_obs_query.add_argument("--label", action="append", default=[],
                             metavar="KEY=VALUE",
                             help="label-equality selector (repeatable)")
    p_obs_query.add_argument("--agg",
                             choices=["count", "sum", "avg", "min", "max",
                                      "rate", "quantile"],
                             help="aggregate across the window")
    p_obs_query.add_argument("--quantile", type=float,
                             help="percentile for --agg quantile (0-100)")
    p_obs_query.add_argument("--start", type=float, default=0.0,
                             help="window start, sim-seconds (default: 0)")
    p_obs_query.add_argument("--end", type=float,
                             help="window end (default: dump time)")
    p_obs_query.add_argument("--tier",
                             choices=["auto", "raw", "r10", "r100"],
                             default="auto",
                             help="downsampling tier (default: auto)")
    p_obs_query.add_argument("--page", type=int, default=1)
    p_obs_query.add_argument("--page-size", type=int, default=10)
    p_obs_query.add_argument("--show-points", type=int, default=5,
                             help="trailing points printed per series "
                                  "(default: 5)")
    p_obs_query.add_argument("--json", action="store_true",
                             help="print the full query_result document")
    p_obs_query.set_defaults(fn=_cmd_observatory_query)

    p_obs_pm = obs_sub.add_parser(
        "postmortem",
        help="render a run's flight-recorder incident timeline")
    p_obs_pm.add_argument("run_id", help="the aborted run's id")
    p_obs_pm.add_argument("--store", default="observatory.json",
                          help="dump file (default: observatory.json)")
    p_obs_pm.add_argument("--last-steps", type=int, default=5,
                          help="steps of history before the incident "
                               "(default: 5)")
    p_obs_pm.set_defaults(fn=_cmd_observatory_postmortem)

    p_queue = sub.add_parser(
        "queue",
        help="durable experiment queue: submit, status, drain")
    queue_sub = p_queue.add_subparsers(dest="queue_command", required=True)

    p_q_submit = queue_sub.add_parser(
        "submit", help="append one submission to the write-ahead journal")
    p_q_submit.add_argument("submission_id",
                            help="caller-chosen idempotency key")
    p_q_submit.add_argument("--journal", default="queue.jsonl",
                            help="journal file (default: queue.jsonl)")
    p_q_submit.add_argument("--tenant", default="cli",
                            help="owning tenant id (default: cli)")
    p_q_submit.add_argument("--run-id", default="",
                            help="run id (default: the submission id)")
    p_q_submit.add_argument("--steps", type=int, default=25,
                            help="steps per experiment (default: 25)")
    p_q_submit.add_argument("--sites-per-lease", type=int, default=1,
                            help="sites the run leases (default: 1)")
    p_q_submit.add_argument("--motion-scale", type=float, default=1.0,
                            help="ground-motion PGA scale (default: 1.0)")
    p_q_submit.add_argument("--checkpoint-every", type=int, default=5,
                            help="checkpoint period in steps, 0 to "
                                 "disable (default: 5)")
    p_q_submit.set_defaults(fn=_cmd_queue_submit)

    p_q_status = queue_sub.add_parser(
        "status", help="replay the journal and print queue state")
    p_q_status.add_argument("--journal", default="queue.jsonl",
                            help="journal file (default: queue.jsonl)")
    p_q_status.add_argument("--json", action="store_true",
                            help="print the stats document as JSON")
    p_q_status.set_defaults(fn=_cmd_queue_status)

    p_q_drain = queue_sub.add_parser(
        "drain", help="run every outstanding submission through the "
                      "crash-recoverable fleet scheduler")
    p_q_drain.add_argument("--journal", default="queue.jsonl",
                           help="journal file (default: queue.jsonl)")
    p_q_drain.add_argument("--sites", type=int, default=4,
                           help="shared pool size (default: 4)")
    p_q_drain.add_argument("--crash-after", type=float, action="append",
                           metavar="SECONDS",
                           help="kill the live scheduler incarnation after "
                                "this many simulated seconds (repeatable; "
                                "each crash adds a takeover)")
    p_q_drain.add_argument("--takeover-delay", type=float, default=30.0,
                           help="seconds before the successor incarnation "
                                "starts (default: 30)")
    p_q_drain.add_argument("--json", action="store_true",
                           help="dump the campaign report as JSON")
    p_q_drain.set_defaults(fn=_cmd_queue_drain)

    p_mini = sub.add_parser("mini-most", help="run Mini-MOST (§3.5)")
    p_mini.add_argument("--steps", type=int, default=200)
    p_mini.add_argument("--kinetic", action="store_true",
                        help="replace the beam with the kinetic simulator")
    p_mini.add_argument("--plot", action="store_true")
    p_mini.set_defaults(fn=_cmd_mini_most)

    p_follow = sub.add_parser("followon",
                              help="run a §5 follow-on experiment")
    p_follow.add_argument("experiment",
                          choices=["soil-structure", "field-test",
                                   "robot", "six-dof"])
    p_follow.add_argument("--steps", type=int, default=150)
    p_follow.set_defaults(fn=_cmd_followon)

    p_info = sub.add_parser("info", help="library inventory")
    p_info.set_defaults(fn=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. a postmortem piped into head
        return 0
    except ReproError as exc:  # a typed failure is a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
