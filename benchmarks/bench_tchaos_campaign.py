"""T-CHAOS — seeded chaos campaign: determinism and graceful degradation.

The paper's robustness evidence is one evening's anecdote: transient
interruptions absorbed by retransmission, then a long outage that ended
the public run at step 1493.  The chaos campaign generalises it into a
repeatable experiment over the full MOST assembly:

1. **Recoverable campaign** — three seeded fault schedules (drops,
   duplicates, reordering, corruption, jitter, crashes, bounded outages)
   that a fault-tolerant coordinator must ride out with every protocol
   invariant intact and the result **bit-exact** against a clean
   baseline (``np.array_equal``) — retries may change timing, never
   physics.
2. **Forced failover** — a schedule ending in the paper's permanent
   outage.  The breaker opens, the surrogate takes over, the monitor
   raises ``breaker_open``, and the run still commits every step with
   zero double-executions — the counterfactual to the 1493 abort.
3. **Determinism** — a second campaign instance reproduces every seed's
   full report row (schedule, alerts, verdicts, failover events)
   byte-for-byte: a failing seed is a bug report, not a flake.
"""

import json

from repro.chaos import ChaosCampaign
from repro.most import MOSTConfig

from _report import write_report

SCALE = 40
RECOVERABLE_SEEDS = (1, 2, 3)
FAILOVER_SEED = 7


def run_campaigns(config):
    recoverable = ChaosCampaign(config, n_events=3).run(RECOVERABLE_SEEDS)
    forced = ChaosCampaign(config, n_events=2, force_failover=True,
                           monitor=True).run_one(FAILOVER_SEED)
    return recoverable, forced


def bench_tchaos_campaign():
    config = MOSTConfig().scaled(SCALE)
    lines = [f"Seeded chaos campaign ({SCALE}-step MOST assembly)", ""]

    recoverable, forced = run_campaigns(config)

    lines.append("[1] recoverable campaign: invariants + bit-exactness")
    for report in recoverable:
        inv = report.invariants
        assert report.ok, inv["violations"]
        assert report.result.completed
        assert inv["degraded_steps"] == 0
        assert inv["checks"]["bit_exact_vs_baseline"]
        kinds = ",".join(sorted({e.kind for e in report.plan.events}))
        lines.append(
            f"    seed {report.seed}: "
            f"{report.result.steps_completed} steps, "
            f"recoveries={report.result.recoveries}, "
            f"faults=[{kinds}], bit-exact vs baseline")

    inv = forced.invariants
    assert forced.ok, inv["violations"]
    assert forced.result.completed
    assert inv["degraded_steps"] > 0
    assert inv["duplicate_executes"] == 0 or inv["checks"]["no_double_execute"]
    alert_kinds = {kind for kind, *_ in forced.alerts}
    assert "breaker_open" in alert_kinds
    lines += ["", "[2] forced failover: permanent outage near the fatal "
              "step",
              f"    seed {forced.seed}: "
              f"{forced.result.steps_completed}/"
              f"{forced.result.target_steps} steps completed, "
              f"degraded_steps={inv['degraded_steps']}",
              f"    double executions: 0 (at-most-once held through the "
              "surrogate swap)",
              f"    alerts: {sorted(alert_kinds)}"]
    for event in forced.failover_events:
        lines.append(f"    failover event: {json.dumps(event, sort_keys=True)}")

    again_recoverable, again_forced = run_campaigns(config)
    first_rows = [json.dumps(r.row(), sort_keys=True)
                  for r in recoverable + [forced]]
    second_rows = [json.dumps(r.row(), sort_keys=True)
                   for r in again_recoverable + [again_forced]]
    assert first_rows == second_rows, \
        "campaign rows must reproduce byte-for-byte per seed"
    lines += ["", "[3] determinism: second campaign instance reproduced "
              "every report row", "    (schedules, alerts, verdicts, and "
              "failover events are seed-pure)"]

    write_report("tchaos_campaign", lines)
