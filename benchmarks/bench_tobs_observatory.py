"""T-OBS — grid-observatory overhead, rollup fidelity, and the black box.

The observatory must be free to leave on: the repo-hosted store rides
the same NSDS metrics stream the console already publishes, the SLO
sweep runs on the simulation clock, and the flight recorder is one
more telemetry sink.  Measured on the simulation-only rehearsal and the
scripted abort campaign:

1. **Step-latency overhead** — the same 40-step run with monitoring
   only vs monitoring + observatory; the observed median step time must
   stay within 10% of the unobserved run.
2. **Rollup fidelity** — every finalized r10 bucket in the live store
   must agree with a recomputation from its own raw points
   (count/min/max/first/last exact, sum to float tolerance).
3. **Determinism** — two identical abort campaigns must produce
   byte-identical canonical query documents and byte-identical
   postmortem timelines (the store and recorder run on sim time).
4. **Black box** — the seeded mid-run abort must leave a flight
   snapshot whose rendered timeline names the faulted site and the
   aborted step.

``run_bench`` measures and builds the ``BENCH_tobs.json`` document; the
floors it must meet are the ``tobs`` row of ``_report.BENCHES``.
"""

import json
import math
import pathlib

from repro.monitor import attach_monitoring
from repro.most import ExperimentSession, MOSTConfig
from repro.most.assembly import build_simulation_only
from repro.observatory import attach_observatory

from _report import (
    BENCH_SCHEMA_ID,
    check_bench,
    write_bench,
    write_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DOC = REPO_ROOT / "BENCH_tobs.json"

N_STEPS = 40
SLO_INTERVAL = 30.0
STREAM_INTERVAL = 5.0  # flush often enough to finalize r10 buckets
OVERHEAD_BOUND = 0.10
FAULT_SITE = "uiuc"

# The canonical determinism probe.
CANONICAL_QUERY = {
    "metric": "coordinator.mspsds.step_time",
    "selector": {"stat": "p95"},
    "agg": "max",
}


def rehearsal_trial(*, observed: bool):
    """One 40-step rehearsal; returns (median step time, obs or None)."""
    dep = build_simulation_only(MOSTConfig().scaled(N_STEPS))
    dep.start_backends()
    kit = attach_monitoring(dep, stream_interval=STREAM_INTERVAL)
    run_id = "tobs-on" if observed else "tobs-off"
    obs = None
    if observed:
        obs = attach_observatory(dep, kit, run_id=run_id,
                                 slo_interval=SLO_INTERVAL)
    coord = dep.make_coordinator(run_id=run_id)
    kit.start()
    kit.watch_coordinator(coord)
    if obs is not None:
        obs.start()
    result = dep.kernel.run(until=dep.kernel.process(coord.run()))
    assert result.completed
    if obs is not None:
        obs.stop()
    kit.stop()
    dep.kernel.run(until=dep.kernel.now + 600.0)  # drain in-flight
    hist = dep.kernel.telemetry.registry.find(
        "coordinator.mspsds.step_time", run_id=run_id)
    return hist.percentile(50.0), obs


def check_rollups(store):
    """Recompute every finalized r10 bucket from its raw points.

    Only series whose raw ring has not evicted are comparable — once raw
    points age out, the rollup is the only surviving record.  Returns
    (series checked, all consistent).
    """
    checked = 0
    consistent = True
    for series in store.series():
        buckets = series.points("r10")
        if not buckets or series.evicted("raw"):
            continue
        raw = series.points("raw")
        checked += 1
        for i, bucket in enumerate(buckets):
            chunk = raw[i * 10:(i + 1) * 10]
            values = [value for _, value in chunk]
            ok = (bucket["count"] == len(values) == 10
                  and bucket["min"] == min(values)
                  and bucket["max"] == max(values)
                  and bucket["first"] == values[0]
                  and bucket["last"] == values[-1]
                  and bucket["start"] == chunk[0][0]
                  and bucket["end"] == chunk[-1][0]
                  and math.isclose(bucket["sum"], sum(values),
                                   rel_tol=1e-9, abs_tol=1e-12))
            consistent = consistent and ok
    return checked, consistent


def abort_campaign(run_id: str):
    """One scripted mid-run abort with the observatory attached."""
    outcome = (ExperimentSession(MOSTConfig().scaled(N_STEPS),
                                 run_id=run_id)
               .with_faults(outage_duration=float("inf"))
               .with_observatory(slo_interval=SLO_INTERVAL)
               .run())
    assert not outcome.result.completed
    obs = outcome.observatory
    doc = obs.query(dict(CANONICAL_QUERY))
    return (outcome, json.dumps(doc, sort_keys=True),
            obs.postmortem(run_id))


def run_bench():
    """The full T-OBS measurement: (document, observed store, report)."""
    lines = ["Grid-observatory overhead and fidelity "
             f"(simulation-only rehearsal, {N_STEPS} steps)", ""]
    off_p50, _ = rehearsal_trial(observed=False)
    on_p50, obs = rehearsal_trial(observed=True)
    overhead = (on_p50 - off_p50) / off_p50
    lines += ["[1] median step time, observatory off vs on",
              f"    observatory off: {off_p50:8.3f} s/step",
              f"    observatory on : {on_p50:8.3f} s/step "
              f"({overhead:+.2%})"]

    checked, consistent = check_rollups(obs.store)
    lines += ["", "[2] rollup fidelity (r10 recomputed from raw)",
              f"    series checked : {checked}",
              f"    consistent     : {consistent}"]

    first = abort_campaign("tobs-abort")
    second = abort_campaign("tobs-abort")
    query_identical = first[1] == second[1]
    postmortem_identical = first[2] == second[2]
    lines += ["", "[3] determinism across identical abort campaigns",
              f"    canonical query doc identical : {query_identical}",
              f"    postmortem text identical     : {postmortem_identical}"]

    outcome, _, timeline = first
    result = outcome.result
    step = result.aborted_at_step
    snapshot = outcome.observatory.recorder.snapshots[-1]
    events = sum(len(v) for v in snapshot["sources"].values())
    names_both = FAULT_SITE in timeline and str(step) in timeline
    lines += ["", "[4] black box on the seeded abort",
              f"    aborted at step : {step}",
              f"    snapshot reason : {snapshot['reason']}",
              f"    events frozen   : {events}",
              f"    timeline names {FAULT_SITE!r} and step {step} : "
              f"{names_both}"]
    lines += ["    --- first timeline lines ---"]
    lines += ["    " + line for line in timeline.splitlines()[:4]]

    return {
        "schema": BENCH_SCHEMA_ID,
        "experiment": "tobs",
        "config": {"n_steps": N_STEPS, "slo_interval": SLO_INTERVAL},
        "overhead": {"median_step_off": off_p50,
                     "median_step_on": on_p50,
                     "overhead_fraction": overhead,
                     "bound": OVERHEAD_BOUND,
                     "within_bound": abs(overhead) <= OVERHEAD_BOUND},
        "rollups": {"series_checked": checked, "consistent": consistent},
        "determinism": {"query_identical": query_identical,
                        "postmortem_identical": postmortem_identical},
        "flight": {"aborted_step": step,
                   "faulted_site": FAULT_SITE,
                   "snapshot_events": events,
                   "timeline_names_site_and_step": names_both},
    }, obs, lines


def bench_tobs_observatory():
    payload, _, lines = run_bench()
    check_bench(payload, committed=False)
    write_report("tobs_observatory", lines)


def main() -> int:
    """``make bench-obs``: the measurement, written to the repo root."""
    payload, _, lines = run_bench()
    write_report("tobs_observatory", lines)
    write_bench(BENCH_DOC, payload, committed=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
