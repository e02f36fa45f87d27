#!/usr/bin/env python
"""Live operations console: watch a MOST run raise alerts in real time.

Runs the monitored MOST scenario twice on a shortened (60-step) record:

1. with injected faults — a mid-run UIUC outage and a slowed NCSA
   simulation — printing each alert the moment the console raises it;
2. the per-site critical-path blame table for the faulted run (which
   site dominated each step, and how long the others waited for it).

Everything the console sees travels over the simulated network: health
SDEs via OGSI notifications, metric snapshots via NSDS datagrams.  The
coordinator is never inspected directly.

Run:  python examples/live_monitoring.py
"""

from repro.monitor import critical_path_report
from repro.most import ExperimentSession, MOSTConfig


def main() -> None:
    config = MOSTConfig().scaled(60)

    print(f"monitored MOST run, {config.n_steps} steps, injected faults")
    print("live alert feed:")

    def feed(alert) -> None:
        site = f" site={alert.site}" if alert.site else ""
        print(f"  [{alert.time:9.1f}s] {alert.severity.upper():<8} "
              f"{alert.kind}{site}: {alert.message}")

    report = (ExperimentSession(config, run_id="most-monitored")
              .with_fault_tolerance()
              .with_monitoring(on_alert=feed)
              .with_anomalies()
              .run())
    result = report.result
    rollups = report.rollups

    print(f"\nrun: {result.steps_completed}/{result.target_steps} steps, "
          f"completed={result.completed}")
    print(f"alerts: {len(report.alerts)}; "
          f"metric samples: {rollups['stream']['received']}; "
          f"dominant site: {rollups['dominant_site']}")
    print("final health: "
          + ", ".join(f"{src}={status}" for src, status
                      in sorted(rollups["health"].items())))

    print("\ncritical-path analysis (paper Figure 5, per site):")
    spans = [s.to_dict() for s in
             report.deployment.kernel.telemetry.spans()]
    print(critical_path_report(spans))


if __name__ == "__main__":
    main()
