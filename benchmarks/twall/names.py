"""Every workload and metric name T-WALL prints, with its unit.

Two clocks, never mixed: a unit starting ``host_`` (or ``MiB``, or the
``s`` the benchmark contract prescribes for ``setup_s``) was read from the
Python process (``time.perf_counter`` / ``process_time`` /
``ru_maxrss``); a unit starting ``sim_`` was read from ``kernel.now``.
Counts and shares carry no clock.  ``BENCHMARK.json`` at the repo root
lists exactly these names and units; ``run.py --check-names`` asserts it.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: name -> one-line reason the workload exists
WORKLOADS = {
    "most_bare": "control plane alone: 1,500-step simulation-only MOST run, "
                 "no DAQ/NSDS/observers, so sim/net/core/coordinator do all "
                 "the work",
    "most_full": "control plane plus data plane: physical sites, DAQ, NSDS "
                 "to 8 viewers, 130 CHEF participants, ingest; a fan-out "
                 "change shows here and not on most_bare",
    "most_observed": "most_full plus monitoring and the observatory; the "
                     "observability stack's own host cost, zero in the "
                     "other three",
    "campaign_durable": "120 short experiments through the durable queue "
                        "with 3 scheduler kills; same layers used as many "
                        "short runs, plus gsi/repository/queue/fleet",
}

#: end-to-end metrics: name -> (unit, better).  ``failed_share`` is not a
#: metric here because the benchmark contract forbids one that is always
#: 0; it travels as the result line's ``failed`` / ``attempted``.  The
#: contract also fixes ``setup_s``'s unit as plain ``s``: host seconds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "host_steps_per_s": ("steps/host_s", "higher"),
    "cpu_s_per_kstep": ("host_cpu_s/kstep", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_s_per_step": ("sim_s/step", "lower"),
}

#: the packages under src/repro/ that get a row, plus what is left
LAYERS = ("sim", "net", "ogsi", "gsi", "core", "control", "structural",
          "coordinator", "daq", "nsds", "telemetry", "monitor",
          "observatory", "repository", "fleet", "queue", "chef",
          "telepresence", "most", "util", "numpy", "python")

#: per-layer trace metrics, one triple per layer: suffix -> unit
TRACE_SUFFIXES = {"self_share": "share", "self_s": "host_s",
                  "calls": "count"}

#: deterministic counts from public counters: name -> unit.  Only
#: ``sim.host_us_per_event`` mixes in a host clock (host time of the
#: median repetition over the exact event count).
COUNTS = {
    "sim.events": "count",
    "sim.events_per_step": "count/step",
    "sim.host_us_per_event": "host_us/event",
    "net.messages_sent": "count",
    "net.messages_per_step": "count/step",
    "net.dropped": "count",
    "net.rpc_calls": "count",
    "net.rpc_retries": "count",
    "core.proposed": "count",
    "core.executed": "count",
    "core.duplicate_executes": "count",
    "nsds.samples_pushed": "count",
    "nsds.samples_per_step": "count/step",
    "repository.files_ingested": "count",
    "repository.checkpoints": "count",
    "telemetry.series": "count",
    "telemetry.spans": "count",
    "monitor.alerts": "count",
    "observatory.series": "count",
    "observatory.samples_ingested": "count",
    "observatory.points": "count",
    "queue.journal_entries": "count",
    "queue.redeliveries": "count",
    "queue.refusals": "count",
    "queue.stale_accepts": "count",
    "fleet.leases_granted": "count",
    "fleet.lease_wait_sim_s_max": "sim_s",
}

#: direct-call probes (probes.py): name -> unit, host time per call
PROBES = {
    "sim.timeout_us": "host_us",
    "net.send_deliver_us": "host_us",
    "net.rpc_call_us": "host_us",
    "core.txn_us": "host_us",
    "telemetry.inc_ns": "host_ns",
    "telemetry.observe_ns": "host_ns",
    "nsds.push_us": "host_us",
    "observatory.append_us": "host_us",
    "repository.checkpoint_save_ms": "host_ms",
    "repository.checkpoint_load_ms": "host_ms",
    "queue.journal_append_us": "host_us",
    "queue.replay_ms": "host_ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in printing order."""
    units = {f"{layer}.{suffix}": unit for layer in LAYERS
             for suffix, unit in TRACE_SUFFIXES.items()}
    units["trace_overhead_ratio"] = "ratio"
    units.update(COUNTS)
    units.update(PROBES)
    return units
