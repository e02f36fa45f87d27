"""Shared reporting helper for the benchmark harness.

Each benchmark regenerates one of the paper's figures or the §3.4 results
narrative.  The *reproduced content* (the rows/series the paper reports)
is written to ``benchmarks/out/<experiment>.txt`` so it survives pytest's
output capture and can be diffed run-to-run.  EXPERIMENTS.md records
paper-vs-measured.  Host time is measured by T-WALL
(``benchmarks/twall/``) alone.

The four comparison documents committed at the repo root
(``BENCH_*.json``, schema ``repro.bench/v1``) are described by one table,
:data:`BENCHES`: experiment -> (shape, gates).  The shape is a
:mod:`repro.util.schema` value; the gates assert the floors the document
exists to witness and return its one-line summary.  The benches validate
through it once, on write (:func:`write_bench`), and
``scripts/validate_bench.py`` re-checks the committed files through the
same table (:func:`check_bench`).
"""

from __future__ import annotations

import json
import pathlib

from repro.util.errors import SchemaError
from repro.util.schema import (
    array,
    boolean,
    document,
    integer,
    mapping,
    number,
    obj,
    rule,
    string,
    switch,
    validator,
)

OUT_DIR = pathlib.Path(__file__).parent / "out"


def write_report(experiment: str, lines: list[str]) -> pathlib.Path:
    """Write (and echo) the reproduction report for one experiment."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{experiment}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print(f"\n--- {experiment} ---")
    print(text)
    return path


def write_metrics(experiment: str, hub) -> pathlib.Path:
    """Dump a run's telemetry as ``out/<experiment>.metrics.json``.

    ``hub`` is the run's :class:`repro.telemetry.TelemetryHub`; the payload
    is schema-validated before it is written, so a malformed metric name
    fails the benchmark rather than producing an unreadable artifact.
    """
    OUT_DIR.mkdir(exist_ok=True)
    payload = hub.metrics_payload(experiment)
    path = OUT_DIR / f"{experiment}.metrics.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Benchmark comparison documents (repo-root BENCH_*.json)
# ---------------------------------------------------------------------------

BENCH_SCHEMA_ID = "repro.bench/v1"

_POSITIVE = number(above=0)
_COUNT = integer(0)


def _tenant_runs(total_key: str):
    """A rule on a campaign ``config``: the total is tenants x runs."""
    return rule(f".{total_key}", "must equal n_tenants * runs_per_tenant",
                lambda config: config[total_key] == (
                    config["n_tenants"] * config["runs_per_tenant"]))


#: Stepping-mode comparison (``BENCH_tperf_ntcp.json``); every mode value
#: is in *simulated* seconds, so the committed document is deterministic.
#:
#: Shape::
#:
#:     {"schema": "repro.bench/v1", "experiment": "tperf_ntcp",
#:      "config": {"n_steps": int, "n_variants": int},
#:      "modes": {"sequential": {...}, "pipelined": {...},
#:                "ensemble": {...}},
#:      "speedups": {"pipelined_aggregate_steps_per_s": float,
#:                   "ensemble_aggregate_variant_steps_per_s": float},
#:      "bit_exact": {"pipelined": bool, "ensemble_base_variant": bool}}
_STEPPING = obj({
    "config": obj({"n_steps": integer(1), "n_variants": integer(1)}),
    "modes": obj(dict.fromkeys(("sequential", "pipelined", "ensemble"), obj({
        "steps": integer(1), "variants": integer(1),
        "sim_duration": _POSITIVE,
        "median_step_latency": _POSITIVE, "aggregate_steps_per_s": _POSITIVE,
        "aggregate_variant_steps_per_s": _POSITIVE}))),
    "speedups": obj({"pipelined_aggregate_steps_per_s": number(),
                     "ensemble_aggregate_variant_steps_per_s": number()}),
    "bit_exact": obj({"pipelined": boolean(),
                      "ensemble_base_variant": boolean()}),
})


def _stepping_gates(doc: dict, committed: bool) -> str:
    speed = doc["speedups"]
    for name, mode in doc["modes"].items():
        assert mode["steps"] == doc["config"]["n_steps"] - 1, \
            f"{name} run did not complete"
    assert doc["bit_exact"]["pipelined"], "pipelined not bit-exact"
    assert doc["bit_exact"]["ensemble_base_variant"], \
        "ensemble base variant not bit-exact"
    assert speed["pipelined_aggregate_steps_per_s"] >= 1.5, \
        "pipelined speedup below 1.5x"
    # one protocol cycle advances every variant, so aggregate variant
    # throughput scales ~linearly with N; demand at least half of that
    floor = doc["config"]["n_variants"] / 2.0
    if committed:
        floor = max(floor, 4.0)
    assert speed["ensemble_aggregate_variant_steps_per_s"] >= floor, \
        f"ensemble speedup below {floor}x"
    return (f"pipelined {speed['pipelined_aggregate_steps_per_s']:.2f}x, "
            f"ensemble {speed['ensemble_aggregate_variant_steps_per_s']:.2f}x")


#: Multi-tenant fleet campaign (``BENCH_tfleet.json``).
#:
#: Shape::
#:
#:     {"schema": "repro.bench/v1", "experiment": "tfleet",
#:      "config": {"n_sites": int, "n_tenants": int,
#:                 "runs_per_tenant": int, "n_experiments": int,
#:                 "n_steps": int, "sites_per_lease": int},
#:      "fleet": {"duration": float, "completed": int,
#:                "peak_queue_depth": int, "lease_wait_max": float,
#:                "lease_wait_mean": float, "duplicate_executes": int},
#:      "fairness": {"completion_ratio": float, "bound": float,
#:                   "within_bound": bool},
#:      "tenants": {"<tenant>": {"runs": int, "steps": int,
#:                               "completion_time": float,
#:                               "lease_wait_max": float,
#:                               "duplicate_executes": int}, ...},
#:      "bit_exact": {"solo_vs_fleet": bool, "tenants_checked": int},
#:      "security": {"unauthorized_rejected": bool}}
_FLEET = obj({
    "config": obj(dict.fromkeys(
        ("n_sites", "n_tenants", "runs_per_tenant", "n_experiments",
         "n_steps", "sites_per_lease"), integer(1)),
        None, _tenant_runs("n_experiments")),
    "fleet": obj({**dict.fromkeys(("duration", "lease_wait_max",
                                   "lease_wait_mean"), number(minimum=0)),
                  "completed": _COUNT, "peak_queue_depth": _COUNT,
                  "duplicate_executes": _COUNT}),
    "fairness": obj({"completion_ratio": number(minimum=1.0),
                     "bound": number(minimum=1.0),
                     "within_bound": boolean()}),
    "tenants": mapping(obj({
        "runs": integer(1), "steps": integer(1), "completion_time": number(),
        "lease_wait_max": number(), "duplicate_executes": _COUNT}),
        nonempty=True),
    "bit_exact": obj({"solo_vs_fleet": boolean(),
                      "tenants_checked": integer(1)}),
    "security": obj({"unauthorized_rejected": boolean()}),
})


def _fleet_gates(doc: dict, committed: bool) -> str:
    config, fleet, fairness = doc["config"], doc["fleet"], doc["fairness"]
    assert fleet["completed"] == config["n_experiments"], \
        "not every experiment completed"
    assert fleet["duplicate_executes"] == 0, \
        "duplicate executes on shared sites"
    assert fairness["within_bound"], "fairness ratio exceeds its bound"
    assert doc["bit_exact"]["solo_vs_fleet"], \
        "fleet histories not bit-exact vs solo runs"
    assert doc["bit_exact"]["tenants_checked"] == config["n_tenants"], \
        "not every tenant was compared against its solo run"
    assert doc["security"]["unauthorized_rejected"], \
        "unauthorized call was not rejected"
    if committed:
        assert config["n_experiments"] >= 100, \
            "committed fleet document needs >= 100 experiments"
        assert config["n_sites"] <= 8, \
            "committed fleet document needs <= 8 shared sites"
    return (f"{config['n_experiments']} experiments / "
            f"{config['n_sites']} sites, fairness "
            f"{fairness['completion_ratio']:.2f} <= {fairness['bound']}")


#: Grid-observatory measurement (``BENCH_tobs.json``).
#:
#: Shape::
#:
#:     {"schema": "repro.bench/v1", "experiment": "tobs",
#:      "config": {"n_steps": int, "slo_interval": float},
#:      "rollups": {"series_checked": int, "consistent": bool},
#:      "determinism": {"query_identical": bool,
#:                      "postmortem_identical": bool},
#:      "flight": {"aborted_step": int, "faulted_site": str,
#:                 "snapshot_events": int,
#:                 "timeline_names_site_and_step": bool}}
_OBS = obj({
    "config": obj({"n_steps": integer(1), "slo_interval": number()}),
    "rollups": obj({"series_checked": integer(1), "consistent": boolean()}),
    "determinism": obj({"query_identical": boolean(),
                        "postmortem_identical": boolean()}),
    "flight": obj({"aborted_step": _COUNT, "faulted_site": string(),
                   "snapshot_events": integer(1),
                   "timeline_names_site_and_step": boolean()}),
})


def _obs_gates(doc: dict, committed: bool) -> str:
    flight = doc["flight"]
    assert doc["rollups"]["consistent"], \
        "rollup buckets disagree with their raw points"
    assert doc["determinism"]["query_identical"], \
        "query documents not identical across campaigns"
    assert doc["determinism"]["postmortem_identical"], \
        "postmortems not identical across campaigns"
    assert flight["timeline_names_site_and_step"], \
        "postmortem does not name the faulted site and step"
    return (f"{doc['rollups']['series_checked']} "
            f"rollup series, abort at step {flight['aborted_step']} "
            f"on {flight['faulted_site']}")


#: Durable-queue crash recovery (``BENCH_tqueue.json``).
#:
#: Shape::
#:
#:     {"schema": "repro.bench/v1", "experiment": "tqueue",
#:      "config": {"n_sites": int, "n_tenants": int,
#:                 "runs_per_tenant": int, "n_submissions": int,
#:                 "n_steps": int, "checkpoint_every": int, "seed": int,
#:                 "crash_times": [float, ...], "takeover_delay": float},
#:      "campaign": {"completed": int, "failed": int, "outstanding": int,
#:                   "redeliveries": int, "voided": int,
#:                   "incarnations": int, "final_epoch": int,
#:                   "journal_entries": int, "duration": float},
#:      "fencing": {"refusals": int, "stale_accepts": int,
#:                  "refusals_by_epoch": {"<epoch>": int, ...},
#:                  "refusal_paths": [str, ...],
#:                  "every_crash_epoch_refused": bool},
#:      "exactness": {"duplicate_executes": int, "runs_checked": int,
#:                    "resubmit_deduped": bool,
#:                    "bit_exact_vs_uncrashed": bool}}
_QUEUE = obj({
    "config": obj({
        **dict.fromkeys(("n_sites", "n_tenants", "runs_per_tenant",
                         "n_submissions", "n_steps", "checkpoint_every"),
                        integer(1)),
        "seed": integer(), "takeover_delay": number(),
        "crash_times": array(_POSITIVE, nonempty=True),
    }, None, _tenant_runs("n_submissions")),
    "campaign": obj({
        **dict.fromkeys(("completed", "failed", "outstanding",
                         "redeliveries", "voided", "journal_entries"), _COUNT),
        "incarnations": integer(1), "final_epoch": integer(1),
        "duration": number()}),
    "fencing": obj({
        "refusals": _COUNT, "stale_accepts": _COUNT,
        "refusals_by_epoch": mapping(integer(1), key=rule(
            "", "epoch keys must be decimal strings (JSON object keys)",
            str.isdigit)),
        "refusal_paths": array(string()),
        "every_crash_epoch_refused": boolean()}),
    "exactness": obj({"duplicate_executes": _COUNT,
                      "runs_checked": integer(1),
                      "resubmit_deduped": boolean(),
                      "bit_exact_vs_uncrashed": boolean()}),
}, None, rule(".campaign.incarnations", "must equal len(crash_times) + 1",
              lambda doc: doc["campaign"]["incarnations"]
              == len(doc["config"]["crash_times"]) + 1))


def _queue_gates(doc: dict, committed: bool) -> str:
    config, campaign = doc["config"], doc["campaign"]
    fencing, exact = doc["fencing"], doc["exactness"]
    assert campaign["completed"] == config["n_submissions"], \
        "not every submission completed"
    assert campaign["outstanding"] == 0 and campaign["failed"] == 0, \
        "submissions left outstanding or failed after the campaign"
    assert exact["duplicate_executes"] == 0, \
        "duplicate executes under redelivery"
    assert fencing["stale_accepts"] == 0, "a stale-epoch write was accepted"
    assert fencing["every_crash_epoch_refused"], \
        "a crash epoch produced no fencing refusal"
    for epoch in range(1, len(config["crash_times"]) + 1):
        assert fencing["refusals_by_epoch"].get(str(epoch), 0) >= 1, \
            f"crash epoch {epoch} has no recorded refusal"
    assert exact["resubmit_deduped"], "resubmitted id was not deduped"
    assert exact["bit_exact_vs_uncrashed"], \
        "recovered histories differ from the uncrashed run"
    if committed:
        assert config["n_submissions"] >= 60, \
            "committed queue document needs >= 60 submissions"
        assert len(config["crash_times"]) >= 3, \
            "committed queue document needs >= 3 crashes"
    return (f"{config['n_submissions']} submissions / "
            f"{len(config['crash_times'])} crashes, "
            f"{campaign['redeliveries']} redeliveries, "
            f"{fencing['refusals']} refusals, "
            f"{exact['duplicate_executes']} duplicate executes")


#: ``$.experiment`` -> (document shape, gates(doc, committed) -> summary);
#: ``BENCH_<experiment>.json`` is the committed file name.
BENCHES = {
    "tperf_ntcp": (_STEPPING, _stepping_gates),
    "tfleet": (_FLEET, _fleet_gates),
    "tobs": (_OBS, _obs_gates),
    "tqueue": (_QUEUE, _queue_gates),
}

validate_bench_payload = validator(SchemaError, document(
    BENCH_SCHEMA_ID, {}, None,
    switch("experiment", **{name: shape
                            for name, (shape, _) in BENCHES.items()})))


def check_bench(payload, *, committed: bool) -> str:
    """Validate one ``repro.bench/v1`` document against its experiment's
    shape and assert the floors it exists to witness (``committed`` adds
    the ones only the repo-root document must meet); the one-line summary."""
    validate_bench_payload(payload)
    return BENCHES[payload["experiment"]][1](payload, committed)


def write_bench(path: pathlib.Path, payload: dict, *, committed: bool) -> None:
    """Check a bench document (:func:`check_bench`), then write it."""
    check_bench(payload, committed=committed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path} (schema {BENCH_SCHEMA_ID})")
