"""T-FLEET — multi-tenant campaigns over a shared site pool.

The paper ran one hybrid experiment at a time over its NTCP sites; the
fleet layer (:mod:`repro.fleet`) multiplexes many.  This benchmark runs a
full campaign — ``n_tenants x runs_per_tenant`` concurrent experiments
over a fixed pool of shared simulation sites — and witnesses the four
properties the fleet exists to provide:

1. **Fairness** — the max/min ratio of tenants' campaign completion
   times stays under a fixed bound: fair-share lease granting means no
   tenant is starved by its neighbours' queue pressure.
2. **Isolation (at-most-once)** — per-lease NTCP counter attribution
   shows zero duplicate executes for every tenant, even with dozens of
   coordinators sharing each site back to back.
3. **Isolation (numerical)** — every tenant's committed displacement
   history is bit-exact against the same request run *alone* on a fresh
   grid: nothing on the shared grid couples tenants numerically.
4. **Authorization** — an identity the fleet never admitted is refused
   by GSI authorization on the pool sites with a ``SecurityError``.

Run as a script (``make bench-fleet``) it emits the comparison document
``BENCH_tfleet.json`` at the repo root; under pytest (``make
bench-figures``) ``bench_tfleet`` is the short mode.  Either way the
floors are the ``tfleet`` row of ``_report.BENCHES`` — this module builds
the document and judges nothing.  Every figure is *simulated* seconds on
the deterministic kernel, so the document is bit-identical run to run —
safe to commit and diff.
"""

import pathlib

import numpy as np

from repro.fleet import (
    SitePool,
    TenantRegistry,
    build_fleet_grid,
    solo_displacement_history,
    tenant_sweep,
)
from repro.net import RemoteException
from repro.queue import (
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
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
BENCH_DOC = REPO_ROOT / "BENCH_tfleet.json"

#: max/min tenant completion-time ratio the campaign must stay under
FAIRNESS_BOUND = 1.5


def _probe_unauthorized(grid, registry) -> bool:
    """An un-admitted identity proposes to a pool site; expect refusal."""
    outsider = registry.outsider_client()
    site = next(iter(grid.sites.values()))
    seen: dict[str, str | None] = {"remote_type": None}

    def probe():
        try:
            yield from outsider.propose(site.handle, "outsider-probe", [])
        except RemoteException as exc:
            seen["remote_type"] = exc.remote_type

    grid.kernel.run(until=grid.kernel.process(probe(), name="outsider"))
    return seen["remote_type"] == "SecurityError"


def run_fleet_campaign(*, n_sites: int = 8, n_tenants: int = 20,
                       runs_per_tenant: int = 5, n_steps: int = 10,
                       sites_per_lease: int = 2,
                       bound: float = FAIRNESS_BOUND) -> tuple:
    """Run the campaign; return (document, telemetry hub)."""
    grid = build_fleet_grid(n_sites)
    pool = SitePool(grid.kernel, grid.sites.values())
    registry = TenantRegistry(grid)
    queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                            FencingAuthority(grid.kernel))
    submissions = tenant_sweep(n_tenants, runs_per_tenant, n_steps=n_steps,
                               n_sites=sites_per_lease)
    result = run_durable_campaign(grid, pool, registry, queue, submissions,
                                  settle_delay=0.0)
    summary = result.summary()

    # Numerical isolation: each tenant's runs share one submission shape, so
    # one solo reference per tenant covers all of its fleet runs.
    solo: dict[str, np.ndarray] = {}
    mismatches = 0
    for outcome in result.outcomes:
        if outcome.tenant not in solo:
            solo[outcome.tenant] = solo_displacement_history(outcome.request)
        if not np.array_equal(outcome.result.displacement_history(),
                              solo[outcome.tenant]):
            mismatches += 1
    ratio = summary["completion_ratio"]

    payload = {
        "schema": BENCH_SCHEMA_ID,
        "experiment": "tfleet",
        "config": {"n_sites": n_sites, "n_tenants": n_tenants,
                   "runs_per_tenant": runs_per_tenant,
                   "n_experiments": len(submissions), "n_steps": n_steps,
                   "sites_per_lease": sites_per_lease},
        "fleet": {key: summary[key] for key in (
            "duration", "completed", "peak_queue_depth", "lease_wait_max",
            "lease_wait_mean", "duplicate_executes")},
        "fairness": {"completion_ratio": ratio, "bound": bound,
                     "within_bound": ratio <= bound},
        "tenants": {
            tenant: {"runs": stats["runs"], "steps": stats["steps"],
                     "completion_time": stats["completion_time"],
                     "lease_wait_max": stats["lease_wait_max"],
                     "duplicate_executes": stats["duplicate_executes"]}
            for tenant, stats in sorted(result.per_tenant().items())},
        "bit_exact": {"solo_vs_fleet": mismatches == 0,
                      "tenants_checked": len(solo)},
        "security": {"unauthorized_rejected":
                     _probe_unauthorized(grid, registry)},
    }
    return payload, grid.kernel.telemetry


def _fleet_report(payload: dict) -> list[str]:
    config = payload["config"]
    fleet = payload["fleet"]
    fairness = payload["fairness"]
    lines = [
        "Multi-tenant fleet campaign over a shared site pool",
        "",
        f"    {config['n_experiments']} experiments "
        f"({config['n_tenants']} tenants x {config['runs_per_tenant']} "
        f"runs, {config['n_steps']} steps each) over "
        f"{config['n_sites']} shared sites, "
        f"{config['sites_per_lease']} sites/lease",
        "",
        f"    campaign duration   : {fleet['duration']:>10.1f} s (simulated)",
        f"    completed           : {fleet['completed']:>10d}",
        f"    peak queue depth    : {fleet['peak_queue_depth']:>10d}",
        f"    lease wait max/mean : {fleet['lease_wait_max']:>10.1f} / "
        f"{fleet['lease_wait_mean']:.1f} s",
        f"    duplicate executes  : {fleet['duplicate_executes']:>10d} "
        "(per-tenant at-most-once)",
        f"    fairness ratio      : {fairness['completion_ratio']:>10.2f} "
        f"(bound {fairness['bound']}, within: {fairness['within_bound']})",
        f"    bit-exact vs solo   : "
        f"{str(payload['bit_exact']['solo_vs_fleet']):>10} "
        f"({payload['bit_exact']['tenants_checked']} tenants checked)",
        f"    outsider rejected   : "
        f"{str(payload['security']['unauthorized_rejected']):>10}",
        "",
        f"    {'tenant':<8}{'runs':>6}{'steps':>7}{'wait max [s]':>14}"
        f"{'done at [s]':>13}{'dup':>5}",
    ]
    for tenant, record in payload["tenants"].items():
        lines.append(
            f"    {tenant:<8}{record['runs']:>6}{record['steps']:>7}"
            f"{record['lease_wait_max']:>14.1f}"
            f"{record['completion_time']:>13.1f}"
            f"{record['duplicate_executes']:>5}")
    return lines


def bench_tfleet():
    payload, hub = run_fleet_campaign(n_sites=4, n_tenants=4,
                                      runs_per_tenant=2, n_steps=8)
    check_bench(payload, committed=False)
    write_metrics("tfleet", hub)
    write_report("tfleet", _fleet_report(payload))


def main() -> int:
    """``make bench-fleet``: the full campaign, written to the repo root."""
    payload, hub = run_fleet_campaign()
    print("\n".join(_fleet_report(payload)))
    write_bench(BENCH_DOC, payload, committed=True)
    write_metrics("tfleet", hub)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
