"""Multi-tenant fleet: leases, fair-share, isolation, and chaos fairness.

Covers :mod:`repro.fleet` end to end: the site pool's queueing discipline
(deferred same-instant granting, fair-share ordering, head-of-line
blocking, admission control), a fleet campaign through the one campaign
loop (:func:`repro.queue.run_durable_campaign`, never crashed),
per-tenant telemetry label isolation with two live experiments on one
kernel, GSI authorization of admitted vs never-admitted identities, the
campaign status SDE behind GSI, and lease fairness under a seeded outage
campaign.
"""

import numpy as np
import pytest

import repro
from repro.chaos import (
    FleetOutage,
    arm_fleet_outages,
    check_fleet_invariants,
    make_fleet_outage_plan,
)
from repro.fleet import (
    AdmissionError,
    SitePool,
    TenantRegistry,
    build_fleet_grid,
    solo_displacement_history,
    tenant_subject,
    tenant_sweep,
)
from repro.net import RemoteException
from repro.ogsi import SdeStatusService
from repro.queue import (
    QUEUE_SDE,
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
    QueueSubmission,
    run_durable_campaign,
)
from repro.sim import Kernel
from repro.util.errors import ProtocolError
from repro.verify.explorer import mutated


def small_fleet(n_sites=4, **pool_kwargs):
    grid = build_fleet_grid(n_sites)
    pool = SitePool(grid.kernel, grid.sites.values(), **pool_kwargs)
    registry = TenantRegistry(grid)
    return grid, pool, registry


def run_campaign(grid, pool, registry, submissions, **kwargs):
    """A plain fleet campaign: the durable loop, in memory, never crashed."""
    queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                            FencingAuthority(grid.kernel))
    return run_durable_campaign(grid, pool, registry, queue, submissions,
                                settle_delay=0.0, **kwargs)


def spawn_acquire(grid, pool, tenant, n, leases):
    """A kernel process that acquires a lease and records it."""
    def proc():
        lease = yield pool.acquire(tenant, n)
        leases.append(lease)
    return grid.kernel.process(proc(), name=f"acquire-{tenant}")


def campaign_submissions(n_tenants, runs_per_tenant, *, n_steps=8,
                         sites_per_lease=2, **kwargs):
    return tenant_sweep(n_tenants, runs_per_tenant, n_steps=n_steps,
                        n_sites=sites_per_lease, **kwargs)


# ---------------------------------------------------------------------------
# the site pool


class TestPoolAdmission:
    def test_unsatisfiable_requests_are_rejected_up_front(self):
        grid, pool, _ = small_fleet(2)
        with pytest.raises(AdmissionError):
            pool.acquire("a", 0)
        with pytest.raises(AdmissionError):
            pool.acquire("a", 3)  # pool owns 2

    def test_per_lease_cap(self):
        grid, pool, _ = small_fleet(4, max_sites_per_lease=2)
        with pytest.raises(AdmissionError):
            pool.acquire("a", 3)

    def test_full_queue_rejects_new_requests(self):
        grid, pool, _ = small_fleet(1, max_queue_depth=1)
        pool.acquire("a", 1)  # queued (grants are deferred)
        with pytest.raises(AdmissionError):
            pool.acquire("b", 1)
        rejected = grid.kernel.telemetry.registry.find(
            "fleet.pool.admission_rejected")
        assert rejected.value >= 1


class TestPoolGranting:
    def test_same_instant_requests_are_granted_fair_share(self):
        """Tenant-major submission order must not hand one tenant the
        whole free pool: granting is deferred to the event boundary so
        the fair-share sort sees every same-instant request."""
        grid, pool, _ = small_fleet(2)
        leases = []
        spawn_acquire(grid, pool, "a", 1, leases)
        spawn_acquire(grid, pool, "a", 1, leases)
        spawn_acquire(grid, pool, "b", 1, leases)
        grid.kernel.run()
        assert {lease.tenant for lease in leases} == {"a", "b"}

    def test_release_grants_the_waiting_request(self):
        grid, pool, _ = small_fleet(1)
        leases = []
        spawn_acquire(grid, pool, "a", 1, leases)
        spawn_acquire(grid, pool, "b", 1, leases)
        grid.kernel.run()
        assert len(leases) == 1
        pool.release(leases[0])
        grid.kernel.run()
        assert [lease.tenant for lease in leases] == ["a", "b"]
        assert pool.completed_leases == {"a": 1}

    def test_head_of_line_large_request_is_never_bypassed(self):
        """One site free, a 2-site request at the head: the small request
        behind it must wait, not jump the queue (that would starve the
        large one indefinitely)."""
        grid, pool, _ = small_fleet(2)
        leases, big, late = [], [], []
        spawn_acquire(grid, pool, "a", 1, leases)
        grid.kernel.run()
        spawn_acquire(grid, pool, "b", 2, big)
        spawn_acquire(grid, pool, "c", 1, late)
        grid.kernel.run()
        assert big == [] and late == []  # one free site, head wants two
        pool.release(leases[0])
        grid.kernel.run()
        assert len(big) == 1 and big[0].site_names == ("site-0", "site-1")
        assert late == []  # c waits for b to finish

    def test_fair_share_prefers_the_tenant_with_fewer_leases(self):
        grid, pool, _ = small_fleet(1)
        leases = []
        spawn_acquire(grid, pool, "a", 1, leases)
        grid.kernel.run()
        pool.release(leases[0])
        grid.kernel.run()
        # a holds 1 completed lease; now a and b queue simultaneously —
        # b (share 0) must win even though a's request has the lower seq
        spawn_acquire(grid, pool, "a", 1, leases)
        spawn_acquire(grid, pool, "b", 1, leases)
        grid.kernel.run()
        assert leases[1].tenant == "b"

    def test_release_is_single_shot_and_pool_owned(self):
        grid, pool, _ = small_fleet(1)
        leases = []
        spawn_acquire(grid, pool, "a", 1, leases)
        grid.kernel.run()
        lease = leases[0]
        pool.release(lease)
        assert lease.released
        assert lease.usage is not None  # metrics frozen at release
        with pytest.raises(ProtocolError):
            pool.release(lease)


# ---------------------------------------------------------------------------
# a fleet campaign through the one campaign loop


@pytest.fixture(scope="module")
def clean_campaign():
    """4 tenants x 2 runs over 4 shared sites, 2 sites per lease."""
    grid, pool, registry = small_fleet(4)
    result = run_campaign(grid, pool, registry, campaign_submissions(4, 2))
    return grid, registry, result


class TestFleetCampaign:
    def test_every_experiment_completes(self, clean_campaign):
        _, _, result = clean_campaign
        summary = result.summary()
        assert summary["completed"] == 8
        assert summary["tenants"] == 4

    def test_pool_telemetry_agrees_with_the_outcomes(self, clean_campaign):
        grid, _, result = clean_campaign
        waits = grid.kernel.telemetry.histogram("fleet.pool.lease_wait")
        assert waits.count == grid.kernel.telemetry.counter(
            "fleet.pool.leases_granted").value == 8
        assert waits.percentile(100) == result.summary()["lease_wait_max"]

    def test_fair_share_bounds_the_completion_ratio(self, clean_campaign):
        _, _, result = clean_campaign
        assert result.completion_ratio() <= 1.5

    def test_per_tenant_at_most_once(self, clean_campaign):
        _, _, result = clean_campaign
        for tenant, stats in result.per_tenant().items():
            assert stats["duplicate_executes"] == 0, tenant
            assert stats["runs"] == 2

    def test_fleet_history_is_bit_exact_vs_solo(self, clean_campaign):
        _, _, result = clean_campaign
        sampled = result.outcomes[-1]
        solo = solo_displacement_history(sampled.request)
        assert np.array_equal(sampled.result.displacement_history(), solo)

    def test_invariant_sweep_is_clean(self, clean_campaign):
        _, _, result = clean_campaign
        sampled = result.outcomes[0]
        verdict = check_fleet_invariants(
            result.outcomes,
            baselines={sampled.run_id:
                       solo_displacement_history(sampled.request)})
        assert verdict["ok"], verdict["violations"]
        assert verdict["duplicate_executes"] == 0
        assert verdict["by_run"][f"{sampled.tenant}/{sampled.run_id}"][
            "bit_exact_vs_solo"]

    def test_duplicate_run_ids_are_rejected(self):
        """Transaction names and checkpoints embed the run id, so the
        queue refuses a second submission under a journaled one — also
        after a replay rebuilt its view of the journal."""
        store = InMemoryJournalStore()
        kernel = Kernel()
        queue = ExperimentQueue(kernel, store, FencingAuthority(kernel))

        def submit(view, sid):
            return kernel.process(view.submit(QueueSubmission(
                sid, tenant=sid, run_id="r0", n_steps=5)))

        kernel.run(until=submit(queue, "a"))
        with pytest.raises(AdmissionError, match="'r0'"):
            kernel.run(until=submit(queue, "b"))
        replayed = ExperimentQueue(kernel, store, FencingAuthority(kernel))
        kernel.run(until=kernel.process(replayed.recover()))
        with pytest.raises(AdmissionError, match="already journaled"):
            kernel.run(until=submit(replayed, "b"))
        kernel.run(until=submit(replayed, "a"))  # same id: a dedupe
        assert replayed.stats()["submitted"] == 1


# ---------------------------------------------------------------------------
# tenant isolation: telemetry labels and GSI identity


class TestTenantTelemetryIsolation:
    """Two concurrent experiments on one kernel must never share a metric
    series — the regression the `labels=`/`ScopedTelemetry` namespacing
    fix exists for."""

    @pytest.fixture(scope="class")
    def two_live_tenants(self):
        grid, pool, registry = small_fleet(4)
        result = run_campaign(grid, pool, registry, [
            QueueSubmission(f"{tenant}-r0", tenant, n_steps=6, n_sites=2)
            for tenant in ("ada", "bob")])
        return grid, registry, result

    def test_rpc_series_are_split_by_tenant_label(self, two_live_tenants):
        grid, _, _ = two_live_tenants
        reg = grid.kernel.telemetry.registry
        calls = {t: reg.find("net.rpc.calls", host="coord", tenant=t)
                 for t in ("ada", "bob")}
        assert calls["ada"] is not None and calls["bob"] is not None
        assert calls["ada"] is not calls["bob"]
        assert calls["ada"].value > 0 and calls["bob"].value > 0

    def test_scoped_telemetry_stamps_the_tenant_label(self,
                                                      two_live_tenants):
        grid, registry, _ = two_live_tenants
        counter = registry.get("ada").telemetry.counter("test.tenant.probe")
        counter.inc()
        assert counter.labels == {"tenant": "ada"}
        reg = grid.kernel.telemetry.registry
        assert reg.find("test.tenant.probe", tenant="ada") is counter
        # no anonymous (unlabeled) series silently absorbing the tenant
        assert reg.find("test.tenant.probe") is None


class TestGsiIdentity:
    @pytest.fixture(scope="class")
    def secured_grid(self):
        grid = build_fleet_grid(2)
        registry = TenantRegistry(grid)
        return grid, registry

    def test_registered_tenant_passes_site_authorization(self, secured_grid):
        grid, registry = secured_grid
        tenant = registry.register("ada")
        assert tenant_subject("ada") in registry.pool_gridmap.entries
        site = next(iter(grid.sites.values()))
        verdicts = []

        def probe():
            verdicts.append((yield from tenant.ntcp.propose(
                site.handle, "ada-authz-probe", [])))

        grid.kernel.run(until=grid.kernel.process(probe(), name="probe"))
        assert verdicts  # authorized: the call reached the plugin

    def test_unadmitted_identity_is_refused(self, secured_grid):
        grid, registry = secured_grid
        outsider = registry.outsider_client()
        site = next(iter(grid.sites.values()))
        seen = {}

        def probe():
            try:
                yield from outsider.propose(site.handle, "outsider-probe",
                                            [])
            except RemoteException as exc:
                seen["remote_type"] = exc.remote_type

        grid.kernel.run(until=grid.kernel.process(probe(), name="outsider"))
        assert seen.get("remote_type") == "SecurityError"


class TestSecuredFleetStatus:
    def test_get_rollup_requires_an_admitted_identity(self):
        """The campaign roll-up op (``getQueueStatus``) behind GSI: an
        admitted tenant's signed invoke succeeds, a CA-issued-but-
        unadmitted identity is refused."""
        from repro.gsi import GsiChecker

        grid, pool, registry = small_fleet(2)
        status = SdeStatusService("queue-status", QUEUE_SDE,
                                  "getQueueStatus")
        grid.coord_container.deploy(status)
        result = run_campaign(grid, pool, registry, [
            QueueSubmission("ada-r0", "ada", n_steps=5)], status=status)
        assert result.outcomes[0].completed
        # lock the coordinator container down after the campaign drains
        grid.coord_container.rpc.checker = GsiChecker(
            registry.crypto, [registry.ca.certificate],
            registry.pool_gridmap, lambda: grid.kernel.now)

        tenant = registry.tenants["ada"]
        got = {}

        def admitted():
            got["status"] = yield from tenant.rpc.call(
                "coord", "ogsi", "invoke",
                {"service_id": status.service_id,
                 "operation": "getQueueStatus", "params": {}},
                credential=tenant.authenticator.token("invoke"))

        grid.kernel.run(until=grid.kernel.process(admitted(), name="ada"))
        assert got["status"]["completed"] == 1
        assert got["status"]["outstanding"] == 0

        outsider = registry.outsider_client()
        seen = {}

        def refused():
            try:
                yield from outsider.rpc.call(
                    "coord", "ogsi", "invoke",
                    {"service_id": status.service_id,
                     "operation": "getQueueStatus", "params": {}},
                    credential=outsider.credential_factory("invoke"))
            except RemoteException as exc:
                seen["remote_type"] = exc.remote_type

        grid.kernel.run(until=grid.kernel.process(refused(), name="mallory"))
        assert seen.get("remote_type") == "SecurityError"


# ---------------------------------------------------------------------------
# fairness under seeded chaos


class TestFleetUnderChaos:
    def test_outage_plan_is_deterministic_in_its_seed(self):
        sites = [f"site-{i}" for i in range(4)]
        assert (make_fleet_outage_plan(7, sites, n_events=3)
                == make_fleet_outage_plan(7, sites, n_events=3))
        assert (make_fleet_outage_plan(7, sites, n_events=3)
                != make_fleet_outage_plan(8, sites, n_events=3))

    def test_no_tenant_starves_under_shared_site_outages(self):
        """Seeded outages on the shared pool: every run still completes,
        the chaos invariants hold, and the unlucky lease holders' tenants
        stay within a bounded completion ratio of their neighbours."""
        grid, pool, registry = small_fleet(4)
        plan = make_fleet_outage_plan(7, sorted(grid.sites), n_events=3)
        arm_fleet_outages(grid, plan)
        result = run_campaign(grid, pool, registry, campaign_submissions(
            4, 3, n_steps=10, degradation=True))
        verdict = check_fleet_invariants(result.outcomes)
        assert verdict["ok"], verdict["violations"]
        assert result.summary()["completed"] == 12
        assert result.completion_ratio() <= 2.0

    @staticmethod
    def degraded_campaign():
        """One run whose second leased site dies for good at t=5 s: its
        surrogate serves the rest of the run."""
        grid, pool, registry = small_fleet(2)
        arm_fleet_outages(grid, [FleetOutage("site-1", start=5.0,
                                             duration=float("inf"))])
        return run_campaign(grid, pool, registry, campaign_submissions(
            1, 1, n_steps=10, degradation=True)).outcomes

    def test_a_degraded_run_is_judged_by_its_failover_events(self):
        [outcome] = self.degraded_campaign()
        assert outcome.completed and outcome.result.degraded_steps > 0
        verdict = check_fleet_invariants([outcome])
        assert verdict["ok"], verdict["violations"]
        assert verdict["by_run"]["t00/t00-r0"]["degraded_labels"]

    def test_unlabelled_degraded_steps_fail_the_fleet_sweep(self):
        """The ``label_degraded`` mutant commits surrogate-served steps
        unlabelled; the run's failover manager is the evidence that
        catches it."""
        with mutated("label_degraded"):
            outcomes = self.degraded_campaign()
        verdict = check_fleet_invariants(outcomes)
        assert not verdict["ok"]
        assert not verdict["by_run"]["t00/t00-r0"]["degraded_labels"]
        assert any("degraded labels disagree" in line
                   for line in verdict["violations"])


# ---------------------------------------------------------------------------
# the public front door


class TestExports:
    def test_fleet_is_in_the_curated_top_level_api(self):
        from repro.fleet import SitePool as home

        assert repro.SitePool is home
        for name in ("SitePool", "TenantRegistry", "build_fleet_grid",
                     "QueueSubmission", "run_durable_campaign"):
            assert name in repro.__all__
