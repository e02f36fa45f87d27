"""Work budget: per-message work on the hot path, pinned as call counts.

Host time is noisy; how many times the hot path does a piece of work is
not.  Each budget below counts the calls of one costly function over a
small deterministic campaign and pins an upper bound, so a change that
starts doing per message what should be done per conversation fails
here on any machine.  A change that lowers a count lowers its pin.
"""

import collections

import pytest

from repro.fleet import (
    SitePool,
    TenantRegistry,
    build_fleet_grid,
    tenant_sweep,
)
from repro.gsi import Crypto
from repro.gsi import session as gsi_session
from repro.queue import (
    ExperimentQueue,
    FencingAuthority,
    InMemoryJournalStore,
    run_durable_campaign,
)

#: ``Crypto.sign`` calls for the campaign below: credentials, proxies and
#: CAS assertions at set-up, one chain walk per (checker, chain), then two
#: per authenticated call — the client's token and the checker's check of
#: it.
SIGN_BUDGET = 272


@pytest.fixture(scope="module")
def gsi_work():
    """Chain walks per (checker, chain) and signatures over a 2-tenant x
    2-run fleet campaign on 4 sites, 2 sites per lease."""
    walks = collections.Counter()
    signs = [0]
    validate_chain, sign = gsi_session.validate_chain, Crypto.sign

    def counting_walk(crypto, chain, anchors, *, now):
        walks[(id(anchors), chain)] += 1
        return validate_chain(crypto, chain, anchors, now=now)

    def counting_sign(self, private, data):
        signs[0] += 1
        return sign(self, private, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gsi_session, "validate_chain", counting_walk)
        patch.setattr(Crypto, "sign", counting_sign)
        grid = build_fleet_grid(4)
        pool = SitePool(grid.kernel, grid.sites.values())
        registry = TenantRegistry(grid)
        queue = ExperimentQueue(grid.kernel, InMemoryJournalStore(),
                                FencingAuthority(grid.kernel))
        result = run_durable_campaign(
            grid, pool, registry, queue,
            tenant_sweep(2, 2, n_steps=8, n_sites=2), settle_delay=0.0)
    checkers = [site.container.rpc.checker for site in grid.sites.values()]
    checkers.append(grid.repo_container.rpc.checker)
    return result, checkers, registry, walks, signs[0]


class TestGsiWorkBudget:
    def test_the_campaign_completes(self, gsi_work):
        result, *_ = gsi_work
        assert result.summary()["completed"] == 4

    def test_each_chain_is_walked_once_per_checker(self, gsi_work):
        _, checkers, registry, walks, _ = gsi_work
        anchors = {id(checker.trust_anchors) for checker in checkers}
        assert {key[0] for key in walks} <= anchors
        assert set(walks.values()) == {1}
        assert len(walks) <= len(checkers) * len(registry.tenants)

    def test_signatures_are_two_per_authenticated_call(self, gsi_work):
        *_, signs = gsi_work
        assert signs <= SIGN_BUDGET
