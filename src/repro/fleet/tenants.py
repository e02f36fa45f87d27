"""Per-tenant GSI identity for fleet experiments.

Each campaign tenant gets its own credential chain (CA-issued identity →
short-lived proxy), its own gridmap entries on every pool site and on the
repository, CAS membership granting the experimenter rights, and its own
labeled RPC/NTCP clients — so NTCP and repository calls are authorized
*per tenant* and a tenant's telemetry series never collide with a
neighbour's.

An identity the CA issued but the registry never admitted (see
:meth:`TenantRegistry.outsider_client`) is rejected by the pool sites'
:class:`~repro.gsi.GsiChecker` with a ``SecurityError`` — the fleet's
negative authorization test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import NTCPClient
from repro.gsi import (
    CertificateAuthority,
    CommunityAuthorizationService,
    Credential,
    Crypto,
    Gridmap,
    GsiAuthenticator,
    GsiChecker,
)
from repro.most.secured import OUTSIDER_DN, PROXY_LIFETIME
from repro.net import RpcClient
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.grid import FleetGrid
    from repro.telemetry import ScopedTelemetry

#: distinguished names used by the fleet security fabric
FLEET_CA_DN = "/O=NEESgrid/CN=Fleet CA"
FLEET_CAS_DN = "/O=NEESgrid/CN=Fleet CAS"
#: lifetime (sim s) of a tenant's CAS rights assertion
ASSERTION_LIFETIME = 12 * 3600.0

#: community rights every registered tenant holds
TENANT_RIGHTS = frozenset({"ntcp:control", "repository:write",
                           "repository:read"})


def tenant_subject(tenant_id: str) -> str:
    """The distinguished name minted for a fleet tenant."""
    return f"/O=NEESgrid/OU=Fleet/CN={tenant_id}"


@dataclass
class Tenant:
    """One registered tenant: identity, clients, and scoped telemetry.

    ``rpc``/``ntcp`` live on the shared ``coord`` host but carry a
    ``tenant=...`` telemetry label and sign every request with the
    tenant's proxy, so both observability and authorization stay
    per-tenant on the shared grid.
    """

    tenant_id: str
    subject: str
    credential: Credential
    proxy: Credential
    authenticator: GsiAuthenticator
    rpc: RpcClient
    ntcp: NTCPClient
    telemetry: "ScopedTelemetry"


class TenantRegistry:
    """Issues and wires per-tenant GSI identities for one fleet grid.

    Construction installs :class:`~repro.gsi.GsiChecker` on every pool
    site container (shared pool gridmap) and on the repository container
    (repository gridmap + CAS, so metadata writes need the community
    right) — from that point on, *every* NTCP or repository call on the
    grid must present a mapped, in-date credential.
    """

    def __init__(self, grid: "FleetGrid"):
        self.grid = grid
        kernel = grid.kernel

        def clock() -> float:
            return kernel.now

        self._clock = clock
        self.crypto = Crypto()
        self.ca = CertificateAuthority(self.crypto, FLEET_CA_DN)
        cas_cred = self.ca.issue_credential(FLEET_CAS_DN, not_after=1e12)
        self.cas = CommunityAuthorizationService(self.crypto, cas_cred,
                                                 community="fleet")
        self.cas.define_group("experimenters", set(TENANT_RIGHTS))
        self.pool_gridmap = Gridmap()
        self.repo_gridmap = Gridmap()
        for site in grid.sites.values():
            site.container.rpc.checker = GsiChecker(
                self.crypto, [self.ca.certificate], self.pool_gridmap,
                clock)
        grid.repo_container.rpc.checker = GsiChecker(
            self.crypto, [self.ca.certificate], self.repo_gridmap, clock,
            cas=self.cas)
        self.tenants: dict[str, Tenant] = {}

    def get(self, tenant_id: str) -> Tenant:
        """The registered tenant, or :class:`ConfigurationError` if unknown."""
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise ConfigurationError(f"tenant {tenant_id!r} is not "
                                     f"registered with this fleet")
        return tenant

    def register(self, tenant_id: str) -> Tenant:
        """Mint a tenant identity and admit it everywhere; idempotent."""
        existing = self.tenants.get(tenant_id)
        if existing is not None:
            return existing
        grid = self.grid
        config = grid.config
        subject = tenant_subject(tenant_id)
        credential = self.ca.issue_credential(subject, not_after=1e12)
        proxy = credential.delegate(now=grid.kernel.now,
                                    lifetime=PROXY_LIFETIME)
        self.cas.add_member(subject)
        self.cas.add_to_group(subject, "experimenters")
        self.pool_gridmap.add(subject, f"pool-{tenant_id}")
        self.repo_gridmap.add(subject, f"repo-{tenant_id}")
        assertion = self.cas.issue_assertion(
            subject, now=self._clock(), lifetime=ASSERTION_LIFETIME)
        authenticator = GsiAuthenticator(proxy, self._clock,
                                         cas_assertion=assertion)
        ntcp = grid.client(
            timeout=config.rpc_timeout, retries=config.rpc_retries,
            labels={"tenant": tenant_id},
            credential_factory=authenticator.credential_for)
        tenant = Tenant(
            tenant_id=tenant_id, subject=subject, credential=credential,
            proxy=proxy, authenticator=authenticator, rpc=ntcp.rpc, ntcp=ntcp,
            telemetry=grid.kernel.telemetry.scoped(tenant=tenant_id))
        self.tenants[tenant_id] = tenant
        grid.kernel.emit("fleet.tenants", "tenant.registered",
                         tenant=tenant_id, subject=subject)
        return tenant

    def outsider_client(self, subject: str = OUTSIDER_DN) -> NTCPClient:
        """An NTCP client whose identity the fleet never admitted.

        The credential chain is valid (our CA signed it) but the subject
        is in no gridmap, so any call through this client is refused by
        GSI authorization with a ``SecurityError``.
        """
        grid = self.grid
        config = grid.config
        credential = self.ca.issue_credential(subject, not_after=1e12)
        proxy = credential.delegate(now=grid.kernel.now,
                                    lifetime=PROXY_LIFETIME)
        authenticator = GsiAuthenticator(proxy, self._clock)
        return grid.client(
            timeout=config.rpc_timeout, retries=0,
            labels={"tenant": "outsider"},
            credential_factory=authenticator.credential_for)
