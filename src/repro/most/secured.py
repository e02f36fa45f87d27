"""GSI-secured MOST deployment (paper §2, §4).

The base :func:`~repro.most.assembly.build_most` wiring trusts everyone —
fine for studying the control loop, but the paper's deployment
authenticated *all* communication with GSI and authorized it per site.
This module wraps the assembly with the full security fabric:

* one NEESgrid CA; identity credentials for the coordinator operator, the
  site operators, and remote participants;
* the coordinator runs on a short-lived *proxy* credential (single
  sign-on), as Globus clients did;
* every service container gets a :class:`~repro.gsi.session.GsiChecker`
  validating chains against the CA, with a per-site gridmap — facility
  operators decide who may ``invoke`` at their site (§4: "the usual
  Grid-based authentication and access control");
* the repository additionally requires a CAS right
  (``repository:write``) for ingestion, the §2.3 plan ("We plan to add
  support for the Community Authorization Service").

The control systems themselves are *not* directly reachable — only NTCP
operations are exposed — mirroring §4's "the actual control systems do not
need direct access to the external Internet".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gsi import (
    CertificateAuthority,
    CommunityAuthorizationService,
    Credential,
    Crypto,
    Gridmap,
    GsiAuthenticator,
    GsiChecker,
)
from repro.most.assembly import MOSTDeployment, build_most
from repro.most.config import MOSTConfig

#: the distinguished names used throughout the secured deployment
COORDINATOR_DN = "/O=NEESgrid/OU=MOST/CN=Simulation Coordinator"
OBSERVER_DN = "/O=NEESgrid/OU=MOST/CN=Remote Observer"
OUTSIDER_DN = "/O=Elsewhere/CN=Mallory"
#: lifetime (sim s) of a delegated proxy credential
PROXY_LIFETIME = 12 * 3600.0


@dataclass
class SecuredMOST:
    """A :class:`MOSTDeployment` plus its security fabric."""

    deployment: MOSTDeployment
    crypto: Crypto
    ca: CertificateAuthority
    cas: CommunityAuthorizationService
    coordinator_identity: Credential
    coordinator_proxy: Credential
    gridmaps: dict[str, Gridmap] = field(default_factory=dict)

    def credential_for(self, subject: str, *, lifetime: float = 1e9) -> Credential:
        """Issue ``subject`` a CA-signed credential valid for ``lifetime``
        seconds from now.  It is not trust-mapped: a site accepts it only
        once its gridmap lists the subject."""
        now = self.deployment.kernel.now
        return self.ca.issue_credential(subject, not_before=now,
                                        not_after=now + lifetime)

    def authenticator(self, credential: Credential,
                      with_cas: bool = False) -> GsiAuthenticator:
        """Per-request token minting bound to the deployment clock."""
        kernel = self.deployment.kernel

        def clock() -> float:
            return kernel.now

        assertion = None
        if with_cas:
            idx = credential.subject.find("/proxy-")
            subject = credential.subject if idx < 0 else credential.subject[:idx]
            assertion = self.cas.issue_assertion(subject, now=clock())
        return GsiAuthenticator(credential, clock, cas_assertion=assertion)


def build_secured_most(config: MOSTConfig | None = None) -> SecuredMOST:
    """Build MOST with GSI on every container and CAS on the repository."""
    dep = build_most(config)
    kernel = dep.kernel

    def clock() -> float:
        return kernel.now

    crypto = Crypto()
    ca = CertificateAuthority(crypto, "/O=NEESgrid/CN=NEESgrid CA")
    coord_identity = ca.issue_credential(COORDINATOR_DN, not_after=1e12)
    coord_proxy = coord_identity.delegate(now=kernel.now,
                                          lifetime=PROXY_LIFETIME)

    cas_cred = ca.issue_credential("/O=NEESgrid/CN=NEES CAS", not_after=1e12)
    cas = CommunityAuthorizationService(crypto, cas_cred)
    cas.define_group("experimenters", {"ntcp:control", "repository:write"})
    cas.define_group("observers", {"repository:read"})
    cas.add_member(COORDINATOR_DN)
    cas.add_to_group(COORDINATOR_DN, "experimenters")
    cas.add_member(OBSERVER_DN)
    cas.add_to_group(OBSERVER_DN, "observers")

    secured = SecuredMOST(deployment=dep, crypto=crypto, ca=ca, cas=cas,
                          coordinator_identity=coord_identity,
                          coordinator_proxy=coord_proxy)

    # Site containers: each site's gridmap admits the coordinator (mapped
    # to a site-local account) and whoever the site later adds.
    for name, site in dep.sites.items():
        gridmap = Gridmap()
        gridmap.add(COORDINATOR_DN, f"{name}-neesop")
        secured.gridmaps[name] = gridmap
        site.container.rpc.checker = GsiChecker(
            crypto, [ca.certificate], gridmap, clock)

    # Repository: gridmap plus CAS — writes need the community right.
    repo_gridmap = Gridmap()
    repo_gridmap.add(COORDINATOR_DN, "neesrepo")
    repo_gridmap.add(OBSERVER_DN, "neesguest")
    secured.gridmaps["repo"] = repo_gridmap
    repo_container = dep.nmds.container
    if repo_container is None:
        raise RuntimeError("repository service is not attached to a "
                           "container; deploy the MOST testbed first")
    repo_container.rpc.checker = GsiChecker(
        crypto, [ca.certificate], repo_gridmap, clock, cas=cas)

    # Portal (CHEF): any CA-issued identity in the portal gridmap may log in.
    portal_gridmap = Gridmap()
    portal_gridmap.add(COORDINATOR_DN, "chef-coord")
    portal_gridmap.add(OBSERVER_DN, "chef-guest")
    secured.gridmaps["portal"] = portal_gridmap
    portal_container = dep.chef.container
    if portal_container is None:
        raise RuntimeError("portal service is not attached to a container; "
                           "deploy the MOST testbed first")
    portal_container.rpc.checker = GsiChecker(
        crypto, [ca.certificate], portal_gridmap, clock)

    # The coordinator's NTCP client signs every request with the proxy.
    dep.ntcp_client.credential_factory = \
        secured.authenticator(coord_proxy).credential_for
    # The ingestion tools act as the coordinator's delegate with CAS rights.
    ingest_auth = secured.authenticator(coord_proxy, with_cas=True)
    for site in dep.sites.values():
        if site.ingest is not None:
            site.ingest.facade.credential_factory = ingest_auth.credential_for
    return secured
