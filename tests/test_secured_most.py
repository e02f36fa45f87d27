"""End-to-end GSI-secured MOST (paper §2, §4)."""

from dataclasses import replace

import pytest

from repro.gsi import CertificateAuthority, GsiAuthenticator
from repro.most import MOSTConfig
from repro.most.secured import (
    COORDINATOR_DN,
    OBSERVER_DN,
    OUTSIDER_DN,
    build_secured_most,
)
from repro.net import RemoteException, RpcClient


@pytest.fixture(scope="module")
def secured():
    return build_secured_most(MOSTConfig().scaled(40))


class TestSecuredControl:
    def test_coordinator_proxy_runs_the_experiment(self, secured):
        dep = secured.deployment
        dep.start_backends()
        coordinator = dep.make_coordinator(run_id="secured-run")
        result = dep.kernel.run(until=dep.kernel.process(coordinator.run()))
        assert result.completed
        assert result.steps_completed == 39
        # every accepted call was authenticated with the proxy chain
        assert secured.coordinator_proxy.certificate.is_proxy

    def test_unauthenticated_request_rejected(self, secured):
        dep = secured.deployment
        rpc = RpcClient(dep.network, "coord", default_timeout=10.0)

        def go():
            try:
                yield from rpc.call("uiuc", "ogsi", "invoke", {
                    "service_id": "ntcp-uiuc",
                    "operation": "listTransactions", "params": {}})
            except RemoteException as exc:
                return exc.remote_type

        assert dep.kernel.run(until=dep.kernel.process(go())) == "SecurityError"

    def test_outsider_ca_rejected(self, secured):
        """A certificate from an untrusted CA fails chain validation."""
        dep = secured.deployment
        rogue_ca = CertificateAuthority(secured.crypto, "/CN=Rogue CA")
        mallory = rogue_ca.issue_credential(OUTSIDER_DN, not_after=1e12)
        auth = GsiAuthenticator(mallory, lambda: dep.kernel.now)
        rpc = RpcClient(dep.network, "coord", default_timeout=10.0)

        def go():
            try:
                yield from rpc.call(
                    "uiuc", "ogsi", "invoke",
                    {"service_id": "ntcp-uiuc",
                     "operation": "listTransactions", "params": {}},
                    credential=auth.token("invoke"))
            except RemoteException as exc:
                return exc.remote_message

        message = dep.kernel.run(until=dep.kernel.process(go()))
        assert "trust anchor" in message

    def test_valid_identity_not_in_site_gridmap_rejected(self, secured):
        """Per-site authorization: the CA vouches for who you are, but each
        facility decides who may operate its equipment."""
        dep = secured.deployment
        stranger = secured.credential_for("/O=NEESgrid/CN=New Postdoc")
        auth = secured.authenticator(stranger)
        rpc = RpcClient(dep.network, "coord", default_timeout=10.0)

        def go():
            try:
                yield from rpc.call(
                    "cu", "ogsi", "invoke",
                    {"service_id": "ntcp-cu",
                     "operation": "listTransactions", "params": {}},
                    credential=auth.token("invoke"))
            except RemoteException as exc:
                return exc.remote_message

        message = dep.kernel.run(until=dep.kernel.process(go()))
        assert "not in gridmap" in message

    def test_credential_lifetime_counts_from_now(self):
        secured = build_secured_most(MOSTConfig().scaled(10))
        secured.deployment.kernel.run(until=100.0)
        cert = secured.credential_for("/O=NEESgrid/CN=Late Postdoc",
                                      lifetime=50.0).certificate
        assert (cert.not_before, cert.not_after) == (100.0, 150.0)
        assert cert.valid_at(100.0)

    def test_site_can_admit_new_operator(self, secured):
        dep = secured.deployment
        postdoc = secured.credential_for("/O=NEESgrid/CN=Admitted Postdoc")
        secured.gridmaps["cu"].add(postdoc.subject, "cu-postdoc")
        auth = secured.authenticator(postdoc)
        rpc = RpcClient(dep.network, "coord", default_timeout=10.0)

        def go():
            result = yield from rpc.call(
                "cu", "ogsi", "invoke",
                {"service_id": "ntcp-cu",
                 "operation": "listTransactions", "params": {}},
                credential=auth.token("invoke"))
            return result

        out = dep.kernel.run(until=dep.kernel.process(go()))
        assert isinstance(out, list)

    def test_expired_proxy_rejected(self, secured):
        dep = secured.deployment
        short_proxy = secured.coordinator_identity.delegate(
            now=dep.kernel.now, lifetime=1.0)
        auth = secured.authenticator(short_proxy)
        token = auth.token("invoke")  # minted now, used after expiry
        rpc = RpcClient(dep.network, "coord", default_timeout=10.0)

        def go():
            yield dep.kernel.timeout(5.0)  # outlive the proxy
            try:
                yield from rpc.call(
                    "uiuc", "ogsi", "invoke",
                    {"service_id": "ntcp-uiuc",
                     "operation": "listTransactions", "params": {}},
                    credential=token)
            except RemoteException as exc:
                return exc.remote_message

        message = dep.kernel.run(until=dep.kernel.process(go()))
        assert "not valid" in message or "skew" in message


class TestSecuredRepository:
    def test_observer_may_read_but_not_write(self, secured):
        dep = secured.deployment
        observer = secured.credential_for(OBSERVER_DN)
        auth = secured.authenticator(observer, with_cas=True)
        rpc = RpcClient(dep.network, "portal", default_timeout=10.0)

        def read():
            ids = yield from rpc.call(
                "repo", "ogsi", "invoke",
                {"service_id": "nmds", "operation": "listObjects",
                 "params": {}}, credential=auth.token("invoke"))
            return ids

        assert isinstance(dep.kernel.run(until=dep.kernel.process(read())),
                          list)

        def write():
            try:
                yield from rpc.call(
                    "repo", "ogsi", "invoke",
                    {"service_id": "nmds", "operation": "createObject",
                     "params": {"object_type": "note",
                                "fields": {"text": "graffiti"}}},
                    credential=auth.token("invoke"))
            except RemoteException as exc:
                return exc.remote_message

        message = dep.kernel.run(until=dep.kernel.process(write()))
        assert "repository:write" in message

    def test_coordinator_delegate_may_write(self, secured):
        dep = secured.deployment
        auth = secured.authenticator(secured.coordinator_proxy,
                                     with_cas=True)
        # the coordinator host has no direct repo link (uploads go through
        # the site ingestion tools); reach the repo from the portal side
        rpc = RpcClient(dep.network, "portal", default_timeout=10.0)

        def write():
            oid = yield from rpc.call(
                "repo", "ogsi", "invoke",
                {"service_id": "nmds", "operation": "createObject",
                 "params": {"object_type": "note",
                            "fields": {"text": "dry run complete"}}},
                credential=auth.token("invoke"))
            return oid

        assert dep.kernel.run(until=dep.kernel.process(write()))

    def test_cas_assertion_bound_to_identity(self, secured):
        """An observer presenting the coordinator's CAS assertion fails:
        the assertion names a different subject."""
        dep = secured.deployment
        observer = secured.credential_for(OBSERVER_DN)

        def clock():
            return dep.kernel.now

        stolen = secured.cas.issue_assertion(COORDINATOR_DN, now=clock())
        auth = GsiAuthenticator(observer, clock, cas_assertion=stolen)
        rpc = RpcClient(dep.network, "portal", default_timeout=10.0)

        def go():
            try:
                yield from rpc.call(
                    "repo", "ogsi", "invoke",
                    {"service_id": "nmds", "operation": "listObjects",
                     "params": {}}, credential=auth.token("invoke"))
            except RemoteException as exc:
                return exc.remote_message

        message = dep.kernel.run(until=dep.kernel.process(go()))
        assert "presented by" in message


class TestSecuredIngestion:
    def test_daq_uploads_flow_with_cas_rights(self):
        secured = build_secured_most(MOSTConfig().scaled(60))
        dep = secured.deployment
        dep.start_backends()
        dep.start_observation()
        coordinator = dep.make_coordinator(run_id="secured-ingest")
        result = dep.kernel.run(until=dep.kernel.process(coordinator.run()))
        dep.stop_observation()
        dep.kernel.run(until=dep.kernel.now + 600.0)
        assert result.completed
        uploaded = sum(len(s.ingest.uploaded) for s in dep.sites.values()
                       if s.ingest is not None)
        assert uploaded > 0
        assert len(dep.repo_store) >= uploaded


class TestHostileToken:
    @pytest.mark.parametrize("damage", [
        {"chain": None}, {"chain": ["junk"]}, {"timestamp": "x"},
        {"timestamp": float("nan")}])
    def test_a_malformed_token_is_refused_and_the_run_completes(self,
                                                               damage):
        """One hostile request mid-run is a wire-level ``SecurityError``;
        it neither raises out of ``Kernel.run`` nor stops the experiment."""
        secured = build_secured_most(MOSTConfig().scaled(20))
        dep = secured.deployment
        dep.start_backends()
        coordinator = dep.make_coordinator(run_id="hostile-run")
        run = dep.kernel.process(coordinator.run())
        good = secured.authenticator(secured.coordinator_proxy).token(
            "invoke")
        rpc = RpcClient(dep.network, "coord", default_timeout=10.0)
        refused = []

        def hostile():
            yield dep.kernel.timeout(1.0)
            try:
                yield from rpc.call(
                    "uiuc", "ogsi", "invoke",
                    {"service_id": "ntcp-uiuc",
                     "operation": "listTransactions", "params": {}},
                    credential=replace(good, **damage))
            except RemoteException as exc:
                refused.append((dep.kernel.now, exc.remote_type,
                                exc.remote_message.split(":")[0]))

        dep.kernel.process(hostile())
        result = dep.kernel.run(until=run)
        assert result.completed and result.steps_completed == 19
        (at, kind, message), = refused
        assert at < result.wall_finished  # refused mid-run
        assert (kind, message) == ("SecurityError", "malformed token")
