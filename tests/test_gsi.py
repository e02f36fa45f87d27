"""Unit + property tests for the simulated GSI stack."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gsi import (
    CertificateAuthority,
    CommunityAuthorizationService,
    Crypto,
    Gridmap,
    GsiAuthenticator,
    GsiChecker,
    GsiToken,
    validate_chain,
)
from repro.gsi import session as gsi_session
from repro.util.errors import SecurityError


@pytest.fixture
def world():
    crypto = Crypto(np.random.default_rng(42))
    ca = CertificateAuthority(crypto, "/O=NEESgrid/CN=NEES CA")
    return crypto, ca


class TestCrypto:
    def test_sign_verify_roundtrip(self):
        c = Crypto()
        kp = c.keygen()
        sig = c.sign(kp.private, "hello")
        assert c.verify(kp.public, "hello", sig)

    def test_wrong_data_fails(self):
        c = Crypto()
        kp = c.keygen()
        sig = c.sign(kp.private, "hello")
        assert not c.verify(kp.public, "hellO", sig)

    def test_wrong_key_fails(self):
        c = Crypto()
        kp1, kp2 = c.keygen(), c.keygen()
        sig = c.sign(kp1.private, "data")
        assert not c.verify(kp2.public, "data", sig)

    def test_unknown_public_key_fails(self):
        c = Crypto()
        assert not c.verify("pub:deadbeef", "data", "sig")

    def test_require_valid_raises(self):
        c = Crypto()
        kp = c.keygen()
        with pytest.raises(SecurityError):
            c.require_valid(kp.public, "data", "forged")

    @given(st.text(max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_any_payload_roundtrips(self, payload):
        c = Crypto()
        kp = c.keygen()
        assert c.verify(kp.public, payload, c.sign(kp.private, payload))


class TestCertificates:
    def test_issue_and_validate(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/O=NEESgrid/CN=Alice", not_after=1000.0)
        leaf = validate_chain(crypto, cred.chain, [ca.certificate], now=10.0)
        assert leaf.subject == "/O=NEESgrid/CN=Alice"

    def test_expired_cert_rejected(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Bob", not_after=100.0)
        with pytest.raises(SecurityError, match="not valid"):
            validate_chain(crypto, cred.chain, [ca.certificate], now=200.0)

    def test_not_yet_valid_rejected(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Bob", not_before=50.0, not_after=100.0)
        with pytest.raises(SecurityError):
            validate_chain(crypto, cred.chain, [ca.certificate], now=10.0)

    def test_untrusted_ca_rejected(self, world):
        crypto, ca = world
        rogue = CertificateAuthority(crypto, "/CN=Rogue CA")
        cred = rogue.issue_credential("/CN=Mallory")
        with pytest.raises(SecurityError, match="trust anchor"):
            validate_chain(crypto, cred.chain, [ca.certificate], now=0.0)

    def test_tampered_subject_rejected(self, world):
        from dataclasses import replace

        crypto, ca = world
        cred = ca.issue_credential("/CN=Alice")
        forged = replace(cred.certificate, subject="/CN=Admin")
        with pytest.raises(SecurityError):
            validate_chain(crypto, (forged,), [ca.certificate], now=0.0)

    def test_empty_chain_rejected(self, world):
        crypto, ca = world
        with pytest.raises(SecurityError, match="empty"):
            validate_chain(crypto, (), [ca.certificate], now=0.0)


class TestProxyDelegation:
    def test_proxy_chain_validates(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Alice", not_after=10_000.0)
        proxy = cred.delegate(now=100.0, lifetime=3600.0)
        leaf = validate_chain(crypto, proxy.chain, [ca.certificate], now=200.0)
        assert leaf.is_proxy
        assert leaf.subject == "/CN=Alice/proxy-1"
        assert proxy.identity == "/CN=Alice"

    def test_proxy_of_proxy(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Alice", not_after=10_000.0)
        p1 = cred.delegate(now=0.0)
        p2 = p1.delegate(now=0.0)
        leaf = validate_chain(crypto, p2.chain, [ca.certificate], now=1.0)
        assert leaf.subject == "/CN=Alice/proxy-1/proxy-1"
        assert p2.identity == "/CN=Alice"

    def test_proxy_lifetime_capped_by_parent(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Alice", not_after=500.0)
        proxy = cred.delegate(now=0.0, lifetime=10_000.0)
        assert proxy.certificate.not_after == 500.0

    def test_expired_proxy_rejected(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Alice", not_after=1e9)
        proxy = cred.delegate(now=0.0, lifetime=60.0)
        with pytest.raises(SecurityError):
            validate_chain(crypto, proxy.chain, [ca.certificate], now=120.0)

    def test_proxy_depth_limit(self, world):
        crypto, ca = world
        cred = ca.issue_credential("/CN=Alice", not_after=1e9)
        c = cred
        for _ in range(5):
            c = c.delegate(now=0.0)
        with pytest.raises(SecurityError, match="too deep"):
            validate_chain(crypto, c.chain, [ca.certificate], now=0.0,
                           max_proxy_depth=3)

    def test_identity_cert_issued_by_non_ca_rejected(self, world):
        from dataclasses import replace

        crypto, ca = world
        alice = ca.issue_credential("/CN=Alice", not_after=1e9)
        # Alice (not a CA) signs an identity (non-proxy) cert for Mallory.
        keys = crypto.keygen()
        cert = replace(
            alice.certificate,
            subject="/CN=Mallory", issuer="/CN=Alice",
            public_key=keys.public, is_proxy=False, signature="")
        cert = replace(cert, signature=alice.sign(cert.canonical()))
        with pytest.raises(SecurityError, match="non-CA"):
            validate_chain(crypto, (cert,) + alice.chain,
                           [ca.certificate], now=0.0)


class TestGridmap:
    def test_map_and_authorize(self):
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        p = gm.authorize("/CN=Alice", "propose")
        assert p.local_user == "alice"

    def test_unknown_subject_rejected(self):
        gm = Gridmap()
        with pytest.raises(SecurityError, match="not in gridmap"):
            gm.authorize("/CN=Nobody", "propose")

    def test_method_acl_enforced(self):
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        gm.add("/CN=Bob", "bob")
        gm.restrict("execute", {"alice"})
        assert gm.authorize("/CN=Alice", "execute").local_user == "alice"
        with pytest.raises(SecurityError, match="may not call"):
            gm.authorize("/CN=Bob", "execute")
        # unrestricted method open to all mapped users
        assert gm.authorize("/CN=Bob", "getStatus").local_user == "bob"

    def test_remove(self):
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        gm.remove("/CN=Alice")
        with pytest.raises(SecurityError):
            gm.map_subject("/CN=Alice")


class TestCas:
    def make_cas(self, world):
        crypto, ca = world
        cas_cred = ca.issue_credential("/CN=NEES CAS")
        return CommunityAuthorizationService(crypto, cas_cred)

    def test_issue_and_verify(self, world):
        cas = self.make_cas(world)
        cas.add_member("/CN=Alice", {"repository:read"})
        cas.grant("/CN=Alice", "repository:write")
        a = cas.issue_assertion("/CN=Alice", now=0.0)
        rights = cas.verify_assertion(a, now=10.0)
        assert rights == {"repository:read", "repository:write"}

    def test_group_rights_flow(self, world):
        cas = self.make_cas(world)
        cas.define_group("experimenters", {"ntcp:propose", "ntcp:execute"})
        cas.add_member("/CN=Bob")
        cas.add_to_group("/CN=Bob", "experimenters")
        assert "ntcp:execute" in cas.rights_of("/CN=Bob")

    def test_expired_assertion_rejected(self, world):
        cas = self.make_cas(world)
        cas.add_member("/CN=Alice", {"x"})
        a = cas.issue_assertion("/CN=Alice", now=0.0, lifetime=60.0)
        with pytest.raises(SecurityError, match="expired"):
            cas.verify_assertion(a, now=120.0)

    def test_assertion_subject_binding(self, world):
        cas = self.make_cas(world)
        cas.add_member("/CN=Alice", {"x"})
        a = cas.issue_assertion("/CN=Alice", now=0.0)
        with pytest.raises(SecurityError, match="presented by"):
            cas.verify_assertion(a, now=1.0, expected_subject="/CN=Mallory")

    def test_tampered_rights_rejected(self, world):
        from dataclasses import replace

        cas = self.make_cas(world)
        cas.add_member("/CN=Alice", {"repository:read"})
        a = cas.issue_assertion("/CN=Alice", now=0.0)
        forged = replace(a, rights=frozenset({"repository:admin"}))
        with pytest.raises(SecurityError):
            cas.verify_assertion(forged, now=1.0)

    def test_non_member_cannot_get_assertion(self, world):
        cas = self.make_cas(world)
        with pytest.raises(SecurityError, match="not a community member"):
            cas.issue_assertion("/CN=Ghost", now=0.0)

    def test_revoke(self, world):
        cas = self.make_cas(world)
        cas.add_member("/CN=Alice", {"a", "b"})
        cas.revoke("/CN=Alice", "a")
        assert cas.rights_of("/CN=Alice") == {"b"}


class TestEndToEndAuth:
    def test_token_flow(self, world):
        crypto, ca = world
        now = [1000.0]

        def clock():
            return now[0]

        user = ca.issue_credential("/CN=Alice", not_after=1e9)
        proxy = user.delegate(now=clock())
        auth = GsiAuthenticator(proxy, clock)

        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        checker = GsiChecker(crypto, [ca.certificate], gm, clock)

        token = auth.token("propose")
        principal = checker(token, "propose")
        assert principal.local_user == "alice"
        assert principal.subject == "/CN=Alice"

    def test_method_binding(self, world):
        crypto, ca = world
        def clock():
            return 0.0
        user = ca.issue_credential("/CN=Alice", not_after=1e9)
        auth = GsiAuthenticator(user, clock)
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        checker = GsiChecker(crypto, [ca.certificate], gm, clock)
        token = auth.token("propose")
        with pytest.raises(SecurityError, match="minted for"):
            checker(token, "execute")

    def test_stale_token_rejected(self, world):
        crypto, ca = world
        now = [0.0]

        def clock():
            return now[0]
        user = ca.issue_credential("/CN=Alice", not_after=1e9)
        auth = GsiAuthenticator(user, clock)
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        checker = GsiChecker(crypto, [ca.certificate], gm, clock, max_skew=60.0)
        token = auth.token("propose")
        now[0] = 1000.0
        with pytest.raises(SecurityError, match="skew"):
            checker(token, "propose")

    def test_unauthenticated_request_rejected(self, world):
        crypto, ca = world
        checker = GsiChecker(crypto, [ca.certificate], Gridmap(), lambda: 0.0)
        with pytest.raises(SecurityError, match="not GSI-authenticated"):
            checker("just a string", "propose")

    def test_cas_right_required(self, world):
        crypto, ca = world
        def clock():
            return 0.0
        cas_cred = ca.issue_credential("/CN=NEES CAS")
        cas = CommunityAuthorizationService(crypto, cas_cred)
        cas.add_member("/CN=Alice", {"repository:write"})
        cas.add_member("/CN=Bob", set())

        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        gm.add("/CN=Bob", "bob")
        checker = GsiChecker(crypto, [ca.certificate], gm, clock, cas=cas,
                             required_right="repository:write")

        alice = ca.issue_credential("/CN=Alice", not_after=1e9)
        a_auth = GsiAuthenticator(
            alice, clock, cas_assertion=cas.issue_assertion("/CN=Alice", now=0.0))
        p = checker(a_auth.token("upload"), "upload")
        assert p.has_right("repository:write")

        bob = ca.issue_credential("/CN=Bob", not_after=1e9)
        b_auth = GsiAuthenticator(
            bob, clock, cas_assertion=cas.issue_assertion("/CN=Bob", now=0.0))
        with pytest.raises(SecurityError, match="missing CAS right"):
            checker(b_auth.token("upload"), "upload")

    def test_proxy_token_maps_to_end_entity(self, world):
        crypto, ca = world
        def clock():
            return 0.0
        user = ca.issue_credential("/CN=Alice", not_after=1e9)
        proxy = user.delegate(now=0.0).delegate(now=0.0)
        auth = GsiAuthenticator(proxy, clock)
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")  # only the end entity is mapped
        checker = GsiChecker(crypto, [ca.certificate], gm, clock)
        assert checker(auth.token("m"), "m").local_user == "alice"


def alice_checker(world, clock=lambda: 0.0):
    """(checker, good token for "m") for a CA-issued Alice on a gridmap."""
    crypto, ca = world
    user = ca.issue_credential("/CN=Alice", not_after=1e9)
    gm = Gridmap()
    gm.add("/CN=Alice", "alice")
    checker = GsiChecker(crypto, [ca.certificate], gm, clock)
    return checker, GsiAuthenticator(user, clock).token("m")


class TestMalformedTokens:
    """A token the checks cannot evaluate is refused, never a crash."""

    @pytest.mark.parametrize("field, value, message", [
        ("chain", None, "chain"),
        ("chain", ["junk"], "chain"),
        ("chain", (), "chain"),
        ("chain", ("junk",), "chain"),
        ("method", 7, "method"),
        ("signature", None, "signature"),
        ("timestamp", "x", "timestamp"),
        ("timestamp", None, "timestamp"),
        ("timestamp", float("inf"), "timestamp"),
        ("timestamp", float("nan"), "timestamp"),
        ("cas_assertion", "junk", "cas_assertion"),
    ])
    def test_malformed_field_is_a_security_error(self, world, field, value,
                                                 message):
        checker, token = alice_checker(world)
        assert checker(token, "m").local_user == "alice"
        with pytest.raises(SecurityError, match=f"malformed token: .*{message}"):
            checker(replace(token, **{field: value}), "m")

    def test_a_list_of_good_certificates_is_not_a_chain(self, world):
        checker, token = alice_checker(world)
        with pytest.raises(SecurityError, match="malformed token: chain"):
            checker(replace(token, chain=list(token.chain)), "m")

    def test_shape_is_checked_before_the_method(self, world):
        checker, token = alice_checker(world)
        with pytest.raises(SecurityError, match="malformed token"):
            checker(replace(token, timestamp="x"), "other-method")

    def test_a_nan_stamped_token_never_verifies(self, world):
        """Signed over ``m|nan`` by the real key, it would pass the skew test
        ``abs(now - nan) > max_skew`` at every ``now``."""
        crypto, ca = world
        user = ca.issue_credential("/CN=Alice", not_after=1e9)
        token = GsiAuthenticator(user, lambda: math.nan).token("m")
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        for now in (0.0, 1e6):
            checker = GsiChecker(crypto, [ca.certificate], gm, lambda: now)
            with pytest.raises(SecurityError, match="timestamp"):
                checker(token, "m")

    def test_a_token_cannot_choose_what_its_signature_covers(self, world):
        """A token subclass whose ``signed_payload`` names another call
        cannot replay that call's signature on ``execute``: the checker
        verifies the signature over the method and timestamp it checked."""
        checker, token = alice_checker(world)

        class Replaying(GsiToken):
            def signed_payload(self):
                return token.signed_payload()

        forged = Replaying(chain=token.chain, method="execute",
                           timestamp=token.timestamp,
                           signature=token.signature)
        with pytest.raises(SecurityError):
            checker(forged, "execute")


class TestCertificateValues:
    def test_equal_certificates_sign_equal_bytes(self, world):
        _, ca = world
        cert = ca.certificate  # serial 1, valid from 0.0, a CA
        for twin in (replace(cert, not_before=-0.0),
                     replace(cert, serial=True), replace(cert, is_ca=1)):
            assert twin == cert and hash(twin) == hash(cert)
            assert twin.canonical() == cert.canonical()

    def test_a_certificate_field_of_the_wrong_type_is_refused(self, world):
        _, ca = world
        cert = ca.certificate
        with pytest.raises(TypeError, match="subject"):
            replace(cert, subject=["/CN=list"])
        with pytest.raises(ValueError):
            replace(cert, not_after="never")


def count_validations(monkeypatch):
    """Every chain walk the checkers make from now on."""
    walked = []

    def counting(crypto, chain, anchors, *, now):
        walked.append(chain)
        return validate_chain(crypto, chain, anchors, now=now)

    monkeypatch.setattr(gsi_session, "validate_chain", counting)
    return walked


class TestChainMemo:
    def test_a_chain_is_walked_once_inside_its_window(self, world,
                                                      monkeypatch):
        walked = count_validations(monkeypatch)
        now = [0.0]
        checker, _ = alice_checker(world, clock=lambda: now[0])
        _, ca = world
        proxy = ca.issue_credential("/CN=Alice", not_after=1e9).delegate(
            now=0.0, lifetime=100.0)
        auth = GsiAuthenticator(proxy, lambda: now[0])
        for now[0] in (0.0, 10.0, 99.0, 100.0):
            assert checker(auth.token("m"), "m").subject == "/CN=Alice"
        assert len(walked) == 1
        now[0] = 100.5
        with pytest.raises(SecurityError, match="not valid at t=100.5"):
            checker(auth.token("m"), "m")
        assert len(walked) == 2

    def test_refused_before_its_window_then_accepted_inside_it(
            self, world, monkeypatch):
        walked = count_validations(monkeypatch)
        crypto, ca = world
        now = [10.0]
        user = ca.issue_credential("/CN=Alice", not_before=50.0,
                                   not_after=1e9)
        gm = Gridmap()
        gm.add("/CN=Alice", "alice")
        checker = GsiChecker(crypto, [ca.certificate], gm, lambda: now[0])
        auth = GsiAuthenticator(user, lambda: now[0])
        with pytest.raises(SecurityError, match="not valid at t=10.0"):
            checker(auth.token("m"), "m")
        now[0] = 60.0
        assert checker(auth.token("m"), "m").local_user == "alice"
        assert checker(auth.token("m"), "m").local_user == "alice"
        assert len(walked) == 2  # the refusal was not kept

    def test_a_tampered_copy_of_an_accepted_chain_is_walked_and_refused(
            self, world):
        checker, token = alice_checker(world)
        checker(token, "m")
        stretched = replace(token.chain[0], not_after=2e9)  # old signature
        with pytest.raises(SecurityError, match="trust anchor"):
            checker(replace(token, chain=(stretched,)), "m")

    def test_trust_anchors_are_a_tuple(self, world):
        checker, _ = alice_checker(world)
        assert isinstance(checker.trust_anchors, tuple)


NOWS = st.one_of(
    st.sampled_from([-1.0, 0.0, 29.9, 30.0, 49.0, 50.0, 89.9, 90.0, 120.0,
                     120.5, 199.0, 250.0, 1e4]),
    st.floats(50.0, 120.0))
IDENTITY = st.tuples(st.sampled_from([0.0, 50.0]),                # not_before
                     st.sampled_from([120.0, 250.0, math.inf]),   # not_after
                     st.lists(st.tuples(st.sampled_from([0.0, 30.0]),
                                        st.sampled_from([90.0, 1e3, 1e3])),
                              max_size=3),                        # proxies
                     st.sampled_from([True, True, False]),        # mapped
                     st.booleans())                     # and a tampered copy
CALL = st.tuples(st.integers(0, 5),                             # chain
                 NOWS,                                          # when
                 st.sampled_from([0.0, 5.0, 250.0, -350.0]),    # age; skew 300
                 st.sampled_from([True, True, True, False]))    # same method


def _verdict(checker, token, method):
    try:
        return checker(token, method)
    except SecurityError as exc:
        return f"refused: {exc}"


class TestMemoisedCheckerProperty:
    @given(st.lists(IDENTITY, min_size=1, max_size=3),
           st.lists(CALL, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_memoised_checker_equals_a_fresh_walk_per_call(self, identities,
                                                           calls):
        """Identity or 1–3-proxy chains whose windows the clock crosses both
        ways, some with a tampered copy (same subject, stretched
        ``not_after``, old signature): one long-lived checker and a fresh
        checker per call give the same principal or the same refusal."""
        crypto = Crypto(np.random.default_rng(7))
        ca = CertificateAuthority(crypto, "/O=NEESgrid/CN=NEES CA")
        gridmap = Gridmap()
        signers = []  # (chain, credential holding its leaf key)
        for i, (not_before, not_after, proxies, mapped,
                tampered) in enumerate(identities):
            subject = f"/CN=User{i}"
            cred = ca.issue_credential(subject, not_before=not_before,
                                       not_after=not_after)
            for at, lifetime in proxies:
                cred = cred.delegate(now=at, lifetime=lifetime)
            if mapped:
                gridmap.add(subject, f"user{i}")
            signers.append((cred.chain, cred))
            if tampered:
                stretched = replace(cred.chain[0],
                                    not_after=cred.chain[0].not_after + 500.0)
                signers.append(((stretched,) + cred.chain[1:], cred))
        now = [0.0]
        memoised = GsiChecker(crypto, [ca.certificate], gridmap,
                              lambda: now[0])
        for which, at, age, same_method in calls:
            chain, cred = signers[which % len(signers)]
            now[0] = at
            token = replace(GsiAuthenticator(cred, lambda: at - age)
                            .token("propose"), chain=chain)
            used = "propose" if same_method else "execute"
            fresh = GsiChecker(crypto, [ca.certificate], gridmap,
                               lambda: now[0])
            assert (_verdict(memoised, token, used)
                    == _verdict(fresh, token, used))
