"""Message-level GSI authentication for RPC.

A :class:`GsiAuthenticator` wraps a credential and mints a :class:`GsiToken`
per request: the full certificate chain plus a signature (by the leaf key)
over the method name and timestamp, which prevents replaying a token against
a different method long after capture.  A :class:`GsiChecker` installed as an
:class:`repro.net.rpc.RpcService` ``checker`` validates the chain against the
site's trust anchors (once per distinct chain), checks the token's freshness
and signature on every request, optionally verifies a CAS
assertion, and finally authorizes through the site gridmap — returning the
:class:`~repro.gsi.authz.Principal` handed to service handlers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.gsi.authz import Gridmap, Principal
from repro.gsi.cas import CasAssertion, CommunityAuthorizationService
from repro.gsi.credentials import Certificate, Credential, validate_chain
from repro.gsi.crypto import Crypto
from repro.util.errors import SecurityError


def _signed_payload(method: str, timestamp: float) -> str:
    """The method+timestamp string a token's signature covers."""
    return f"{method}|{timestamp:.6f}"


@dataclass(frozen=True)
class GsiToken:
    """The credential object attached to each authenticated RPC request."""

    chain: tuple[Certificate, ...]
    method: str
    timestamp: float
    signature: str
    cas_assertion: CasAssertion | None = None

    def signed_payload(self) -> str:
        """The method+timestamp string the token's signature covers."""
        return _signed_payload(self.method, self.timestamp)


class GsiAuthenticator:
    """Client side: mints per-request tokens from a (proxy) credential."""

    def __init__(self, credential: Credential,
                 clock: Callable[[], float],
                 cas_assertion: CasAssertion | None = None):
        self.credential = credential
        self.clock = clock
        self.cas_assertion = cas_assertion

    def token(self, method: str) -> GsiToken:
        """A fresh token authenticating a call to ``method`` right now."""
        timestamp = self.clock()
        return GsiToken(
            chain=self.credential.chain, method=method, timestamp=timestamp,
            signature=self.credential.sign(_signed_payload(method, timestamp)),
            cas_assertion=self.cas_assertion)

    #: the RPC ``credential=`` argument factory
    credential_for = token


_MALFORMED_CHAIN = ("malformed token: chain is not a non-empty tuple of "
                    "certificates")


class GsiChecker:
    """Server side: validates tokens; plugs into ``RpcService(checker=...)``.

    Checks, in order: token shape, method binding, clock-skew window, chain
    validity against the trust anchors, leaf signature over (method,
    timestamp), optional CAS assertion (bound to the caller's identity),
    then gridmap authorization.

    A chain is validated once per checker: an accepted chain's verdict —
    its leaf, the identity it authenticates, and the intersection of its
    certificates' validity windows — is kept under the chain's value.  A
    later call presenting an equal chain inside that window skips
    :func:`validate_chain`'s walk and certificate signatures; outside it,
    the call walks again and is refused with the walk's own message.
    Everything else is checked on every call.  Sound because certificates
    are frozen values whose equality implies equal signed bytes, the trust
    anchors are a tuple, and the :class:`Crypto` registry only grows.
    Refusals are not kept, so the memo holds only chains that end at a
    trust anchor — at most one entry per CA-signed credential presented.
    """

    def __init__(self, crypto: Crypto, trust_anchors: Iterable[Certificate],
                 gridmap: Gridmap, clock: Callable[[], float], *,
                 max_skew: float = 300.0,
                 cas: CommunityAuthorizationService | None = None,
                 required_right: str | None = None):
        self.crypto = crypto
        self.trust_anchors = tuple(trust_anchors)
        self.gridmap = gridmap
        self.clock = clock
        self.max_skew = max_skew
        self.cas = cas
        self.required_right = required_right
        #: accepted chain -> (leaf, identity, latest not_before,
        #: earliest not_after)
        self._verdicts: dict[tuple[Certificate, ...],
                             tuple[Certificate, str, float, float]] = {}

    def _validate(self, chain: tuple[Certificate, ...],
                  now: float) -> tuple[Certificate, str, float, float]:
        """Walk ``chain`` with :func:`validate_chain` and keep its verdict,
        or raise the walk's refusal."""
        leaf = validate_chain(self.crypto, chain, self.trust_anchors, now=now)
        # Identity = end-entity subject (proxies stripped): sites map people,
        # not individual proxies.
        verdict = self._verdicts[chain] = (
            leaf, leaf.subject.partition("/proxy-")[0],
            max(cert.not_before for cert in chain),
            min(cert.not_after for cert in chain))
        return verdict

    def __call__(self, credential: object, method: str) -> Principal:
        # Token shape: anything the checks below cannot evaluate is refused
        # on the wire instead of raising out of the kernel, and a NaN
        # timestamp cannot pass the skew test forever.  Types are exact
        # where a subclass could redefine equality or hashing under the memo.
        if type(credential) is not GsiToken:
            raise SecurityError("request not GSI-authenticated")
        token = credential
        chain, timestamp = token.chain, token.timestamp
        if type(chain) is not tuple or not chain:
            raise SecurityError(_MALFORMED_CHAIN)
        for cert in chain:
            if type(cert) is not Certificate:
                raise SecurityError(_MALFORMED_CHAIN)
        if type(token.method) is not str or type(token.signature) is not str:
            raise SecurityError(
                "malformed token: method and signature must be strings")
        if not (isinstance(timestamp, (int, float))
                and math.isfinite(timestamp)):
            raise SecurityError(
                "malformed token: timestamp is not a finite number")
        if (token.cas_assertion is not None
                and type(token.cas_assertion) is not CasAssertion):
            raise SecurityError(
                "malformed token: cas_assertion is not a CAS assertion")

        if token.method != method:
            raise SecurityError(
                f"token minted for {token.method!r} used on {method!r}")
        now = self.clock()
        if abs(now - timestamp) > self.max_skew:
            raise SecurityError("token timestamp outside skew window")
        verdict = self._verdicts.get(chain)
        if verdict is None or not verdict[2] <= now <= verdict[3]:
            verdict = self._validate(chain, now)
        leaf, identity, _, _ = verdict
        self.crypto.require_valid(
            leaf.public_key, _signed_payload(method, timestamp),
            token.signature, what="request signature")
        rights: frozenset[str] = frozenset()
        if self.cas is not None and token.cas_assertion is not None:
            rights = self.cas.verify_assertion(
                token.cas_assertion, now=now, expected_subject=identity)
        if self.required_right is not None and self.required_right not in rights:
            raise SecurityError(
                f"missing CAS right {self.required_right!r} for {identity!r}")
        principal = self.gridmap.authorize(identity, method)
        return Principal(subject=principal.subject,
                         local_user=principal.local_user, rights=rights)
