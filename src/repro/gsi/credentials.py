"""Certificates, certificate authorities, credentials, proxy delegation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.gsi.crypto import Crypto, KeyPair
from repro.util.errors import SecurityError


@dataclass(frozen=True)
class Certificate:
    """An X.509-shaped certificate binding a subject to a public key.

    ``is_proxy`` marks GSI proxy certificates: short-lived certs issued by an
    end entity (or another proxy) whose subject extends the issuer's subject
    with a ``/proxy`` component, enabling single-sign-on delegation.
    """

    subject: str
    issuer: str
    public_key: str
    serial: int
    not_before: float
    not_after: float
    is_ca: bool = False
    is_proxy: bool = False
    signature: str = ""

    def __post_init__(self):
        # Equal certificates sign equal bytes: the fields ``canonical``
        # formats are coerced, so ``-0.0`` or ``True`` cannot pass for
        # ``0.0`` or ``1`` under a verdict keyed on a chain's value
        # (``GsiChecker``), and every field hashes.
        for name in ("subject", "issuer", "public_key", "signature"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"certificate {name} must be a string")
        for name, kind in (("serial", int), ("is_ca", bool),
                           ("is_proxy", bool)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        for name in ("not_before", "not_after"):
            object.__setattr__(self, name, float(getattr(self, name)) + 0.0)

    def canonical(self) -> str:
        """Deterministic byte-string the signature covers."""
        return "|".join([
            self.subject, self.issuer, self.public_key, str(self.serial),
            f"{self.not_before:.6f}", f"{self.not_after:.6f}",
            str(self.is_ca), str(self.is_proxy),
        ])

    def valid_at(self, now: float) -> bool:
        """True if ``now`` falls inside the certificate's validity window."""
        return self.not_before <= now <= self.not_after


class CertificateAuthority:
    """A trust anchor that issues identity certificates.

    >>> world = Crypto()
    >>> ca = CertificateAuthority(world, "/C=US/O=NEESgrid/CN=NEES CA")
    >>> cred = ca.issue_credential("/O=NEESgrid/CN=Alice", not_after=3600.0)
    >>> validate_chain(world, cred.chain, [ca.certificate], now=10.0).subject
    '/O=NEESgrid/CN=Alice'
    """

    def __init__(self, crypto: Crypto, name: str, *,
                 not_before: float = 0.0, not_after: float = float("inf")):
        self.crypto = crypto
        self.name = name
        self.keypair = crypto.keygen()
        self._serial = 0
        cert = Certificate(subject=name, issuer=name,
                           public_key=self.keypair.public, serial=self._next(),
                           not_before=not_before, not_after=not_after,
                           is_ca=True)
        self.certificate = replace(
            cert, signature=crypto.sign(self.keypair.private, cert.canonical()))

    def _next(self) -> int:
        self._serial += 1
        return self._serial

    def issue(self, subject: str, public_key: str, *, not_before: float = 0.0,
              not_after: float = float("inf"), is_ca: bool = False) -> Certificate:
        """Sign and return a certificate for ``subject``."""
        cert = Certificate(subject=subject, issuer=self.name,
                           public_key=public_key, serial=self._next(),
                           not_before=not_before, not_after=not_after,
                           is_ca=is_ca)
        return replace(cert, signature=self.crypto.sign(
            self.keypair.private, cert.canonical()))

    def issue_credential(self, subject: str, *, not_before: float = 0.0,
                         not_after: float = float("inf")) -> "Credential":
        """Generate a key pair and a certificate for it, bundled."""
        keys = self.crypto.keygen()
        cert = self.issue(subject, keys.public, not_before=not_before,
                          not_after=not_after)
        return Credential(crypto=self.crypto, keypair=keys, chain=(cert,))


@dataclass
class Credential:
    """A private key plus its certificate chain (leaf first).

    A credential may be an identity credential (chain of one, CA-issued) or a
    proxy credential whose chain runs proxy → ... → identity certificate.
    """

    crypto: Crypto
    keypair: KeyPair
    chain: tuple[Certificate, ...]
    _proxy_count: int = field(default=0, repr=False)

    @property
    def certificate(self) -> Certificate:
        """The leaf certificate (first element of the chain)."""
        return self.chain[0]

    @property
    def subject(self) -> str:
        """The leaf certificate's subject DN (proxy components included)."""
        return self.chain[0].subject

    @property
    def identity(self) -> str:
        """The end-entity subject, with any ``/proxy`` components stripped."""
        subject = self.subject
        idx = subject.find("/proxy-")
        return subject if idx < 0 else subject[:idx]

    def sign(self, data: str) -> str:
        """Sign arbitrary data with this credential's private key."""
        return self.crypto.sign(self.keypair.private, data)

    def delegate(self, *, now: float, lifetime: float = 12 * 3600.0) -> "Credential":
        """Create a proxy credential (GSI single sign-on / delegation).

        The proxy gets a fresh key pair; its certificate is signed by *this*
        credential (not a CA), has a bounded lifetime, and extends the
        subject name — mirroring RFC 3820 proxy certificates.
        """
        self._proxy_count += 1
        keys = self.crypto.keygen()
        cert = Certificate(
            subject=f"{self.subject}/proxy-{self._proxy_count}",
            issuer=self.subject, public_key=keys.public,
            serial=self._proxy_count, not_before=now,
            not_after=min(now + lifetime, self.certificate.not_after),
            is_proxy=True)
        signed = replace(cert, signature=self.sign(cert.canonical()))
        return Credential(crypto=self.crypto, keypair=keys,
                          chain=(signed,) + self.chain)


def validate_chain(crypto: Crypto, chain: Iterable[Certificate],
                   trust_anchors: Iterable[Certificate], *, now: float,
                   max_proxy_depth: int = 8) -> Certificate:
    """Validate a certificate chain; return the leaf certificate.

    Checks, leaf to root: validity windows, signature of each certificate by
    its successor's key (or by a trust anchor for the last), proxy naming
    rules (a proxy's subject must extend its issuer's subject), and that the
    chain terminates at a configured trust anchor.  Raises
    :class:`SecurityError` on any violation.
    """
    chain = list(chain)
    if not chain:
        raise SecurityError("empty certificate chain")
    anchors = {c.public_key: c for c in trust_anchors}
    proxy_depth = 0
    for i, cert in enumerate(chain):
        if not cert.valid_at(now):
            raise SecurityError(
                f"certificate {cert.subject!r} not valid at t={now}")
        if cert.is_proxy:
            proxy_depth += 1
            if proxy_depth > max_proxy_depth:
                raise SecurityError("proxy chain too deep")
            if not cert.subject.startswith(cert.issuer + "/"):
                raise SecurityError(
                    f"proxy subject {cert.subject!r} does not extend issuer")
        issuer_cert = chain[i + 1] if i + 1 < len(chain) else None
        if issuer_cert is not None:
            if issuer_cert.subject != cert.issuer:
                raise SecurityError(
                    f"chain break: {cert.subject!r} issued by {cert.issuer!r} "
                    f"but next cert is {issuer_cert.subject!r}")
            if not cert.is_proxy and not issuer_cert.is_ca:
                raise SecurityError(
                    f"non-CA {issuer_cert.subject!r} issued identity cert")
            crypto.require_valid(issuer_cert.public_key, cert.canonical(),
                                 cert.signature,
                                 what=f"signature on {cert.subject!r}")
        else:
            # Chain root: must be signed by (or be) a trust anchor.
            anchor = None
            for a in anchors.values():
                if a.subject == cert.issuer and crypto.verify(
                        a.public_key, cert.canonical(), cert.signature):
                    anchor = a
                    break
            if anchor is None:
                raise SecurityError(
                    f"chain for {chain[0].subject!r} does not terminate at a "
                    f"trust anchor (root issuer {cert.issuer!r})")
    return chain[0]
