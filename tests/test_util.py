"""Unit tests for repro.util: ids and the error hierarchy."""

import numpy as np

from repro.util import (
    IdFactory,
    PolicyViolation,
    ReproError,
    uuid_like,
)
from repro.util.errors import (
    ConfigurationError,
    FaultInjected,
    ProtocolError,
    SecurityError,
    TransportError,
)


class TestIdFactory:
    def test_sequential(self):
        f = IdFactory("txn")
        assert f() == "txn-1"
        assert f() == "txn-2"
        assert f() == "txn-3"

    def test_custom_start(self):
        f = IdFactory("x", start=100)
        assert f() == "x-100"

    def test_independent_factories(self):
        a, b = IdFactory("a"), IdFactory("b")
        a()
        a()
        assert b() == "b-1"


class TestUuidLike:
    def test_shape(self):
        rng = np.random.default_rng(0)
        u = uuid_like(rng)
        parts = u.split("-")
        assert [len(p) for p in parts] == [8, 4, 4, 4, 12]
        assert all(c in "0123456789abcdef-" for c in u)

    def test_deterministic(self):
        assert uuid_like(np.random.default_rng(7)) == \
            uuid_like(np.random.default_rng(7))

    def test_distinct_draws(self):
        rng = np.random.default_rng(1)
        assert uuid_like(rng) != uuid_like(rng)


class TestErrors:
    def test_hierarchy(self):
        for exc in (ConfigurationError, ProtocolError, SecurityError,
                    PolicyViolation, FaultInjected, TransportError):
            assert issubclass(exc, ReproError)

    def test_policy_violation_payload(self):
        e = PolicyViolation("too far", parameter="disp", limit=0.05, requested=0.08)
        assert e.parameter == "disp"
        assert e.limit == 0.05
        assert e.requested == 0.08
        assert "too far" in str(e)
