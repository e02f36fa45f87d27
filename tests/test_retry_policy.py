"""The shared retry schedule: backoff edges, exhaustion, breaker gating.

Covers :class:`repro.net.retry.RetryPolicy` at the edges the durable
queue leans on: deterministic jittered backoff on the simulated clock,
budget exhaustion surfacing the *last* underlying error, the
never-retried breaker-open and fencing refusals, and the schedules it
refuses to build.
"""

import pytest

from repro.coordinator import FaultTolerantFaultPolicy
from repro.net.breaker import BreakerOpen
from repro.net.retry import RetryPolicy
from repro.sim import Kernel
from repro.util.errors import FencingError, ProtocolError


def run_call(kernel, policy, make_attempt, **kwargs):
    def proc():
        result = yield from policy.call(kernel, make_attempt, **kwargs)
        return result
    return kernel.run(until=kernel.process(proc(), name="retry.test"))


def failing_attempts(errors, results=(), *, log=None):
    """A ``make_attempt`` factory raising ``errors`` in order, then
    returning ``results`` in order."""
    script = list(errors) + list(results)
    calls = []

    def make_attempt():
        def attempt():
            calls.append(len(calls) + 1)
            if log is not None:
                log.append(len(calls))
            outcome = script[len(calls) - 1]
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome
            yield  # pragma: no cover - generator shape
        return attempt()

    return make_attempt, calls


class TestConstruction:
    def test_invalid_shapes_are_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    @pytest.mark.parametrize("field, value", [
        ("base_delay", float("nan")),
        ("max_delay", float("nan")),
        ("factor", float("nan")),
        ("factor", float("inf")),
        ("max_attempts", 3.0),
        ("max_attempts", True),
    ])
    def test_a_schedule_that_cannot_wait_is_refused(self, field, value):
        """NaN in a delay (or ``0 * inf`` from an infinite factor) makes
        ``delay_for`` NaN, and ``delay > 0`` then skips every wait; a
        float or bool attempt budget is not a count."""
        with pytest.raises(ValueError):
            RetryPolicy(**{field: value})

    def test_the_fault_policy_refuses_a_nan_backoff(self):
        with pytest.raises(ValueError, match="delays"):
            FaultTolerantFaultPolicy(backoff=float("nan"))


class TestBackoffDeterminism:
    POLICY = RetryPolicy(max_attempts=5, base_delay=2.0, factor=2.0,
                         max_delay=10.0, jitter=0.25)

    def test_same_key_same_attempt_same_delay(self):
        first = list(self.POLICY.delays(key="queue.claim"))
        second = list(self.POLICY.delays(key="queue.claim"))
        assert first == second
        assert len(first) == 4  # max_attempts - 1 inter-attempt gaps

    def test_distinct_keys_decorrelate(self):
        assert list(self.POLICY.delays(key="a")) != \
            list(self.POLICY.delays(key="b"))

    def test_jitter_stretches_within_its_fraction(self):
        plain = RetryPolicy(max_attempts=5, base_delay=2.0, factor=2.0,
                            max_delay=10.0, jitter=0.0)
        for attempt in range(1, 5):
            base = plain.delay_for(attempt)
            jittered = self.POLICY.delay_for(attempt, key="k")
            assert base <= jittered <= base * 1.25

    def test_delay_caps_at_max_delay(self):
        plain = RetryPolicy(max_attempts=8, base_delay=2.0, factor=2.0,
                            max_delay=10.0)
        assert [plain.delay_for(a) for a in range(1, 8)] == \
            [2.0, 4.0, 8.0, 10.0, 10.0, 10.0, 10.0]
        assert plain.delay_for(0) == 0.0

    def test_backoff_sleeps_on_the_simulated_clock(self):
        kernel = Kernel()
        policy = RetryPolicy(max_attempts=3, base_delay=5.0, factor=2.0)
        make_attempt, calls = failing_attempts(
            [ProtocolError("one"), ProtocolError("two")], ["ok"])
        result = run_call(kernel, policy, make_attempt, key="k")
        assert result == "ok" and calls == [1, 2, 3]
        assert kernel.now == pytest.approx(5.0 + 10.0)


class TestExhaustion:
    def test_exhaustion_surfaces_the_last_error(self):
        """The operator's diagnosis is what finally failed, not what
        failed first."""
        kernel = Kernel()
        policy = RetryPolicy(max_attempts=3)
        make_attempt, calls = failing_attempts(
            [ProtocolError("first"), ProtocolError("middle"),
             ProtocolError("last")])
        with pytest.raises(ProtocolError, match="last"):
            run_call(kernel, policy, make_attempt, key="k")
        assert calls == [1, 2, 3]  # the full budget was spent

    def test_non_retryable_errors_pass_straight_through(self):
        kernel = Kernel()
        policy = RetryPolicy(max_attempts=3)
        make_attempt, calls = failing_attempts(
            [ValueError("not a ReproError")])
        with pytest.raises(ValueError):
            run_call(kernel, policy, make_attempt)
        assert calls == [1]


class TestBreakerShortCircuit:
    def test_breaker_open_raised_by_the_attempt_is_never_retried(self):
        kernel = Kernel()
        policy = RetryPolicy(max_attempts=5, base_delay=1.0)
        make_attempt, calls = failing_attempts(
            [BreakerOpen("uiuc", 42.0)], ["never"])
        with pytest.raises(BreakerOpen):
            run_call(kernel, policy, make_attempt)
        assert calls == [1]

    def test_fencing_error_is_never_retried(self):
        """A superseded epoch can never become current by waiting."""
        kernel = Kernel()
        policy = RetryPolicy(max_attempts=5, base_delay=1.0)
        make_attempt, calls = failing_attempts(
            [FencingError("stale", epoch=1, current_epoch=2,
                          path="queue.claim")], ["never"])
        with pytest.raises(FencingError):
            run_call(kernel, policy, make_attempt)
        assert calls == [1]
