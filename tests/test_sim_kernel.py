"""Unit + property tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Interrupt, Kernel
from repro.telemetry import InMemorySink


class TestEventBasics:
    def test_succeed_value(self):
        k = Kernel()
        e = k.event()
        e.succeed(42)
        k.run()
        assert e.processed and e.ok and e.value == 42

    def test_double_trigger_forbidden(self):
        k = Kernel()
        e = k.event()
        e.succeed(1)
        with pytest.raises(RuntimeError):
            e.succeed(2)
        with pytest.raises(RuntimeError):
            e.fail(ValueError())

    def test_fail_requires_exception(self):
        k = Kernel()
        with pytest.raises(TypeError):
            k.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        k = Kernel()
        with pytest.raises(RuntimeError):
            _ = k.event().value

    def test_unobserved_failure_raises_at_run(self):
        k = Kernel()
        k.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            k.run()

    def test_defused_failure_is_silent(self):
        k = Kernel()
        k.event().fail(ValueError("boom")).defuse()
        k.run()  # no raise

    def test_callback_after_processed_runs_immediately(self):
        k = Kernel()
        e = k.event()
        e.succeed("x")
        k.run()
        seen = []
        e.add_callback(lambda evt: seen.append(evt.value))
        assert seen == ["x"]


class TestTimeouts:
    def test_timeout_advances_clock(self):
        k = Kernel()
        t = k.timeout(3.5)
        k.run()
        assert k.now == 3.5 and t.processed

    def test_negative_delay_rejected(self):
        k = Kernel()
        with pytest.raises(ValueError):
            k.timeout(-1)

    def test_same_time_fifo_order(self):
        k = Kernel()
        order = []
        for i in range(5):
            k.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        k.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_time_stops_clock(self):
        k = Kernel()
        fired = []
        k.timeout(10).add_callback(lambda e: fired.append(10))
        k.timeout(2).add_callback(lambda e: fired.append(2))
        k.run(until=5.0)
        assert fired == [2]
        assert k.now == 5.0
        k.run()
        assert fired == [2, 10]

    def test_run_until_past_raises(self):
        k = Kernel()
        k.timeout(10)
        k.run(until=5)
        with pytest.raises(ValueError):
            k.run(until=1)

    def test_peek(self):
        k = Kernel()
        assert k.peek() == float("inf")
        k.timeout(4)
        assert k.peek() == 4.0


class TestScheduledCalls:
    """``call_later``: a heap entry that is a call, not an Event."""

    def test_calls_and_events_of_one_instant_fire_in_creation_order(self):
        k = Kernel()
        order = []
        k.timeout(1.0).add_callback(lambda e: order.append("timeout-1"))
        k.call_later(1.0, order.append, "call-2")
        k.timeout(1.0).add_callback(lambda e: order.append("timeout-3"))
        k.call_later(1.0, order.append, "call-4")
        k.event().succeed().add_callback(lambda e: order.append("event-now"))
        k.call_later(0.0, order.append, "call-now")
        k.run()
        assert order == ["event-now", "call-now",
                         "timeout-1", "call-2", "timeout-3", "call-4"]
        assert k.now == 1.0

    def test_argument_defaults_to_none(self):
        k = Kernel()
        got = []
        k.call_later(2.0, got.append)
        k.run()
        assert got == [None]

    def test_negative_delay_rejected(self):
        k = Kernel()
        with pytest.raises(ValueError):
            k.call_later(-0.1, print)
        assert k.peek() == float("inf")  # nothing was enqueued

    def test_exception_from_the_call_surfaces_from_run(self):
        k = Kernel()

        def boom(arg):
            raise KeyError(arg)

        k.call_later(1.0, boom, "lost")
        with pytest.raises(KeyError, match="lost"):
            k.run()
        assert k.now == 1.0

    def test_peek_and_run_until_see_it(self):
        k = Kernel()
        got = []
        k.call_later(7.0, got.append, "late")
        k.call_later(3.0, got.append, "early")
        assert k.peek() == pytest.approx(3.0)
        k.run(until=5.0)
        assert got == ["early"] and k.now == 5.0
        assert k.peek() == pytest.approx(7.0)
        k.run()
        assert got == ["early", "late"] and k.now == 7.0

    def test_run_until_event_counts_a_call_as_pending_work(self):
        k = Kernel()
        done = k.event()
        k.call_later(4.0, done.succeed, "woken")
        assert k.run(until=done) == "woken"
        assert k.now == 4.0


class TestProcesses:
    def test_sequence_of_timeouts(self):
        k = Kernel()
        trace = []

        def proc(kernel):
            trace.append(kernel.now)
            yield kernel.timeout(1)
            trace.append(kernel.now)
            yield kernel.timeout(2)
            trace.append(kernel.now)
            return "done"

        p = k.process(proc(k))
        k.run()
        assert trace == [0.0, 1.0, 3.0]
        assert p.value == "done"

    def test_process_waits_for_process(self):
        k = Kernel()

        def child(kernel):
            yield kernel.timeout(5)
            return 99

        def parent(kernel):
            result = yield kernel.process(child(kernel))
            return result + 1

        p = k.process(parent(k))
        k.run()
        assert p.value == 100

    def test_run_until_event_returns_value(self):
        k = Kernel()

        def proc(kernel):
            yield kernel.timeout(1)
            return "v"

        assert k.run(until=k.process(proc(k))) == "v"

    def test_run_until_event_raises_on_failure(self):
        k = Kernel()

        def proc(kernel):
            yield kernel.timeout(1)
            raise RuntimeError("proc died")

        with pytest.raises(RuntimeError, match="proc died"):
            k.run(until=k.process(proc(k)))

    def test_unwaited_process_failure_surfaces(self):
        k = Kernel()

        def proc(kernel):
            yield kernel.timeout(1)
            raise ValueError("crash")

        k.process(proc(k))
        with pytest.raises(ValueError, match="crash"):
            k.run()

    def test_failed_event_propagates_into_process(self):
        k = Kernel()
        trigger = k.event()

        def proc(kernel):
            try:
                yield trigger
            except ValueError as exc:
                return f"caught {exc}"

        p = k.process(proc(k))
        trigger.fail(ValueError("bad"))
        k.run()
        assert p.value == "caught bad"

    def test_yield_non_event_fails_process(self):
        k = Kernel()

        def proc(kernel):
            yield 42

        p = k.process(proc(k))
        p.defuse()
        k.run()
        assert not p.ok
        assert isinstance(p._value, TypeError)

    def test_cross_kernel_event_rejected(self):
        k1, k2 = Kernel(), Kernel()

        def proc():
            yield k2.timeout(1)

        p = k1.process(proc())
        p.defuse()
        k1.run()
        assert not p.ok

    def test_processes_started_in_one_callback_boot_in_creation_order(self):
        k = Kernel()
        order = []

        def proc(tag):
            order.append(f"{tag} booted")
            yield k.timeout(0)

        def starter(_arg):
            for tag in "abc":
                k.process(proc(tag))
            order.append("starter returned")

        k.call_later(1.0, starter)
        k.call_later(1.0, order.append, "queued before the boots")
        k.run()
        assert order == ["starter returned", "queued before the boots",
                         "a booted", "b booted", "c booted"]

    def test_requires_generator(self):
        k = Kernel()
        with pytest.raises(TypeError):
            k.process(lambda: None)


class TestInterrupt:
    def test_interrupt_while_waiting(self):
        k = Kernel()

        def sleeper(kernel):
            try:
                yield kernel.timeout(100)
                return "slept"
            except Interrupt as i:
                return f"interrupted:{i.cause}"

        p = k.process(sleeper(k))

        def waker(kernel):
            yield kernel.timeout(3)
            p.interrupt("wake up")

        k.process(waker(k))
        k.run()
        assert p.value == "interrupted:wake up"
        assert k.now == pytest.approx(100)  # abandoned timeout still drains

    def test_interrupt_before_boot_lands_at_the_first_wait(self):
        """A process interrupted in the instant it was created still boots
        first (the boot precedes the poke on the heap), takes the interrupt
        at its first wait, and is not woken by the wait it abandoned."""
        k = Kernel()
        trail = []

        def sleeper(kernel):
            trail.append("booted")
            try:
                yield kernel.timeout(5)
                trail.append("slept")
            except Interrupt as i:
                trail.append(f"interrupted:{i.cause} at {kernel.now}")
            woken = yield kernel.timeout(20, value="second wait")
            trail.append(f"{woken} at {kernel.now}")

        p = k.process(sleeper(k))
        p.interrupt("early")
        assert trail == []  # neither ran yet
        k.run()
        assert trail == ["booted", "interrupted:early at 0.0",
                         "second wait at 20.0"]

    def test_interrupt_terminated_process_raises(self):
        k = Kernel()

        def quick(kernel):
            yield kernel.timeout(1)

        p = k.process(quick(k))
        k.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_uncaught_interrupt_fails_process(self):
        k = Kernel()

        def sleeper(kernel):
            yield kernel.timeout(100)

        p = k.process(sleeper(k))
        p.defuse()

        def waker(kernel):
            yield kernel.timeout(1)
            p.interrupt("die")

        k.process(waker(k))
        k.run()
        assert not p.ok and isinstance(p._value, Interrupt)


class TestConditions:
    def test_all_of_waits_for_all(self):
        k = Kernel()
        t1, t2 = k.timeout(1, "a"), k.timeout(5, "b")

        def proc(kernel):
            results = yield kernel.all_of([t1, t2])
            return sorted(results.values())

        p = k.process(proc(k))
        k.run()
        assert p.value == ["a", "b"]
        assert k.now == 5.0

    def test_any_of_fires_on_first(self):
        k = Kernel()
        t1, t2 = k.timeout(1, "fast"), k.timeout(5, "slow")

        def proc(kernel):
            results = yield kernel.any_of([t1, t2])
            return list(results.values())

        p = k.process(proc(k))
        k.run()
        assert p.value == ["fast"]

    def test_empty_all_of_fires_immediately(self):
        k = Kernel()
        e = k.all_of([])
        k.run()
        assert e.processed and e.ok

    def test_all_of_fails_on_child_failure(self):
        k = Kernel()
        good = k.timeout(1)
        bad = k.event()

        def proc(kernel):
            try:
                yield kernel.all_of([good, bad])
            except RuntimeError as exc:
                return str(exc)

        p = k.process(proc(k))
        bad.fail(RuntimeError("child failed"))
        k.run()
        assert p.value == "child failed"

    def test_any_of_with_already_triggered_event(self):
        k = Kernel()
        done = k.event()
        done.succeed("pre")
        k.run()
        cond = k.any_of([done, k.timeout(10)])
        k.run(until=cond)
        assert done in cond.value


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, delays):
        k = Kernel()
        fired = []
        for d in delays:
            k.timeout(d).add_callback(lambda e, d=d: fired.append(d))
        k.run()
        assert fired == sorted(fired)
        assert k.now == max(delays)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30))
    def test_identical_runs_identical_traces(self, delays):
        def trace_for():
            k = Kernel()
            trace = []

            def proc(kernel, d):
                yield kernel.timeout(d)
                trace.append((kernel.now, d))

            for d in delays:
                k.process(proc(k, d))
            k.run()
            return trace

        assert trace_for() == trace_for()

    def test_kernel_emit_stamps_now(self):
        k = Kernel()
        sink = k.telemetry.add_sink(InMemorySink())

        def proc(kernel):
            yield kernel.timeout(2.5)
            kernel.emit("test", "mark")

        k.process(proc(k))
        k.run()
        [rec] = sink.records
        assert (rec.time, rec.subsystem, rec.kind) == (2.5, "test", "mark")
