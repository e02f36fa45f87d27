"""Unit + property tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Kernel, Task
from repro.sim.events import PENDING
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
        with pytest.raises(ValueError, match="negative delay"):
            k.call_later(-0.1, print)
        assert k.peek() == float("inf")  # nothing was enqueued

    def test_nan_delay_rejected_and_later_entries_still_run(self):
        """A NaN entry would break the heap's order and end the run early
        (entries at 1, 3, NaN, 5 once ran only 1 and 3)."""
        k = Kernel()
        ran = []
        k.call_later(1.0, ran.append, "t1")
        k.call_later(3.0, ran.append, "t3")
        for schedule in (lambda: k.call_later(float("nan"), ran.append, "x"),
                         lambda: k.timeout(float("nan"))):
            with pytest.raises(ValueError, match="delay must be >= 0"):
                schedule()
        k.call_later(5.0, ran.append, "t5")
        k.run()
        assert ran == ["t1", "t3", "t5"] and k.now == 5.0

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


class TestDeadlines:
    """``deadline``: the timer of a wait that usually ends first."""

    def test_a_pending_event_times_out_in_seq_order(self):
        """A deadline runs where its seq, reserved when armed, puts it
        among entries due at the same instant — also the second of a
        lane, which reaches the heap only when the first fires — as the
        tie rule of an RPC attempt needs."""
        k = Kernel()
        first, second = k.event(), k.event()
        order = []
        k.deadline(1.0, first, "first")
        k.call_later(1.0, lambda _: order.append(
            (first.triggered, second.triggered)))
        k.deadline(1.0, second, "second")
        k.run()
        assert order == [(True, False)]
        assert (first.value, second.value, k.now) == ("first", "second", 1.0)

    def test_a_deadline_whose_wait_ended_never_reaches_the_heap(self):
        """Ten sequential waits, each answered before its deadline: the
        lane pushes only its first deadline, which fires dead once."""
        k = Kernel()
        events = k.telemetry.counter("sim.kernel.events")

        def caller(kernel):
            for _ in range(10):
                reply = kernel.event()
                kernel.deadline(5.0, reply, "late")
                kernel.call_later(0.1, reply.succeed, "reply")
                assert (yield reply) == "reply"

        k.process(caller(k))
        k.run()
        # boot + 10 x (reply call + its firing) + the first deadline +
        # the end of the process
        assert events.value == 1 + 10 * 2 + 1 + 1
        assert k.now == 5.0

    @pytest.mark.parametrize("delay", [0.0, -1.0, float("nan")])
    def test_a_deadline_must_lie_after_now(self, delay):
        k = Kernel()
        with pytest.raises(ValueError, match="after now"):
            k.deadline(delay, k.event())
        assert k.peek() == float("inf")


class TestTasks:
    def test_done_runs_as_the_process_callbacks_would(self):
        k = Kernel()
        order = []

        def gen(tag):
            yield k.timeout(1.0)
            return tag

        k.process(gen("process")).add_callback(
            lambda p: order.append(p.value))
        Task(k, gen("task"), lambda t: order.append(t._value))
        k.call_later(1.0, order.append, "call")
        k.run()
        assert order == ["call", "process", "task"]

    def test_an_interrupted_task_reports_the_interrupt(self):
        k = Kernel()
        ended = []

        def gen():
            yield k.timeout(10.0)

        task = Task(k, gen(), ended.append)
        k.call_later(1.0, lambda _: task.interrupt("stop"))
        k.run()
        assert ended == [task] and not task.is_alive
        assert isinstance(task._value, Interrupt) and not task._ok

    def test_join_fails_with_the_first_failure_and_waits_for_all(self):
        k = Kernel()

        def gen(delay, fail):
            yield k.timeout(delay)
            if fail:
                raise KeyError(delay)

        def parent(gens):
            try:
                yield k.join(gens)
            except KeyError as exc:
                return f"failed {exc} at {k.now}"
            return f"joined at {k.now}"

        ok = k.process(parent([gen(1.0, False), gen(2.0, False)]))
        bad = k.process(parent([gen(3.0, True), gen(1.0, True)]))
        empty = k.process(parent([]))
        k.run()
        assert ok.value == "joined at 2.0"
        assert bad.value == "failed 1.0 at 1.0"
        assert empty.value == "joined at 0.0"


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

    def test_all_of_waits_for_every_child_after_a_processed_one(self):
        """A child processed before the condition was built counts once;
        the condition still waits for the others (it fired at t = 0 with
        only the first child's value)."""
        k = Kernel()
        done = k.event()
        done.succeed("pre")
        k.run()
        late = k.timeout(5, "late")
        cond = k.all_of([done, late])
        k.run(until=cond)
        assert k.now == 5.0
        assert cond.value == {done: "pre", late: "late"}

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


class HeapKernel(Kernel):
    """The oracle: the kernel before same-instant entries had a FIFO and
    deadlines had lanes.  Every entry is a heap tuple ``(time, seq, fn,
    arg)`` with a fresh seq, run strictly in that order; a wait with a
    timer is a process, a ``Timeout`` and an ``any_of``, and a join is an
    ``all_of`` over processes, as the code above the kernel spelt them.
    It runs to a time horizon only, which is all the programs ask."""

    def call_later(self, delay, fn, arg=None):
        if not delay >= 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, arg))
        self._seq += 1

    def peek(self):
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until=None):
        horizon = float("inf") if until is None else float(until)
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            time, _, fn, arg = heapq.heappop(queue)
            self.now = time
            self._events_fired.value += 1
            fn(arg)
        if horizon != float("inf"):
            self.now = horizon


def _time_out(pair):
    """The oracle's RPC timer: a heap call armed beside the reply."""
    reply, value = pair
    if reply._value is PENDING:
        reply.succeed(value)


_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])


def _scripts(depth):
    """A process's steps: ``(kind, *args)`` tuples, nested ``depth`` deep
    through first / join / spawn."""
    leaf = st.one_of(
        st.tuples(st.just("sleep"), _DELAYS),
        st.tuples(st.just("call"), _DELAYS),
        st.tuples(st.just("wait"), _DELAYS, st.booleans()),
        st.tuples(st.sampled_from(["any", "all"]), _DELAYS, _DELAYS,
                  st.booleans(), st.sampled_from([None, True, False])),
        st.tuples(st.just("rpc"), _DELAYS,
                  st.sampled_from([0.5, 1.0, 1.5])),
        st.tuples(st.just("interrupt"), st.integers(0, 5)),
        st.tuples(st.just("raise")))
    if depth:
        inner = _scripts(depth - 1)
        leaf = st.one_of(
            leaf,
            st.tuples(st.just("first"), inner,
                      st.sampled_from([0.5, 1.0, 1.5])),
            st.tuples(st.just("join"), st.lists(inner, max_size=3)),
            st.tuples(st.just("spawn"), inner))
    return st.lists(leaf, max_size=5)


def _execute(kernel, program):
    """Run ``program`` (top-level scripts and their start delays) on
    ``kernel``; returns what every callback saw, in order, the final
    ``now`` and what is left queued.  The oracle runs each wait in the
    idiom it replaced."""
    log, procs = [], []
    oracle = isinstance(kernel, HeapKernel)

    def note(*what):
        log.append((kernel.now, *what))

    def first(script, limit, pid):
        if oracle:
            work = kernel.process(run(script, pid))
            fired = yield kernel.any_of([work, kernel.timeout(limit)])
            if work in fired:
                return fired[work]
            work.defuse()
        else:
            ended = kernel.event()

            def ran(task):
                if ended._value is PENDING:
                    (ended.succeed if task._ok else ended.fail)(task._value)

            work = Task(kernel, run(script, pid), ran)
            kernel.deadline(limit, ended, "late")
            value = yield ended
            if value != "late":
                return value
        if work.is_alive:
            work.interrupt("late")
        return "late"

    def rpc(latency, limit):
        reply = kernel.event()
        if oracle:
            kernel.call_later(limit, _time_out, (reply, "timeout"))
        else:
            kernel.deadline(limit, reply, "timeout")
        kernel.call_later(latency, lambda _: reply._value is PENDING
                          and reply.succeed("reply"))
        return (yield reply)

    def step(kind, args, pid):
        if kind == "sleep":
            yield kernel.timeout(args[0])
        elif kind == "call":
            kernel.call_later(args[0], lambda tag: note("call", tag), pid)
        elif kind in ("wait", "any", "all"):
            *delays, ok = args if kind == "wait" else args[:-1]
            events = [kernel.event() for _ in delays]
            for evt, delay in zip(events, delays):
                kernel.call_later(delay, lambda e: e.succeed(pid)
                                  if ok else e.fail(KeyError(pid)), evt)
            if kind == "wait":
                return (yield events[0])
            if args[-1] is not None:  # a child processed, ok or failed,
                done = kernel.event()  # before the condition is built
                if args[-1]:
                    done.succeed(pid)
                else:
                    done.fail(KeyError(pid)).defuse()
                yield kernel.timeout(0)
                events.insert(0, done)
            fired = yield getattr(kernel, f"{kind}_of")(events)
            return sorted(fired.values())
        elif kind == "rpc":
            return (yield from rpc(*args))
        elif kind == "interrupt":
            target = procs[args[0] % len(procs)]  # None: not booted yet
            if target is not None and target.is_alive \
                    and target is not procs[pid]:
                target.interrupt(pid)
        elif kind == "raise":
            raise ValueError(pid)
        elif kind == "first":
            return (yield from first(args[0], args[1], pid))
        elif kind == "join":
            gens = [run(script, pid) for script in args[0]]
            if oracle:
                yield kernel.all_of([kernel.process(g) for g in gens])
            else:
                yield kernel.join(gens)
        elif kind == "spawn":
            start(args[0], 0.0)

    def run(script, pid):
        for i, (kind, *args) in enumerate(script):
            try:
                note(pid, i, kind, "->", (yield from step(kind, args, pid)))
            except Interrupt as exc:
                note(pid, i, kind, "interrupted", exc.cause)
            except (KeyError, ValueError) as exc:
                note(pid, i, kind, "raised", repr(exc))
                if kind == "raise":
                    raise
        return pid

    def start(script, delay):
        pid = len(procs)
        procs.append(None)

        def boot(_):
            procs[pid] = kernel.process(run(script, pid))
            procs[pid].add_callback(lambda p: note(
                pid, "done", p._ok, repr(p.defuse()._value)))

        kernel.call_later(delay, boot)

    for script, delay in program:
        start(script, delay)
    for _ in range(50):
        try:
            # to a horizon past every entry: a bare run() ends at the last
            # entry run, which on the oracle can be a timer whose wait had
            # already ended
            kernel.run(until=100.0)
            break
        except Exception as exc:  # a failure nobody waited on
            note("run raised", repr(exc))
    return log, kernel.now, kernel.peek()


class TestEntryOrder:
    """The FIFO for same-instant entries, the deadline lanes and tasks are
    an optimisation of the heap, not a new order: a random program gives
    the same callbacks, values, errors, clock at a horizon and empty queue
    on the kernel and on the heap-only oracle."""

    @given(st.lists(st.tuples(_scripts(2), _DELAYS), min_size=1,
                    max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_a_program_runs_as_on_the_heap_only_kernel(self, program):
        assert _execute(Kernel(), program) == _execute(HeapKernel(),
                                                       program)
