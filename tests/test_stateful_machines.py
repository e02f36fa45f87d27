"""Stateful hypothesis exploration of user-facing state machines."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.chef import DataViewer, TimeSeriesView
from repro.control import SimulationPlugin, make_displacement_actions
from repro.nsds.stream import StreamSample
from repro.structural import LinearSubstructure
from repro.testing import make_site
from repro.util.errors import ReproError


class DataViewerMachine(RuleBasedStateMachine):
    """Random VCR abuse: the cursor must always stay on the timeline and
    renders must never crash, whatever sequence of controls is pressed."""

    def __init__(self):
        super().__init__()
        self.viewer = DataViewer()
        self.viewer.add_view(TimeSeriesView("ch", window=50.0))
        self.t = 0.0
        self.seq = 0

    @initialize()
    def seed_data(self):
        for _ in range(3):
            self.feed()

    @rule()
    def feed(self):
        self.t += 1.0
        self.seq += 1
        self.viewer.on_sample(StreamSample("ch", self.seq, self.t,
                                           float(self.seq % 7)))

    @rule(delta=st.floats(min_value=0.0, max_value=100.0))
    def advance(self, delta):
        self.viewer.advance(delta)

    @rule(time=st.floats(min_value=-50.0, max_value=2000.0))
    def seek(self, time):
        self.viewer.seek(time)

    @rule()
    def play(self):
        self.viewer.play()

    @rule()
    def pause(self):
        self.viewer.pause()

    @rule()
    def rewind(self):
        self.viewer.rewind()

    @rule()
    def fast_forward(self):
        self.viewer.fast_forward()

    @rule()
    def go_live(self):
        self.viewer.go_live()

    @invariant()
    def cursor_on_timeline(self):
        lo, hi = self.viewer.extent()
        assert lo <= self.viewer.cursor <= hi

    @invariant()
    def render_never_crashes(self):
        (render,) = self.viewer.render()
        assert render["type"] == "time-series"
        for t, _v in render["points"]:
            assert t <= self.viewer.cursor + 1e-9


DataViewerMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestDataViewerMachine = DataViewerMachine.TestCase


class LiveNTCPServerMachine(RuleBasedStateMachine):
    """Random protocol traffic against a live server.

    Invariants: the plugin never executes more often than the server
    recorded EXECUTED transitions, every transaction SDE matches the
    server's book-keeping, and stats counters are internally consistent.
    """

    def __init__(self):
        super().__init__()
        self.plugin = SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0]), compute_time=0.0)
        self.env = make_site(self.plugin, latency=0.001, timeout=10.0,
                             retries=1)
        self.names: list[str] = []
        self.counter = 0

    def _drive(self, gen):
        proc = self.env.kernel.process(gen)
        proc.defuse()
        self.env.kernel.run()
        return proc

    @rule(value=st.floats(min_value=-0.1, max_value=0.1,
                          allow_nan=False))
    def propose_new(self, value):
        self.counter += 1
        name = f"t{self.counter}"
        self.names.append(name)
        self._drive(self.env.client.propose(
            self.env.handle, name, make_displacement_actions({0: value})))

    @rule(idx=st.integers(min_value=0, max_value=40))
    def propose_duplicate(self, idx):
        if not self.names:
            return
        name = self.names[idx % len(self.names)]
        self._drive(self.env.client.propose(
            self.env.handle, name, make_displacement_actions({0: 0.01})))

    @rule(idx=st.integers(min_value=0, max_value=40))
    def execute(self, idx):
        if not self.names:
            return
        name = self.names[idx % len(self.names)]

        def go():
            try:
                yield from self.env.client.execute(self.env.handle, name)
            except ReproError:
                # Invalid-state executes are expected; anything else
                # (a genuine bug) must crash the machine.
                pass

        self._drive(go())

    @rule(idx=st.integers(min_value=0, max_value=40))
    def cancel(self, idx):
        if not self.names:
            return
        name = self.names[idx % len(self.names)]

        def go():
            try:
                yield from self.env.client.cancel(self.env.handle, name)
            except ReproError:
                pass

        self._drive(go())

    @invariant()
    def executions_match_executed_transactions(self):
        executed = sum(
            1 for txn in self.env.server.transactions.values()
            if txn.state.value == "executed")
        assert self.plugin.steps_executed == executed
        assert self.env.server.metrics()["executed"] == executed

    @invariant()
    def sdes_mirror_transactions(self):
        for name, txn in self.env.server.transactions.items():
            sde = self.env.server.service_data.value(f"transaction:{name}")
            assert sde["state"] == txn.state.value

    @invariant()
    def accounting_adds_up(self):
        stats = self.env.server.metrics()
        terminal_or_live = len(self.env.server.transactions)
        assert stats["proposed"] == terminal_or_live
        assert (stats["accepted"] + stats["rejected"]) <= stats["proposed"]


LiveNTCPServerMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)
TestLiveNTCPServerMachine = LiveNTCPServerMachine.TestCase
