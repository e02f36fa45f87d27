"""Property-based tests of core invariants (hypothesis).

These go beyond the per-module property tests: stateful exploration of the
NTCP transaction machine, protocol invariants under randomized network
loss, metadata versioning laws, and structural-numerics properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core import Action, Proposal, Transaction, TransactionState
from repro.control import SimulationPlugin, make_displacement_actions
from repro.structural import (
    BilinearSpring,
    CentralDifferencePSD,
    GroundMotion,
    LinearSubstructure,
    StructuralModel,
)
from repro.testing import make_site
from repro.util.errors import ProtocolError


class TransactionMachine(RuleBasedStateMachine):
    """Random walks over the Figure-1 state machine.

    Invariants: the recorded timestamps (state → time first entered, in
    the order entered) only move forward in time and spell a legal path,
    and terminal states are absorbing.
    """

    def __init__(self):
        super().__init__()
        self.txn = Transaction(proposal=Proposal(
            transaction="t", actions=(Action("noop"),)))
        self.clock = 0.0
        self.was_terminal = False

    def _try(self, state):
        self.clock += 1.0
        before = self.txn.state
        try:
            self.txn.transition(state, self.clock)
        except ProtocolError:
            assert self.txn.state is before  # failed transitions mutate nothing
            return False
        return True

    @rule()
    def accept(self):
        self._try(TransactionState.ACCEPTED)

    @rule()
    def reject(self):
        self._try(TransactionState.REJECTED)

    @rule()
    def begin_execute(self):
        self._try(TransactionState.EXECUTING)

    @rule()
    def finish(self):
        self._try(TransactionState.EXECUTED)

    @rule()
    def cancel(self):
        self._try(TransactionState.CANCELLED)

    @rule()
    def fail(self):
        self._try(TransactionState.FAILED)

    @invariant()
    def terminal_is_absorbing(self):
        if self.was_terminal:
            assert self.txn.state.terminal
        self.was_terminal = self.txn.state.terminal

    @invariant()
    def timestamps_monotone(self):
        times = list(self.txn.timestamps.values())
        assert times == sorted(times)

    @invariant()
    def timestamps_end_at_the_current_state(self):
        assert list(self.txn.timestamps)[-1] == self.txn.state.value

    @invariant()
    def timestamps_are_a_legal_path(self):
        states = [TransactionState(name) for name in self.txn.timestamps]
        assert states[0] is TransactionState.PROPOSED
        for a, b in zip(states, states[1:]):
            from repro.core.transaction import _LEGAL

            assert b in _LEGAL[a]


TestTransactionMachine = TransactionMachine.TestCase


class TestProtocolUnderRandomLoss:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           loss=st.floats(min_value=0.0, max_value=0.35))
    @settings(max_examples=25, deadline=None)
    def test_steps_execute_exactly_once_or_not_at_all(self, seed, loss):
        """Under arbitrary random loss, a step either completes (executing
        exactly once) or the client gives up — never twice."""
        plugin = SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0]), compute_time=0.01)
        env = make_site(plugin, loss=loss, seed=seed, timeout=0.5, retries=4)

        completed = []

        def go():
            from repro.net.rpc import RpcError
            from repro.net import RemoteException

            for i in range(5):
                try:
                    yield from env.client.propose_and_execute(
                        env.handle, f"s{i}",
                        make_displacement_actions({0: 0.001 * (i + 1)}))
                    completed.append(i)
                except (RpcError, RemoteException, ProtocolError):
                    pass

        env.run(go())
        # exactly-once accounting: plugin executions == transactions that
        # reached EXECUTED, and each completed client step did execute
        assert plugin.steps_executed == env.server.metrics()["executed"]
        assert len(completed) <= plugin.steps_executed <= 5

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_verdicts_are_stable_under_retransmission(self, seed):
        """Re-proposing any transaction any number of times returns the
        original verdict (idempotent negotiation)."""
        plugin = SimulationPlugin(
            LinearSubstructure("s", [[100.0]], [0]), compute_time=0.0)
        env = make_site(plugin, seed=seed)
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=4)

        def go():
            verdicts = {}
            for i, v in enumerate(values):
                first = yield from env.client.propose(
                    env.handle, f"t{i}",
                    make_displacement_actions({0: float(v)}))
                for _ in range(3):
                    again = yield from env.client.propose(
                        env.handle, f"t{i}",
                        make_displacement_actions({0: float(v)}))
                    assert again == first
                verdicts[i] = first
            return verdicts

        env.run(go())


class TestStructuralProperties:
    @given(m=st.floats(min_value=0.5, max_value=20.0),
           k=st.floats(min_value=10.0, max_value=500.0),
           zeta=st.floats(min_value=0.01, max_value=0.2),
           seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_damped_response_is_bounded_by_static_amplification(
            self, m, k, zeta, seed):
        """For stable dt, the PSD response to bounded input stays within a
        generous dynamic amplification of the static response."""
        model = StructuralModel(mass=[[m]], stiffness=[[k]]
                                ).with_rayleigh_damping(zeta)
        omega = np.sqrt(k / m)
        dt = min(0.4 / omega, 0.05)
        rng = np.random.default_rng(seed)
        accel = rng.uniform(-1.0, 1.0, size=300)
        motion = GroundMotion(dt=dt, accel=accel)
        results = CentralDifferencePSD(model, dt).integrate(
            motion, restoring=lambda d: model.stiffness @ d)
        peak = max(abs(r.displacement[0]) for r in results)
        static = m * 1.0 / k
        # resonance bound for harmonic input is 1/(2 zeta); broadband
        # random input stays far below that with margin
        assert peak <= static * (3.0 / zeta)

    @given(amplitude=st.floats(min_value=0.02, max_value=0.5),
           cycles=st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_hysteresis_energy_nonnegative_over_closed_cycles(
            self, amplitude, cycles):
        spring = BilinearSpring(k=100.0, fy=1.0, alpha=0.1)
        t = np.linspace(0, 2 * np.pi * cycles, 200 * cycles)
        d = amplitude * np.sin(t)
        f = spring.force_history(d)
        energy = np.trapezoid(f, d)
        assert energy >= -1e-9

    @given(masses=st.lists(st.floats(min_value=0.5, max_value=5.0),
                           min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_rayleigh_damping_preserves_symmetry(self, masses):
        from repro.structural import ShearFrame

        frame = ShearFrame(masses=masses,
                           stiffnesses=[100.0] * len(masses), zeta=0.05)
        assert np.allclose(frame.damping, frame.damping.T)
        assert np.all(np.linalg.eigvalsh(frame.damping) >= -1e-9)


class TestMetadataVersioningLaws:
    def make_nmds(self):
        from repro.ogsi import ServiceContainer
        from repro.net import Network
        from repro.repository import NMDSService
        from repro.sim import Kernel

        k = Kernel()
        net = Network(k, seed=0)
        net.add_host("repo")
        c = ServiceContainer(net, "repo")
        nmds = NMDSService()
        c.deploy(nmds)
        return k, nmds

    @given(st.lists(st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=-100, max_value=100), max_size=3),
        min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_every_version_remains_readable(self, field_updates):
        """Version n always returns the fields written at version n."""
        k, nmds = self.make_nmds()
        oid = nmds._op_createObject("alice", object_type="note",
                                    fields=field_updates[0])
        written = [field_updates[0]]
        for fields in field_updates[1:]:
            nmds._op_updateObject("alice", object_id=oid, fields=fields)
            written.append(fields)
        for version, fields in enumerate(written, start=1):
            view = nmds._op_getObject("alice", object_id=oid,
                                      version=version)
            assert view["fields"] == fields
        latest = nmds._op_getObject("alice", object_id=oid)
        assert latest["version"] == len(written)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_version_numbers_dense(self, n_updates):
        k, nmds = self.make_nmds()
        oid = nmds._op_createObject("alice", object_type="note",
                                    fields={"v": 0})
        for i in range(n_updates):
            view = nmds._op_updateObject("alice", object_id=oid,
                                         fields={"v": i + 1})
            assert view["version"] == i + 2
        with pytest.raises(ProtocolError):
            nmds._op_getObject("alice", object_id=oid,
                               version=n_updates + 2)


class TestGsiProperties:
    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_any_depth_proxy_chain_validates_and_strips(self, depth, seed):
        from repro.gsi import CertificateAuthority, Crypto, validate_chain

        crypto = Crypto(np.random.default_rng(seed))
        ca = CertificateAuthority(crypto, "/CN=CA")
        cred = ca.issue_credential("/CN=User", not_after=1e12)
        for _ in range(depth):
            cred = cred.delegate(now=0.0, lifetime=1e9)
        leaf = validate_chain(crypto, cred.chain, [ca.certificate], now=1.0)
        assert leaf.subject.startswith("/CN=User")
        assert cred.identity == "/CN=User"
        assert len(cred.chain) == depth + 1
