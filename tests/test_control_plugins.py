"""Tests for every control plugin behind the NTCP server (Figure 9)."""

import pytest

from repro.control import (
    HumanApprovalPlugin,
    LabVIEWPlugin,
    MatlabBackend,
    MPlugin,
    ShoreWesternController,
    ShoreWesternPlugin,
    SimulationPlugin,
    StepperMotor,
    XPCBackend,
    XPCTarget,
    displacement_targets,
    make_displacement_actions,
)
from repro.core import Action
from repro.net import RemoteException
from repro.structural import LinearSpring, LinearSubstructure, PhysicalSpecimen
from repro.structural.specimen import Actuator, Sensor
from repro.util.errors import ProtocolError

from conftest import make_site


def quiet_specimen(k=100.0, seed=0, max_stroke=0.075):
    """A specimen with noise-free sensors for exact assertions."""
    return PhysicalSpecimen(
        "spec", LinearSpring(k=k),
        actuator=Actuator(tracking_std=0.0, max_stroke=max_stroke),
        lvdt=Sensor(), load_cell=Sensor(), strain_gauge=Sensor(gain=1e3),
        seed=seed)


class TestActionHelpers:
    def test_roundtrip(self):
        actions = make_displacement_actions({1: 0.02, 0: -0.01})
        assert displacement_targets(actions) == {0: -0.01, 1: 0.02}

    def test_rejects_wrong_kind(self):
        with pytest.raises(ProtocolError, match="unsupported action kind"):
            displacement_targets([Action("open-valve")])

    def test_rejects_missing_params(self):
        with pytest.raises(ProtocolError, match="malformed"):
            displacement_targets([Action("set-displacement", {"dof": 0})])

    def test_rejects_duplicate_dof(self):
        acts = make_displacement_actions({0: 0.1}) + make_displacement_actions({0: 0.2})
        with pytest.raises(ProtocolError, match="duplicate"):
            displacement_targets(acts)

    def test_rejects_nonfinite(self):
        with pytest.raises(ProtocolError, match="non-finite"):
            displacement_targets([Action("set-displacement",
                                         {"dof": 0, "value": float("nan")})])


class TestShoreWesternController:
    def test_status(self):
        c = ShoreWesternController({0: quiet_specimen()})
        assert c.handle("STATUS") == "READY 0"

    def test_move_frame_roundtrip(self):
        c = ShoreWesternController({0: quiet_specimen(k=200.0)})
        response = c.handle("MOVE 0 0.01")
        parts = response.split()
        assert parts[0] == "DONE"
        assert float(parts[1]) == pytest.approx(0.01)
        assert float(parts[2]) == pytest.approx(2.0)

    def test_check_within_limits(self):
        c = ShoreWesternController({0: quiet_specimen()})
        assert c.handle("CHECK 0 0.01") == "OK"

    def test_check_rejects_overstroke(self):
        c = ShoreWesternController({0: quiet_specimen(max_stroke=0.05)})
        assert c.handle("CHECK 0 0.2").startswith("ERR limit")

    def test_unknown_dof(self):
        c = ShoreWesternController({0: quiet_specimen()})
        assert c.handle("MOVE 7 0.01").startswith("ERR no actuator")

    def test_malformed_frames(self):
        c = ShoreWesternController({0: quiet_specimen()})
        assert c.handle("").startswith("ERR")
        assert c.handle("MOVE 0").startswith("ERR")
        assert c.handle("MOVE zero 0.1").startswith("ERR bad arguments")
        assert c.handle("FROBNICATE").startswith("ERR unknown verb")

    def test_halt_blocks_moves(self):
        c = ShoreWesternController({0: quiet_specimen()})
        assert c.handle("HALT") == "HALTED"
        assert c.handle("MOVE 0 0.01").startswith("ERR controller halted")
        # CHECK still allowed while halted
        assert c.handle("CHECK 0 0.01") == "OK"


class TestShoreWesternPlugin:
    def test_end_to_end_through_ntcp(self):
        controller = ShoreWesternController({0: quiet_specimen(k=150.0)})
        env = make_site(ShoreWesternPlugin(controller))

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.02}),
                execution_timeout=60.0)
            return result

        result = env.run(go())
        assert result.readings["forces"][0] == pytest.approx(3.0)
        assert result.readings["settle_time"] > 0
        assert controller.moves == 1

    def test_negotiation_reaches_controller(self):
        controller = ShoreWesternController({0: quiet_specimen(max_stroke=0.01)})
        env = make_site(ShoreWesternPlugin(controller))

        def go():
            verdict = yield from env.client.propose(
                env.handle, "big", make_displacement_actions({0: 0.05}))
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "controller refused" in verdict.error
        assert controller.moves == 0  # nothing moved

    def test_settle_time_charged_to_clock(self):
        controller = ShoreWesternController({0: quiet_specimen()})
        env = make_site(ShoreWesternPlugin(controller), timeout=100.0)

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "s", make_displacement_actions({0: 0.02}),
                execution_timeout=60.0)
            return env.kernel.now

        finished = env.run(go())
        assert finished > 2.0  # slew at 1 cm/s dominates: 2 s + overheads


class TestMPluginMatlab:
    def make_env(self, poll_interval=0.1, compute_time=0.2):
        plugin = MPlugin()
        sub = LinearSubstructure("ncsa", [[40.0]], dof_indices=[0])
        backend = MatlabBackend(plugin, sub, poll_interval=poll_interval,
                                compute_time=compute_time)
        env = make_site(plugin, timeout=60.0)
        backend.start(env.kernel)
        env.extra["backend"] = backend
        return env

    def test_poll_cycle_produces_result(self):
        env = self.make_env()

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.05}),
                execution_timeout=30.0)
            return result

        result = env.run(go())
        assert result.readings["forces"][0] == pytest.approx(2.0)
        assert env.server.plugin.stats["polled"] == 1
        assert env.server.plugin.stats["posted"] == 1
        assert env.extra["backend"].requests_served == 1

    def test_polling_adds_latency(self):
        env = self.make_env(poll_interval=1.0, compute_time=0.0)

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.01}),
                execution_timeout=30.0)
            return env.kernel.now

        finished = env.run(go())
        assert finished >= 1.0  # at least one poll interval elapsed

    def test_dead_backend_times_out_transaction(self):
        plugin = MPlugin()
        env = make_site(plugin, timeout=60.0)  # no backend started

        def go():
            yield from env.client.propose(
                env.handle, "s1", make_displacement_actions({0: 0.01}),
                execution_timeout=5.0)
            try:
                yield from env.client.execute(env.handle, "s1", timeout=50.0)
            except RemoteException as exc:
                return exc.remote_message

        assert "exceeded timeout" in env.run(go())
        # the buffered request was dropped by cancel()
        assert plugin.poll() is None

    def test_post_result_for_unknown_transaction_rejected(self):
        plugin = MPlugin()
        env = make_site(plugin)
        with pytest.raises(ProtocolError, match="unknown transaction"):
            plugin.post_result("ghost", {})
        del env

    def test_empty_poll_counted(self):
        env = self.make_env(poll_interval=0.5)
        env.kernel.run(until=2.0)
        assert env.server.plugin.stats["empty_polls"] >= 3


class TestXPC:
    def test_cu_configuration_uses_same_plugin_code(self):
        """The CU site: MPlugin (same class as NCSA) + xPC backend."""
        plugin = MPlugin()
        target = XPCTarget({0: quiet_specimen(k=60.0)}, comm_latency=0.01)
        backend = XPCBackend(plugin, target, poll_interval=0.1)
        env = make_site(plugin, timeout=120.0)
        backend.start(env.kernel)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.03}),
                execution_timeout=60.0)
            return result

        result = env.run(go())
        assert result.readings["forces"][0] == pytest.approx(1.8)
        assert target.commands == 1
        assert isinstance(plugin, MPlugin)  # literally the NCSA plugin class

    def test_xpc_settle_time_in_readings(self):
        plugin = MPlugin()
        target = XPCTarget({0: quiet_specimen()})
        backend = XPCBackend(plugin, target)
        env = make_site(plugin, timeout=120.0)
        backend.start(env.kernel)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.02}),
                execution_timeout=60.0)
            return result

        assert env.run(go()).readings["settle_time"] >= 0.5


class TestLabVIEW:
    def make_rig(self, step_size=5e-5, k=300.0):
        motor = StepperMotor(step_size=step_size, max_travel=0.02)
        return motor, LabVIEWPlugin({0: (motor, LinearSpring(k=k))})

    def test_quantized_motion(self):
        motor, plugin = self.make_rig(step_size=1e-3)
        env = make_site(plugin, timeout=60.0)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "s1", make_displacement_actions({0: 0.0123}),
                execution_timeout=30.0)
            return result

        result = env.run(go())
        assert result.readings["displacements"][0] == pytest.approx(0.012)
        assert result.readings["steps"][0] == 12
        assert motor.position == pytest.approx(0.012)

    def test_travel_limit_rejected_at_proposal(self):
        motor, plugin = self.make_rig()
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "far", make_displacement_actions({0: 0.5}))
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert motor.total_steps_moved == 0

    def test_unknown_dof_rejected_at_proposal(self):
        motor, plugin = self.make_rig()
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "bad", make_displacement_actions({3: 0.001}))
            return verdict

        assert env.run(go()).state == "rejected"

    def test_step_rate_sets_duration(self):
        motor = StepperMotor(step_size=1e-4, step_rate=100.0, max_travel=0.1)
        plugin = LabVIEWPlugin({0: (motor, LinearSpring(100.0))},
                               daq_read_time=0.0)
        env = make_site(plugin, latency=0.0, timeout=120.0)

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "s", make_displacement_actions({0: 0.01}),
                execution_timeout=60.0)
            return env.kernel.now

        # 0.01 m / 1e-4 m per step = 100 steps at 100 steps/s = 1 s
        assert env.run(go()) == pytest.approx(1.0)


class TestHumanApproval:
    def test_operator_approves_after_delay(self):
        inner = SimulationPlugin(
            LinearSubstructure("s", [[10.0]], [0]), compute_time=0.0)
        plugin = HumanApprovalPlugin(inner, decision_time=5.0)
        env = make_site(plugin, timeout=60.0)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}),
                timeout=30.0)
            return verdict, env.kernel.now

        verdict, now = env.run(go())
        assert verdict.state == "accepted"
        assert now >= 5.0
        assert plugin.approved == 1

    def test_operator_veto_rejects(self):
        inner = SimulationPlugin(
            LinearSubstructure("s", [[10.0]], [0]), compute_time=0.0)
        plugin = HumanApprovalPlugin(
            inner, decide=lambda p: False, decision_time=1.0)
        env = make_site(plugin, timeout=60.0)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.01}),
                timeout=30.0)
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "vetoed" in verdict.error
        assert plugin.vetoed == 1

    def test_execution_delegates_to_inner(self):
        inner = SimulationPlugin(
            LinearSubstructure("s", [[10.0]], [0]), compute_time=0.0)
        plugin = HumanApprovalPlugin(inner, decision_time=0.1)
        env = make_site(plugin, timeout=60.0)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.1}),
                timeout=30.0)
            return result

        assert env.run(go()).readings["forces"][0] == pytest.approx(1.0)
        assert inner.steps_executed == 1


class TestPluginSwapTransparency:
    """Figure 2's promise: the client code is identical for every back-end."""

    def run_step(self, plugin, extra_setup=None, value=0.01):
        env = make_site(plugin, timeout=120.0)
        if extra_setup:
            extra_setup(env)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "step", make_displacement_actions({0: value}),
                execution_timeout=60.0)
            return result.readings["forces"][0]

        return env.run(go())

    def test_same_client_code_all_backends(self):
        k = 100.0
        forces = []
        forces.append(self.run_step(SimulationPlugin(
            LinearSubstructure("s", [[k]], [0]), compute_time=0.0)))
        forces.append(self.run_step(ShoreWesternPlugin(
            ShoreWesternController({0: quiet_specimen(k=k)}))))

        def with_matlab(env):
            MatlabBackend(env.server.plugin,
                          LinearSubstructure("m", [[k]], [0]),
                          compute_time=0.0).start(env.kernel)

        forces.append(self.run_step(MPlugin(), extra_setup=with_matlab))

        def with_xpc(env):
            XPCBackend(env.server.plugin,
                       XPCTarget({0: quiet_specimen(k=k)})).start(env.kernel)

        forces.append(self.run_step(MPlugin(), extra_setup=with_xpc))
        assert forces == pytest.approx([1.0, 1.0, 1.0, 1.0])
