"""Tests for the §5 follow-on experiments."""

import numpy as np
import pytest

from repro.core.messages import Action
from repro.followon import (
    FieldTestConfig,
    RobotArm,
    RobotArmPlugin,
    SixDofController,
    SixDofPlugin,
    SoilStructureConfig,
    run_field_test,
    run_robot_survey,
    run_six_dof_loading,
    run_soil_structure_experiment,
)
from repro.followon.centrifuge_robot import SoilColumnModel
from repro.followon.soil_structure import CentrifugePlugin, deck_coupling_matrix
from repro.structural import LinearSpring, PhysicalSpecimen
from repro.structural.specimen import Actuator, Sensor
from repro.testing import make_site
from repro.control import make_displacement_actions


class TestCentrifugeSimilitude:
    def make_plugin(self, scale=50.0, k_model=1000.0):
        specimen = PhysicalSpecimen(
            "pkg", LinearSpring(k=k_model),
            actuator=Actuator(max_stroke=0.02, tracking_std=0.0,
                              min_settle=0.1),
            lvdt=Sensor(), load_cell=Sensor(), seed=0)
        return CentrifugePlugin(specimen, scale=scale,
                                spin_up_check=True), specimen

    def test_scaling_laws(self):
        """prototype d -> model d/N; model f -> prototype f*N^2."""
        plugin, specimen = self.make_plugin(scale=50.0, k_model=1000.0)
        plugin.spin_up()
        env = make_site(plugin, timeout=120.0)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "t", make_displacement_actions({0: 0.5}),
                execution_timeout=60.0)
            return result

        result = env.run(go())
        # model displacement = 0.5/50 = 0.01; model force = 1000*0.01 = 10
        assert specimen.actuator.position == pytest.approx(0.01)
        assert result.readings["displacements"][0] == pytest.approx(0.5)
        assert result.readings["forces"][0] == pytest.approx(
            10.0 * 50.0 ** 2)

    def test_refuses_motion_before_spin_up(self):
        plugin, _ = self.make_plugin()
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 0.1}))
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "not at speed" in verdict.error

    def test_model_scale_stroke_checked(self):
        plugin, _ = self.make_plugin(scale=50.0)
        plugin.spin_up()
        env = make_site(plugin)

        def go():
            # 2.0 m prototype -> 0.04 m model > 0.02 m stroke
            verdict = yield from env.client.propose(
                env.handle, "t", make_displacement_actions({0: 2.0}))
            return verdict

        assert env.run(go()).state == "rejected"


class TestSoilStructure:
    def test_deck_matrix_is_valid_stiffness(self):
        k = deck_coupling_matrix(100.0)
        assert np.allclose(k, k.T)
        eigs = np.linalg.eigvalsh(k)
        assert np.all(eigs >= -1e-9)  # positive semi-definite (chain)

    def test_experiment_completes_and_couples(self):
        config = SoilStructureConfig(n_steps=60)
        result, rig = run_soil_structure_experiment(config)
        assert result.completed
        d = result.displacement_history()
        assert d.shape == (59, 3)
        # the foundation DOF and pier DOFs all moved (coupling works)
        assert np.all(np.max(np.abs(d), axis=0) > 0)
        assert rig.centrifuge.moves == 60  # init + 59 steps
        # both piers were physically loaded through their controllers
        for spec in rig.piers.values():
            assert len(spec.history) == 60

    def test_ncsa_deck_sees_all_three_dofs(self):
        config = SoilStructureConfig(n_steps=20)
        result, rig = run_soil_structure_experiment(config)
        rec = result.steps[-1]
        assert set(rec.site_forces["ncsa"]) == {0, 1, 2}
        # deck force on DOF 0 equals K_deck row 0 . d
        k = deck_coupling_matrix(config.k_deck)
        expected = k @ rec.displacement
        assert rec.site_forces["ncsa"][0] == pytest.approx(expected[0],
                                                           rel=1e-6)


class TestFieldTest:
    @pytest.fixture(scope="class")
    def report(self):
        return run_field_test(FieldTestConfig(duration=60.0))

    def test_wireless_loss_near_configured(self, report):
        assert report.samples_sent > 0
        assert 0.05 < report.wifi_loss_fraction < 0.20  # configured 0.12

    def test_store_and_forward_completes(self, report):
        assert report.files_archived_locally > 0
        assert report.files_uploaded_via_satellite == \
            report.files_archived_locally

    def test_laboratory_has_the_data(self, report):
        lab_store = report.extras["lab_store"]
        assert len(lab_store) == report.files_uploaded_via_satellite
        first = lab_store.get(lab_store.names()[0])
        channel = next(iter(first.rows[0][1]))
        assert channel.startswith("floor-")

    def test_all_four_floors_instrumented(self, report):
        assert report.floors_sampled == 4
        receiver = report.extras["receiver"]
        assert set(receiver.highest_seq) == {f"floor-{i}" for i in range(4)}

    def test_fundamental_frequency_matches_model(self, report):
        frame = report.extras["frame"]
        f1 = float(frame.natural_frequencies()[0]) / (2 * np.pi)
        # forced response spectrum peaks near a structural frequency
        freqs = [float(w) / (2 * np.pi)
                 for w in frame.natural_frequencies()]
        assert any(abs(report.fundamental_frequency_hz - f) / f < 0.3
                   for f in freqs), (report.fundamental_frequency_hz, freqs)
        assert report.peak_roof_drift > 0


class TestRobotArm:
    def test_tool_gating_at_proposal(self):
        soil = SoilColumnModel()
        plugin = RobotArmPlugin(RobotArm(), soil)
        env = make_site(plugin, timeout=600.0)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "cpt-no-tool",
                [Action("cone-push", {"depth": 0.2})])
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "cone-penetrometer" in verdict.error

    def test_reach_limit(self):
        plugin = RobotArmPlugin(RobotArm(reach=0.3), SoilColumnModel())
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "too-far",
                [Action("move-arm", {"x": 1.0, "y": 0.0, "z": 0.0})])
            return verdict

        assert env.run(go()).state == "rejected"

    def test_unknown_tool_rejected(self):
        plugin = RobotArmPlugin(RobotArm(), SoilColumnModel())
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "bad-tool",
                [Action("select-tool", {"tool": "laser"})])
            return verdict

        assert env.run(go()).state == "rejected"

    def test_survey_shows_degradation_and_improvement(self):
        survey, env = run_robot_survey(shake_intensity=0.9, n_piles=3)
        phases = survey["phases"]
        initial = np.mean(list(phases["initial"].values()))
        shaken = np.mean(list(phases["after-shaking"].values()))
        improved = np.mean(list(phases["after-improvement"].values()))
        assert shaken < initial          # shaking degrades Vs
        assert improved > shaken         # piles improve it
        assert phases["cpt-final"]["tip_resistance"] != \
            phases["cpt-initial"]["tip_resistance"]
        assert env.server.plugin.arm.tool_changes >= 2

    def test_travel_time_positive_and_consistent(self):
        soil = SoilColumnModel()
        t_short = soil.travel_time(0.05, 0.15)
        t_long = soil.travel_time(0.05, 0.45)
        assert 0 < t_short < t_long


class TestSixDof:
    def test_pose_limits_enforced(self):
        plugin = SixDofPlugin(SixDofController())
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "big", [Action("set-pose", {"x": 5.0})])
            return verdict

        verdict = env.run(go())
        assert verdict.state == "rejected"
        assert "axis x" in verdict.error

    def test_rotation_limit_independent(self):
        plugin = SixDofPlugin(SixDofController())
        env = make_site(plugin)

        def go():
            verdict = yield from env.client.propose(
                env.handle, "twist", [Action("set-pose", {"rz": 1.0})])
            return verdict

        assert env.run(go()).state == "rejected"

    def test_loads_follow_stiffness(self):
        controller = SixDofController(seed=1)
        plugin = SixDofPlugin(controller)
        env = make_site(plugin, timeout=1e5)

        def go():
            result = yield from env.client.propose_and_execute(
                env.handle, "p1", [Action("set-pose", {"x": 0.01})],
                execution_timeout=1e5, timeout=1e5)
            return result

        result = env.run(go())
        fx = result.readings["loads"][0]["x"]
        assert fx == pytest.approx(4e7 * 0.01, rel=0.01)

    def test_quasi_static_timing(self):
        controller = SixDofController(translation_rate=0.002)
        plugin = SixDofPlugin(controller)
        env = make_site(plugin, latency=0.0, timeout=1e5)

        def go():
            yield from env.client.propose_and_execute(
                env.handle, "p1", [Action("set-pose", {"x": 0.02})],
                execution_timeout=1e5, timeout=1e5)
            return env.kernel.now

        assert env.run(go()) >= 10.0  # 0.02 m at 2 mm/s

    def test_protocol_with_stills(self):
        records, env = run_six_dof_loading(n_poses=6, capture_every=3)
        assert len(records) == 6
        images = [img for r in records for img in r["images"]]
        assert len(images) == 2
        # images are data: each carries the pose it was captured at
        assert images[-1]["pose"][0] == pytest.approx(0.05, rel=0.01)
        assert env.server.plugin.camera.captures == 2

    def test_loading_is_monotone_crescent(self):
        records, _ = run_six_dof_loading(n_poses=5)
        x = [r["poses"][0][0] for r in records]
        assert x == sorted(x)
