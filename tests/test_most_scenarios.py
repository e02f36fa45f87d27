"""Integration tests: the MOST experiment scenarios of paper §3.4.

These use a shortened record (the scaling preserves the fault schedule's
relative position, including the 1493/1500 fatal step) so the suite stays
fast; the full 1,500-step runs live in the benchmarks.
"""

import numpy as np
import pytest

from repro.most import ExperimentSession, MOSTConfig, build_most


@pytest.fixture(scope="module")
def short_config():
    return MOSTConfig().scaled(100)


@pytest.fixture(scope="module")
def dry(short_config):
    return ExperimentSession(short_config, run_id="most-dry").run()


@pytest.fixture(scope="module")
def public(short_config):
    return (ExperimentSession(short_config, run_id="most-public")
            .with_observers()
            .with_faults()
            .run())


def simulation_only(config):
    """The distributed simulation-only rehearsal (§3: built first)."""
    return ExperimentSession(config, run_id="most-simonly",
                             simulation_only=True).run()


def fault_tolerant(config):
    """Identical faults to the public run; fault-tolerant coordinator."""
    return (ExperimentSession(config, run_id="most-ft")
            .with_metadata(False)
            .with_faults()
            .with_fault_tolerance()
            .run())


class TestSimulationOnly:
    def test_completes(self, short_config):
        report = simulation_only(short_config)
        assert report.result.completed
        assert report.result.steps_completed == short_config.n_steps - 1

    def test_plugins_are_simulations(self, short_config):
        from repro.most.assembly import build_simulation_only

        dep = build_simulation_only(short_config)
        for site in dep.sites.values():
            if site.name in ("uiuc", "cu"):
                assert site.server.plugin.plugin_type == "simulation"

    def test_response_close_to_hybrid(self, short_config, dry):
        """Sim-only and hybrid share the elastic response until yielding
        and noise separate them — correlation stays high (the rehearsal
        was a meaningful predictor of the real test)."""
        sim = simulation_only(short_config)
        d_sim = sim.result.displacement_history().ravel()
        d_hyb = dry.result.displacement_history().ravel()
        corr = np.corrcoef(d_sim, d_hyb)[0, 1]
        assert corr > 0.95


class TestDryRun:
    def test_completes_all_steps(self, dry, short_config):
        assert dry.result.completed
        assert dry.result.steps_completed == short_config.n_steps - 1

    def test_pace_is_about_12s_per_step(self, dry):
        """The paper's 1,500 steps took ~5 h ≈ 12-13 s/step."""
        mean = float(np.mean(dry.result.step_durations()))
        assert 8.0 < mean < 16.0

    def test_displacements_within_actuator_stroke(self, dry, short_config):
        peak = float(np.max(np.abs(dry.result.displacement_history())))
        assert 0 < peak <= short_config.actuator_stroke

    def test_specimens_actually_moved(self, dry):
        dep = dry.deployment
        for name in ("uiuc", "cu"):
            spec = dep.sites[name].specimen
            assert len(spec.history) == dry.result.steps_completed + 1

    def test_daq_files_reached_repository(self, dry):
        assert dry.files_ingested > 0
        dep = dry.deployment
        assert len(dep.repo_store) >= dry.files_ingested
        assert len(dep.nmds.objects) >= dry.files_ingested

    def test_site_forces_sum_to_restoring_force(self, dry):
        rec = dry.result.steps[-1]
        total = sum(f[0] for f in rec.site_forces.values())
        assert rec.restoring_force[0] == pytest.approx(total)

    def test_hysteresis_energy_dissipated(self, dry, short_config):
        """Columns yield under 0.35 g: the force-displacement loop of the
        UIUC column encloses positive area."""
        d = dry.result.displacement_history().ravel()
        f = dry.result.site_force_history("uiuc")
        energy = np.trapezoid(f, d)
        assert energy > 0

    def test_transaction_sdes_published(self, dry):
        dep = dry.deployment
        server = dep.sites["uiuc"].server
        assert server.service_data.value("lastChanged") is not None
        sde = server.service_data.value(
            "transaction:" + server.service_data.value("lastChanged"))
        assert sde["state"] == "executed"


class TestPublicRun:
    def test_exits_prematurely_at_fatal_step(self, public, short_config):
        result = public.result
        assert not result.completed
        fail_at = public.fail_at_step
        assert result.aborted_at_step == fail_at
        assert result.steps_completed == fail_at - 1

    def test_transient_failures_were_recovered(self, public):
        """NTCP fault tolerance masked the transient drops before the
        fatal outage: client retransmissions happened, yet every completed
        step executed exactly once everywhere."""
        assert public.ntcp_retries >= 2
        dep = public.deployment
        steps_done = public.result.steps_completed
        for name in ("uiuc", "cu", "ncsa"):
            executed = dep.sites[name].server.metrics()["executed"]
            assert executed >= steps_done  # init step + maybe in-flight 1493

    def test_130_remote_participants(self, public, short_config):
        assert public.chef_peak_online == short_config.n_remote_participants
        assert public.deployment.chef.total_logins >= 130

    def test_streaming_reached_viewers(self, public):
        receivers = public.deployment.extras["nsds_receivers"]
        total = sum(r.accepted for r in receivers)
        assert total > 0
        assert public.stream_samples_pushed > 0

    def test_premature_exit_preserves_physics(self, public, dry):
        """Steps completed before the abort match the dry run exactly up
        to sensor noise (same seeds -> identical trajectories)."""
        n = public.result.steps_completed
        d_pub = public.result.displacement_history()[:n].ravel()
        d_dry = dry.result.displacement_history()[:n].ravel()
        assert np.allclose(d_pub, d_dry)


class TestFaultTolerantCounterfactual:
    def test_completes_through_identical_faults(self, short_config):
        report = fault_tolerant(short_config)
        assert report.result.completed
        assert report.result.steps_completed == short_config.n_steps - 1
        # it actually had to recover (not a fault-free run)
        assert report.result.recoveries >= 1 or report.ntcp_retries >= 1

    def test_recovered_run_matches_dry_run_physics(self, short_config, dry):
        report = fault_tolerant(short_config)
        d_ft = report.result.displacement_history().ravel()
        d_dry = dry.result.displacement_history().ravel()
        assert np.allclose(d_ft, d_dry)


class TestDeploymentWiring:
    def test_figure9_configuration(self, short_config):
        dep = build_most(short_config)
        assert dep.sites["uiuc"].server.plugin.plugin_type == "shore-western"
        assert dep.sites["ncsa"].server.plugin.plugin_type == "mplugin"
        assert dep.sites["cu"].server.plugin.plugin_type == "mplugin"
        # CU and NCSA share the plugin class but differ in backend
        from repro.control import MatlabBackend, XPCBackend

        assert isinstance(dep.sites["ncsa"].backend, MatlabBackend)
        assert isinstance(dep.sites["cu"].backend, XPCBackend)

    def test_policy_limits_installed(self, short_config):
        dep = build_most(short_config)
        from repro.core import Action
        from repro.util.errors import PolicyViolation

        plugin = dep.sites["ncsa"].server.plugin
        with pytest.raises(PolicyViolation):
            plugin.policy.check([Action("set-displacement",
                                        {"dof": 0, "value": 1.0})])

    def test_cameras_deployed_at_physical_sites(self, short_config):
        dep = build_most(short_config)
        assert dep.sites["uiuc"].camera is not None
        assert dep.sites["cu"].camera is not None
        assert dep.sites["ncsa"].camera is None
