"""Tests: α-OS integrator, response spectra, remote poll backend."""

import numpy as np
import pytest

from repro.control import (
    BackendService,
    MPlugin,
    RemotePollBackend,
    make_displacement_actions,
)
from repro.net import Network, RpcClient
from repro.core import NTCPClient, NTCPServer
from repro.ogsi import ServiceContainer
from repro.sim import Kernel
from repro.structural import (
    AlphaOSPSD,
    CentralDifferencePSD,
    GroundMotion,
    NewmarkBeta,
    StructuralModel,
    el_centro_like,
    response_spectrum,
)
from repro.util.errors import ConfigurationError


def sdof(m=2.0, k=8.0, zeta=0.05):
    return StructuralModel(mass=[[m]], stiffness=[[k]]
                           ).with_rayleigh_damping(zeta)


class TestAlphaOS:
    def test_matches_newmark_on_linear_sdof(self):
        model = sdof()
        dt = 0.01
        motion = el_centro_like(duration=10.0, dt=0.02).resampled(dt)
        aos = AlphaOSPSD(model, dt, alpha=-0.05).integrate(
            motion, lambda d: model.stiffness @ d)
        nm = NewmarkBeta(model, dt).integrate(motion)
        da = np.array([r.displacement[0] for r in aos])
        dn = np.array([r.displacement[0] for r in nm])
        assert np.max(np.abs(da - dn)) < 0.05 * np.max(np.abs(dn))

    def test_stable_beyond_central_difference_limit(self):
        """A stiff system at 2x the CD stability limit: alpha-OS stays
        bounded at the quasi-static response; CD explodes."""
        stiff = StructuralModel(mass=[[1.0]], stiffness=[[4.0e4]]
                                ).with_rayleigh_damping(0.02)  # omega=200
        dt = 0.02  # CD limit is 0.01
        motion = GroundMotion(dt=dt, accel=np.sin(np.arange(300) * dt))
        aos = AlphaOSPSD(stiff, dt).integrate(
            motion, lambda d: stiff.stiffness @ d)
        peak = max(abs(r.displacement[0]) for r in aos)
        static = 1.0 / 4.0e4
        assert peak < 3 * static  # bounded, near quasi-static

        cd = CentralDifferencePSD(stiff, dt)
        assert dt > cd.stable_dt()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                cd_results = cd.integrate(
                    motion, restoring=lambda d: stiff.stiffness @ d)
                cd_peak = max(abs(r.displacement[0]) for r in cd_results)
                blew_up = cd_peak > 1e3 * peak
            except (ValueError, FloatingPointError, OverflowError):
                blew_up = True  # overflowed all the way to inf/NaN
        assert blew_up  # the explicit method is unusable here

    def test_alpha_range_validated(self):
        with pytest.raises(ConfigurationError):
            AlphaOSPSD(sdof(), 0.01, alpha=0.2)
        with pytest.raises(ConfigurationError):
            AlphaOSPSD(sdof(), 0.01, alpha=-0.5)

    def test_commit_requires_propose(self):
        psd = AlphaOSPSD(sdof(), 0.01)
        psd.start(r0=np.zeros(1), p0=np.zeros(1))
        with pytest.raises(ConfigurationError):
            psd.commit(np.zeros(1), np.zeros(1), np.zeros(1))

    def test_nominal_stiffness_mismatch_tolerated(self):
        """The whole point of OS methods: the corrector uses a *nominal*
        stiffness; a 20% error degrades accuracy gracefully."""
        model = sdof(k=8.0)
        dt = 0.01
        motion = el_centro_like(duration=8.0, dt=0.02).resampled(dt)
        exact = AlphaOSPSD(model, dt).integrate(
            motion, lambda d: model.stiffness @ d)
        wrong = AlphaOSPSD(model, dt,
                           nominal_stiffness=[[8.0 * 1.2]]).integrate(
            motion, lambda d: model.stiffness @ d)
        de = np.array([r.displacement[0] for r in exact])
        dw = np.array([r.displacement[0] for r in wrong])
        scale = np.max(np.abs(de))
        assert np.max(np.abs(dw - de)) < 0.2 * scale


class TestResponseSpectrum:
    def test_spectrum_shapes_and_identities(self):
        gm = el_centro_like()
        periods = [0.2, 0.5, 1.0, 2.0]
        spec = response_spectrum(gm, periods)
        assert spec["Sd"].shape == (4,)
        assert np.all(spec["Sd"] > 0)
        omegas = 2 * np.pi / np.asarray(periods)
        assert np.allclose(spec["Sv"], spec["Sd"] * omegas)
        assert np.allclose(spec["Sa"], spec["Sd"] * omegas ** 2)

    def test_short_period_sa_amplifies_pga(self):
        """Around the spectral peak, Sa exceeds the PGA (standard ~2-3x
        amplification at 5% damping)."""
        gm = el_centro_like()
        spec = response_spectrum(gm, np.linspace(0.15, 0.6, 8))
        assert np.max(spec["Sa"]) > 1.5 * gm.pga

    def test_long_period_sd_saturates(self):
        """Very long periods approach the peak ground displacement —
        Sd stops growing."""
        gm = el_centro_like()
        spec = response_spectrum(gm, [2.0, 4.0, 8.0])
        assert spec["Sd"][2] < 3 * spec["Sd"][0]

    def test_damping_reduces_response(self):
        gm = el_centro_like()
        light = response_spectrum(gm, [0.5], zeta=0.02)
        heavy = response_spectrum(gm, [0.5], zeta=0.20)
        assert heavy["Sd"][0] < light["Sd"][0]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            response_spectrum(el_centro_like(), [0.0])


class TestRemotePollBackend:
    def build(self, *, loss=0.0):
        k = Kernel()
        net = Network(k, seed=1)
        for h in ("coord", "server-node", "matlab-box"):
            net.add_host(h)
        net.connect("coord", "server-node", latency=0.01)
        net.connect("server-node", "matlab-box", latency=0.002, loss=loss)
        container = ServiceContainer(net, "server-node")
        plugin = MPlugin()
        server = NTCPServer("ntcp-remote", plugin)
        handle = container.deploy(server)
        BackendService(plugin, net, "server-node")

        def compute(kernel, targets):
            yield kernel.timeout(0.1)
            return {"displacements": dict(targets),
                    "forces": {dof: 40.0 * v for dof, v in targets.items()},
                    "settle_time": 0.1}

        backend = RemotePollBackend(net, "matlab-box", "server-node",
                                    process_request=compute,
                                    poll_interval=0.1)
        backend.start(k)
        client = NTCPClient(RpcClient(net, "coord", default_timeout=30.0,
                                      default_retries=2),
                            timeout=30.0, retries=2)
        return k, net, handle, client, backend, plugin

    def test_cross_host_poll_cycle(self):
        k, net, handle, client, backend, plugin = self.build()

        def go():
            result = yield from client.propose_and_execute(
                handle, "r1", make_displacement_actions({0: 0.05}),
                execution_timeout=30.0)
            return result

        result = k.run(until=k.process(go()))
        assert result.readings["forces"][0] == pytest.approx(2.0)
        assert backend.requests_served == 1

    def test_lossy_backend_link_recovered(self):
        """Polls and notifications cross a lossy LAN: RPC retries inside
        the backend mask it, the transaction still completes once."""
        k, net, handle, client, backend, plugin = self.build(loss=0.2)

        def go():
            result = yield from client.propose_and_execute(
                handle, "r1", make_displacement_actions({0: 0.05}),
                execution_timeout=60.0)
            return result

        result = k.run(until=k.process(go()))
        assert plugin.stats["posted"] == 1
        assert result.transaction == "r1"

    def test_backend_stop_halts_polling(self):
        k, net, handle, client, backend, plugin = self.build()
        k.run(until=2.0)
        polls_before = plugin.stats["empty_polls"]
        backend.stop()
        k.run(until=10.0)
        assert plugin.stats["empty_polls"] <= polls_before + 2
