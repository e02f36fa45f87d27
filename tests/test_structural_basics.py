"""Unit + property tests: ground motions, elements, models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structural import (
    BilinearSpring,
    GroundMotion,
    LinearSpring,
    ShearFrame,
    StructuralModel,
    el_centro_like,
    kanai_tajimi_record,
)
from repro.structural import ground_motion
from repro.structural.elements import cantilever_stiffness, fixed_fixed_stiffness
from repro.util.errors import ConfigurationError


class TestGroundMotion:
    def test_basic_properties(self):
        gm = GroundMotion(dt=0.02, accel=np.array([0.0, 1.0, -2.0]))
        assert gm.n_steps == 3
        assert gm.duration == pytest.approx(0.06)
        assert gm.pga == 2.0

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            GroundMotion(dt=0.0, accel=np.zeros(3))

    def test_2d_accel_rejected(self):
        with pytest.raises(ValueError):
            GroundMotion(dt=0.01, accel=np.zeros((2, 2)))

    def test_scaling(self):
        gm = el_centro_like(duration=10.0)
        scaled = gm.scaled_to_pga(1.0)
        assert scaled.pga == pytest.approx(1.0)
        # shape preserved
        ratio = scaled.accel[100] / gm.accel[100]
        assert ratio == pytest.approx(1.0 / gm.pga)

    def test_scale_zero_record_rejected(self):
        gm = GroundMotion(dt=0.01, accel=np.zeros(10))
        with pytest.raises(ValueError):
            gm.scaled_to_pga(1.0)

    def test_truncated(self):
        gm = el_centro_like(duration=10.0, dt=0.02)
        assert gm.truncated(100).n_steps == 100

    def test_resample_halves_steps(self):
        gm = el_centro_like(duration=10.0, dt=0.02)
        coarse = gm.resampled(0.04)
        assert coarse.n_steps == pytest.approx(gm.n_steps / 2, abs=1)

    def test_kanai_tajimi_deterministic_per_seed(self):
        a = kanai_tajimi_record(seed=5).accel
        b = kanai_tajimi_record(seed=5).accel
        c = kanai_tajimi_record(seed=6).accel
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_kanai_tajimi_hits_target_pga(self):
        gm = kanai_tajimi_record(pga=2.5, seed=1)
        assert gm.pga == pytest.approx(2.5)

    @pytest.mark.parametrize("omega_g, zeta_g, dt, seed", [
        (15.0, 0.6, 0.02, 0), (15.0, 0.6, 0.02, 2003), (12.5, 0.4, 0.01, 7),
        (25.0, 0.9, 0.005, 3), (15, 0.6, 0.02, 11)])
    def test_kanai_tajimi_is_bit_identical_to_a_freshly_designed_filter(
            self, monkeypatch, omega_g, zeta_g, dt, seed):
        kwargs = dict(duration=6.0, dt=dt, omega_g=omega_g, zeta_g=zeta_g,
                      seed=seed)
        cached = [kanai_tajimi_record(**kwargs).accel for _ in range(2)]
        monkeypatch.setattr(ground_motion, "_kanai_tajimi_filter",
                            ground_motion._kanai_tajimi_filter.__wrapped__)
        fresh = kanai_tajimi_record(**kwargs).accel
        assert all(np.array_equal(record, fresh) for record in cached)

    def test_kanai_tajimi_filter_is_designed_once_and_read_only(
            self, monkeypatch):
        designed = []
        bilinear = ground_motion._bilinear

        def counting(*args):
            designed.append(args)
            return bilinear(*args)

        monkeypatch.setattr(ground_motion, "_bilinear", counting)
        ground_motion._kanai_tajimi_filter.cache_clear()
        for seed in range(4):
            kanai_tajimi_record(duration=2.0, seed=seed)
        assert len(designed) == 1
        for coefficients in ground_motion._kanai_tajimi_filter(15.0, 0.6,
                                                               0.02):
            with pytest.raises(ValueError, match="read-only"):
                coefficients[0] = 1.0

    @settings(max_examples=200, deadline=None)
    @given(omega_g=st.floats(0.5, 100.0),
           zeta_g=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           dt=st.one_of(st.sampled_from([0.02, 0.01, 0.005]),
                        st.floats(1e-3, 0.1)),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400))
    def test_kanai_tajimi_filter_is_bit_identical_to_scipy_signal(
            self, omega_g, zeta_g, dt, seed, n):
        from scipy import signal  # the oracle; the library never loads it

        num = [2 * zeta_g * omega_g, omega_g ** 2]
        den = [1.0, 2 * zeta_g * omega_g, omega_g ** 2]
        b, a = ground_motion._kanai_tajimi_filter(omega_g, zeta_g, dt)
        b_ref, a_ref = signal.bilinear(num, den, fs=1.0 / dt)
        assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)
        noise = np.random.default_rng(seed).standard_normal(n)
        assert np.array_equal(ground_motion._filter(b, a, noise),
                              signal.lfilter(b_ref, a_ref, noise))

    @pytest.mark.parametrize("name, value", [
        ("dt", 0.0), ("dt", -0.02), ("dt", float("nan")),
        ("dt", float("inf")), ("duration", float("inf")),
        ("duration", -1.0), ("omega_g", 0.0), ("omega_g", float("nan")),
        ("pga", float("nan")), ("pga", -1.0), ("zeta_g", float("nan")),
        ("zeta_g", -0.1), ("rise", float("nan")), ("plateau", -1.0),
        ("decay", float("inf"))])
    def test_kanai_tajimi_refuses_a_bad_parameter_by_name(self, name, value):
        with pytest.raises(ConfigurationError,
                           match=rf"\b{name} must be finite"):
            kanai_tajimi_record(**{"duration": 2.0, name: value})

    def test_kanai_tajimi_takes_the_zero_edges(self):
        gm = kanai_tajimi_record(duration=2.0, pga=0.0, zeta_g=0.0, rise=0.0,
                                 plateau=0.0, decay=0.0)
        assert gm.n_steps == 100 and gm.pga == 0.0

    def test_el_centro_like_deterministic(self):
        assert np.array_equal(el_centro_like().accel, el_centro_like().accel)

    def test_el_centro_default_pga_is_0348g(self):
        assert el_centro_like().pga == pytest.approx(0.348 * 9.81, rel=1e-3)

    def test_envelope_starts_small(self):
        gm = kanai_tajimi_record(seed=0)
        early = np.max(np.abs(gm.accel[:25]))   # first 0.5 s of 4 s rise
        assert early < 0.25 * gm.pga


class TestLinearSpring:
    def test_force(self):
        assert LinearSpring(k=3.0).force(2.0) == 6.0

    def test_negative_stiffness_rejected(self):
        with pytest.raises(ValueError):
            LinearSpring(k=-1.0)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_linearity(self, d):
        s = LinearSpring(k=2.5)
        assert s.force(d) == pytest.approx(2.5 * d)


class TestBilinearSpring:
    def test_elastic_below_yield(self):
        s = BilinearSpring(k=100.0, fy=10.0, alpha=0.1)
        assert s.force(0.05) == pytest.approx(5.0)
        assert s.plastic_disp == 0.0

    def test_yield_plateau_tangent(self):
        s = BilinearSpring(k=100.0, fy=10.0, alpha=0.1)
        f1 = s.force(0.2)   # well past yield (yield disp = 0.1)
        f2 = s.force(0.3)
        tangent = (f2 - f1) / 0.1
        assert tangent == pytest.approx(10.0, rel=1e-6)  # alpha * k

    def test_elastic_perfectly_plastic(self):
        s = BilinearSpring(k=100.0, fy=10.0, alpha=0.0)
        assert s.force(1.0) == pytest.approx(10.0)
        assert s.force(2.0) == pytest.approx(10.0)

    def test_unloading_is_elastic(self):
        s = BilinearSpring(k=100.0, fy=10.0, alpha=0.0)
        s.force(0.2)  # yield to +10
        f = s.force(0.19)  # unload slightly
        assert f == pytest.approx(10.0 - 100.0 * 0.01)

    def test_hysteresis_loop_dissipates_energy(self):
        s = BilinearSpring(k=100.0, fy=5.0, alpha=0.05)
        t = np.linspace(0, 4 * np.pi, 400)
        d = 0.2 * np.sin(t)
        f = s.force_history(d)
        energy = np.trapezoid(f, d)
        assert energy > 0.0  # net dissipation over closed cycles

    def test_reset(self):
        s = BilinearSpring(k=100.0, fy=5.0)
        s.force(1.0)
        assert s.plastic_disp != 0.0
        s.reset()
        assert s.plastic_disp == 0.0 and s.back_force == 0.0
        assert s.force(0.01) == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BilinearSpring(k=0, fy=1)
        with pytest.raises(ValueError):
            BilinearSpring(k=1, fy=0)
        with pytest.raises(ValueError):
            BilinearSpring(k=1, fy=1, alpha=1.0)

    @given(st.lists(st.floats(min_value=-0.5, max_value=0.5,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_force_never_exceeds_hardening_envelope(self, disps):
        """|f| <= fy + H*|plastic| + alpha-branch bound: use the global
        bilinear backbone bound |f| <= fy + alpha*k*|d| (+ small slack)."""
        k, fy, alpha = 100.0, 5.0, 0.1
        s = BilinearSpring(k=k, fy=fy, alpha=alpha)
        for d in disps:
            f = s.force(d)
            assert abs(f) <= fy + alpha * k * abs(d) + 1e-9 + (1 - alpha) * 0 \
                + fy * alpha  # loose envelope with hardening offset

    @given(st.floats(min_value=0.0, max_value=0.04, allow_nan=False))
    def test_matches_linear_below_yield(self, d):
        s = BilinearSpring(k=100.0, fy=10.0, alpha=0.3)
        assert s.force(d) == pytest.approx(100.0 * d)


class TestStiffnessFormulas:
    def test_cantilever(self):
        # E=200 GPa, I=1e-6 m^4, L=2 m -> 3*200e9*1e-6/8
        assert cantilever_stiffness(200e9, 1e-6, 2.0) == pytest.approx(75e3)

    def test_fixed_fixed_is_4x_cantilever(self):
        args = (200e9, 1e-6, 2.0)
        assert fixed_fixed_stiffness(*args) == pytest.approx(
            4 * cantilever_stiffness(*args))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cantilever_stiffness(0, 1, 1)


class TestStructuralModel:
    def test_sdof_frequency(self):
        m = StructuralModel(mass=[[4.0]], stiffness=[[16.0]])
        assert m.natural_frequencies()[0] == pytest.approx(2.0)
        assert m.periods()[0] == pytest.approx(np.pi)

    def test_rayleigh_damping_sdof_exact(self):
        m = StructuralModel(mass=[[2.0]], stiffness=[[8.0]])
        damped = m.with_rayleigh_damping(0.05)
        omega = 2.0
        assert damped.damping[0, 0] == pytest.approx(2 * 0.05 * omega * 2.0)

    def test_mass_must_be_positive_definite(self):
        with pytest.raises(ConfigurationError):
            StructuralModel(mass=[[0.0]], stiffness=[[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            StructuralModel(mass=np.eye(2), stiffness=np.eye(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["mass", "stiffness", "damping", "iota"])
    def test_non_finite_matrix_is_a_configuration_error(self, name, bad):
        arrays = {"mass": [[2.0]], "stiffness": [[8.0]],
                  "damping": [[0.4]], "iota": [1.0]}
        arrays[name] = np.full(np.shape(arrays[name]), bad)
        with pytest.raises(ConfigurationError, match=f"^{name} must be "
                                                     "finite"):
            StructuralModel(**arrays)

    @settings(max_examples=300, deadline=None)
    @given(m=st.floats(1e-100, 1e100), k=st.floats(1e-100, 1e100))
    def test_sdof_frequency_is_bit_identical_to_scipy_eigh(self, m, k):
        from scipy import linalg  # the oracle; the library never loads it

        model = StructuralModel(mass=[[m]], stiffness=[[k]])
        assert np.array_equal(
            model.natural_frequencies(),
            np.sqrt(linalg.eigh([[k]], [[m]], eigvals_only=True)))

    def test_external_force(self):
        m = StructuralModel(mass=np.diag([2.0, 3.0]), stiffness=np.eye(2) * 10)
        p = m.external_force(1.5)
        assert np.allclose(p, [-3.0, -4.5])


class TestShearFrame:
    def test_single_story(self):
        sf = ShearFrame(masses=[2.0], stiffnesses=[8.0])
        assert sf.stiffness[0, 0] == 8.0
        assert sf.natural_frequencies()[0] == pytest.approx(2.0)

    def test_two_story_stiffness_matrix(self):
        sf = ShearFrame(masses=[1.0, 1.0], stiffnesses=[100.0, 80.0])
        expected = np.array([[180.0, -80.0], [-80.0, 80.0]])
        assert np.allclose(sf.stiffness, expected)

    def test_stiffness_symmetric_and_psd(self):
        sf = ShearFrame(masses=[1, 2, 3], stiffnesses=[50, 40, 30])
        assert np.allclose(sf.stiffness, sf.stiffness.T)
        assert np.all(np.linalg.eigvalsh(sf.stiffness) > 0)

    def test_damping_from_zeta(self):
        sf = ShearFrame(masses=[2.0], stiffnesses=[8.0], zeta=0.05)
        assert sf.damping[0, 0] == pytest.approx(2 * 0.05 * 2.0 * 2.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            ShearFrame(masses=[1.0], stiffnesses=[1.0, 2.0])
        with pytest.raises(ConfigurationError):
            ShearFrame(masses=[-1.0], stiffnesses=[1.0])

    @given(st.lists(st.floats(min_value=0.5, max_value=10.0),
                    min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_frequencies_always_real_positive(self, masses):
        stiff = [10.0 * (i + 1) for i in range(len(masses))]
        sf = ShearFrame(masses=masses, stiffnesses=stiff)
        omega = sf.natural_frequencies()
        assert np.all(omega > 0)
        assert np.all(np.diff(omega) >= -1e-9)  # sorted ascending
