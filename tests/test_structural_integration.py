"""Integrator validation: analytic solutions, convergence, PSD equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structural import (
    AlphaOSPSD,
    BilinearSpring,
    CentralDifferencePSD,
    GroundMotion,
    LinearSubstructure,
    NewmarkBeta,
    PhysicalSpecimen,
    LinearSpring,
    ShearFrame,
    SpecimenSubstructure,
    StructuralModel,
    SubstructuredModel,
    el_centro_like,
)
from repro.structural.specimen import Actuator, Sensor
from repro.util.errors import ConfigurationError


def sdof_model(m=2.0, k=8.0, zeta=0.05):
    model = StructuralModel(mass=[[m]], stiffness=[[k]])
    return model.with_rayleigh_damping(zeta) if zeta > 0 else model


def analytic_free_vibration(m, k, zeta, d0, t):
    """Closed-form damped free vibration from initial displacement d0."""
    omega = np.sqrt(k / m)
    omega_d = omega * np.sqrt(1 - zeta ** 2)
    return np.exp(-zeta * omega * t) * d0 * (
        np.cos(omega_d * t) + zeta * omega / omega_d * np.sin(omega_d * t))


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
@pytest.mark.parametrize("integrator",
                         [NewmarkBeta, CentralDifferencePSD, AlphaOSPSD])
def test_non_finite_dt_is_a_configuration_error(integrator, dt):
    """Not scipy's untyped complaint about the factorised matrix, nor
    (for an infinite step) a singular central-difference LHS."""
    with pytest.raises(ConfigurationError, match="dt must be finite"):
        integrator(sdof_model(), dt)


@pytest.mark.parametrize("integrator, dt, mass, damping, kwargs, name", [
    (NewmarkBeta, 0.5, [2.0], [-33.0], {}, "keff"),
    (CentralDifferencePSD, 0.01, [2.0], [-400.0], {}, "lhs"),   # c = -2m/dt
    (CentralDifferencePSD, 0.01, [2.0, 3.0], [-400.0, -600.0], {}, "lhs"),
    (AlphaOSPSD, 0.5, [2.0], [-33.0], {"alpha": 0.0}, "meff"),
])
def test_singular_system_matrix_is_a_configuration_error(
        integrator, dt, mass, damping, kwargs, name):
    """A damping that cancels the rest of the system matrix exactly is
    refused at construction, by the matrix's name, not proposed as NaN."""
    model = StructuralModel(np.diag(mass), 100.0 * np.eye(len(mass)),
                            damping=np.diag(damping))
    with pytest.raises(ConfigurationError, match=rf"^{name} matrix is "
                                                 "singular"):
        integrator(model, dt, **kwargs)


@pytest.mark.parametrize("integrator", [NewmarkBeta, CentralDifferencePSD])
def test_overflowing_system_matrix_is_a_configuration_error(integrator):
    """A finite model whose system matrix divides by ``dt²`` and
    overflows at a tiny ``dt``."""
    with np.errstate(over="ignore", divide="ignore"), pytest.raises(
            ConfigurationError, match="matrix must be finite"):
        integrator(sdof_model(), 1e-200)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1e-150, 1e150), negative=st.booleans(),
       b=st.floats(-1e150, 1e150))
def test_sdof_solve_is_bit_identical_to_an_lu_solve(a, negative, b):
    from scipy import linalg  # the oracle; the library never loads it

    from repro.structural.integrators import _solve_system

    matrix = np.array([[-a if negative else a]])
    rhs = np.array([b])
    x, info = linalg.lapack.dgetrs(*linalg.lu_factor(matrix), rhs)
    assert info == 0
    assert np.array_equal(_solve_system(matrix, rhs), x)


@settings(max_examples=50, deadline=None)
@given(masses=st.lists(st.floats(0.5, 10.0), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_multi_dof_shear_frames_are_close_to_scipy_not_bit_equal(masses,
                                                                 seed):
    """numpy's LAPACK calls round differently from scipy's ``eigh`` and
    ``dgetrs`` for n >= 2: the frequencies and solves agree to a few
    ulps, which is all this asserts."""
    from scipy import linalg  # the oracle; the library never loads it

    from repro.structural.integrators import _solve_system

    rng = np.random.default_rng(seed)
    frame = ShearFrame(masses, rng.uniform(10.0, 200.0, len(masses)),
                       zeta=0.05)
    np.testing.assert_allclose(
        frame.natural_frequencies(),
        np.sqrt(linalg.eigh(frame.stiffness, frame.mass, eigvals_only=True)),
        rtol=1e-12)
    lhs = CentralDifferencePSD(frame, 0.01)._lhs
    rhs = rng.uniform(1.0, 2.0, len(masses))
    np.testing.assert_allclose(_solve_system(lhs, rhs),
                               linalg.lu_solve(linalg.lu_factor(lhs), rhs),
                               rtol=1e-12)


class TestNewmarkBeta:
    def test_free_vibration_matches_analytic(self):
        m, k, zeta, d0 = 2.0, 8.0, 0.05, 0.01
        model = sdof_model(m, k, zeta)
        dt = 0.01
        motion = GroundMotion(dt=dt, accel=np.zeros(1000))
        nm = NewmarkBeta(model, dt)
        results = nm.integrate(motion, d0=np.array([d0]))
        times = np.array([r.time for r in results])
        disp = np.array([r.displacement[0] for r in results])
        exact = analytic_free_vibration(m, k, zeta, d0, times)
        assert np.max(np.abs(disp - exact)) < 1e-5 * d0 * 100

    def test_undamped_energy_conserved(self):
        model = sdof_model(zeta=0.0)
        dt = 0.005
        motion = GroundMotion(dt=dt, accel=np.zeros(2000))
        nm = NewmarkBeta(model, dt)
        results = nm.integrate(motion, d0=np.array([0.01]))
        k, m = 8.0, 2.0
        energies = [0.5 * k * r.displacement[0] ** 2
                    + 0.5 * m * r.velocity[0] ** 2 for r in results]
        assert max(energies) / min(energies) < 1.0001

    def test_second_order_convergence(self):
        """Halving dt should reduce error ~4x for the trapezoidal rule."""
        m, k, d0 = 2.0, 8.0, 0.01
        model = sdof_model(m, k, zeta=0.0)

        def error_at(dt):
            motion = GroundMotion(dt=dt, accel=np.zeros(int(2.0 / dt)))
            results = NewmarkBeta(model, dt).integrate(motion, d0=np.array([d0]))
            r = results[-1]
            exact = analytic_free_vibration(m, k, 0.0, d0, r.time)
            return abs(r.displacement[0] - exact)

        e1, e2 = error_at(0.02), error_at(0.01)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_dt_mismatch_rejected(self):
        model = sdof_model()
        nm = NewmarkBeta(model, 0.01)
        with pytest.raises(ConfigurationError):
            nm.integrate(GroundMotion(dt=0.02, accel=np.zeros(10)))

    def test_forced_response_steady_state_amplitude(self):
        """Harmonic base excitation -> steady-state amplitude matches the
        frequency-response magnitude."""
        m, k, zeta = 1.0, 100.0, 0.05   # omega_n = 10
        model = sdof_model(m, k, zeta)
        omega = 5.0                      # excitation frequency (r = 0.5)
        dt = 0.002
        t = np.arange(0, 60.0, dt)
        motion = GroundMotion(dt=dt, accel=np.sin(omega * t))
        results = NewmarkBeta(model, dt).integrate(motion)
        disp = np.array([r.displacement[0] for r in results])
        tail = disp[int(40.0 / dt):]
        r_freq = omega / 10.0
        exact_amp = (1.0 / k) * m * 1.0 / np.sqrt(
            (1 - r_freq ** 2) ** 2 + (2 * zeta * r_freq) ** 2)
        assert np.max(np.abs(tail)) == pytest.approx(exact_amp, rel=0.02)


class TestCentralDifferencePSD:
    def test_matches_newmark_for_linear_system(self):
        model = sdof_model(zeta=0.05)
        dt = 0.005
        motion = el_centro_like(duration=10.0, dt=0.02).resampled(dt)
        k = model.stiffness
        psd = CentralDifferencePSD(model, dt)
        psd_results = psd.integrate(motion, restoring=lambda d: k @ d)
        nm_results = NewmarkBeta(model, dt).integrate(motion)
        d_psd = np.array([r.displacement[0] for r in psd_results])
        d_nm = np.array([r.displacement[0] for r in nm_results])
        scale = np.max(np.abs(d_nm))
        assert np.max(np.abs(d_psd - d_nm)) < 0.02 * scale

    def test_stable_dt_bound(self):
        model = sdof_model(m=2.0, k=8.0, zeta=0.0)  # omega = 2
        psd = CentralDifferencePSD(model, 0.01)
        assert psd.stable_dt() == pytest.approx(1.0)

    def test_instability_beyond_limit(self):
        model = sdof_model(m=1.0, k=400.0, zeta=0.0)  # omega=20, dt_crit=0.1
        dt = 0.15
        motion = GroundMotion(dt=dt, accel=np.zeros(200))
        psd = CentralDifferencePSD(model, dt)
        results = psd.integrate(
            motion, restoring=lambda d: model.stiffness @ d)
        # seed a nonzero state via initial displacement instead:
        psd2 = CentralDifferencePSD(model, dt)
        psd2.start(r0=model.stiffness @ np.array([0.01]),
                   p0=np.zeros(1), d0=np.array([0.01]))
        disp = []
        for _ in range(200):
            d = psd2.propose_next()
            disp.append(abs(d[0]))
            psd2.commit(d, model.stiffness @ d, np.zeros(1))
        assert disp[-1] > 1e3 * disp[0]  # blew up, as theory predicts
        del results

    def test_step_api_equals_batch_api(self):
        model = sdof_model(zeta=0.02)
        dt = 0.01
        motion = el_centro_like(duration=5.0, dt=dt)
        k = model.stiffness

        batch = CentralDifferencePSD(model, dt).integrate(
            motion, restoring=lambda d: k @ d)

        psd = CentralDifferencePSD(model, dt)
        psd.start(r0=k @ np.zeros(1), p0=model.external_force(motion.accel[0]))
        stepped = []
        for n in range(1, motion.n_steps):
            d = psd.propose_next()
            stepped.append(psd.commit(d, k @ d,
                                      model.external_force(motion.accel[n])))
        assert len(batch) == len(stepped)
        for a, b in zip(batch, stepped):
            assert np.allclose(a.displacement, b.displacement)

    def test_propose_before_start_rejected(self):
        psd = CentralDifferencePSD(sdof_model(), 0.01)
        with pytest.raises(ConfigurationError):
            psd.propose_next()

    def test_mdof_psd_matches_newmark(self):
        frame = ShearFrame(masses=[2.0, 1.5, 1.0],
                           stiffnesses=[600.0, 500.0, 400.0], zeta=0.03)
        dt = 0.002
        motion = el_centro_like(duration=8.0, dt=0.02).resampled(dt)
        k = frame.stiffness
        psd_results = CentralDifferencePSD(frame, dt).integrate(
            motion, restoring=lambda d: k @ d)
        nm_results = NewmarkBeta(frame, dt).integrate(motion)
        d_psd = np.array([r.displacement for r in psd_results])
        d_nm = np.array([r.displacement for r in nm_results])
        scale = np.max(np.abs(d_nm))
        assert np.max(np.abs(d_psd - d_nm)) < 0.03 * scale

    @given(st.floats(min_value=0.5, max_value=4.0),
           st.floats(min_value=10.0, max_value=200.0))
    @settings(max_examples=15, deadline=None)
    def test_linear_psd_bounded_for_stable_dt(self, m, k):
        model = StructuralModel(mass=[[m]], stiffness=[[k]])
        model = model.with_rayleigh_damping(0.05)
        omega = np.sqrt(k / m)
        dt = 0.5 / omega  # comfortably inside 2/omega
        motion = GroundMotion(dt=dt, accel=np.sin(np.arange(400) * dt))
        results = CentralDifferencePSD(model, dt).integrate(
            motion, restoring=lambda d: model.stiffness @ d)
        peak = max(abs(r.displacement[0]) for r in results)
        static = 1.0 * m / k  # static deflection under unit accel load
        assert peak < 50 * static  # bounded (no blow-up)


class TestSubstructuredModel:
    def make_hybrid(self):
        """1-DOF structure split into three parallel substructures, like MOST."""
        k_left, k_mid, k_right = 30.0, 40.0, 30.0
        subs = [
            LinearSubstructure("left", [[k_left]], dof_indices=[0]),
            LinearSubstructure("middle", [[k_mid]], dof_indices=[0]),
            LinearSubstructure("right", [[k_right]], dof_indices=[0]),
        ]
        return SubstructuredModel(mass=[[2.0]], damping=[[0.4]],
                                  substructures=subs)

    def test_restoring_is_sum_of_parts(self):
        hm = self.make_hybrid()
        d = np.array([0.01])
        assert hm.restoring(d)[0] == pytest.approx(1.0)  # (30+40+30)*0.01

    def test_initial_stiffness_assembly(self):
        hm = self.make_hybrid()
        assert hm.initial_stiffness()[0, 0] == pytest.approx(100.0)

    def test_uncovered_dof_rejected(self):
        with pytest.raises(ConfigurationError, match="restrained by no"):
            SubstructuredModel(
                mass=np.eye(2), damping=np.zeros((2, 2)),
                substructures=[LinearSubstructure("only0", [[1.0]], [0])])

    def test_out_of_range_dof_rejected(self):
        with pytest.raises(ConfigurationError, match="outside"):
            SubstructuredModel(
                mass=[[1.0]], damping=[[0.0]],
                substructures=[LinearSubstructure("bad", [[1.0]], [3])])

    def test_equivalent_linear_model_matches_monolithic(self):
        hm = self.make_hybrid()
        dt = 0.01
        motion = el_centro_like(duration=5.0, dt=dt).scaled_to_pga(1.0)
        # hybrid: PSD over assembled substructures
        linear = hm.equivalent_linear_model()
        psd_results = CentralDifferencePSD(linear, dt).integrate(
            motion, restoring=hm.restoring)
        # monolithic: same K as one matrix
        mono = StructuralModel([[2.0]], [[100.0]], [[0.4]])
        mono_results = CentralDifferencePSD(mono, dt).integrate(
            motion, restoring=lambda d: mono.stiffness @ d)
        d_h = np.array([r.displacement[0] for r in psd_results])
        d_m = np.array([r.displacement[0] for r in mono_results])
        assert np.allclose(d_h, d_m)

    def test_specimen_substructure_tracks_linear_reference(self):
        spec = PhysicalSpecimen(
            "col", LinearSpring(k=50.0),
            actuator=Actuator(tracking_std=0.0, max_stroke=1.0),
            lvdt=Sensor(noise_std=0.0), load_cell=Sensor(noise_std=0.0),
            seed=1)
        sub = SpecimenSubstructure("uiuc", [spec], dof_indices=[0])
        f = sub.restoring(np.array([0.02]))
        assert f[0] == pytest.approx(1.0)

    def test_specimen_substructure_initial_stiffness(self):
        spec = PhysicalSpecimen("col", LinearSpring(k=50.0))
        sub = SpecimenSubstructure("uiuc", [spec])
        assert sub.initial_stiffness()[0, 0] == 50.0


class TestPhysicalSpecimen:
    def test_measurement_fields(self):
        spec = PhysicalSpecimen("s", LinearSpring(k=100.0), seed=3)
        m = spec.apply(0.01)
        assert m.commanded == 0.01
        assert m.achieved == pytest.approx(0.01, abs=1e-4)
        assert m.force == pytest.approx(1.0, abs=5.0)
        assert m.settle_time >= 0.5

    def test_stroke_limit_enforced(self):
        from repro.util.errors import PolicyViolation

        spec = PhysicalSpecimen("s", LinearSpring(k=100.0))
        with pytest.raises(PolicyViolation) as exc_info:
            spec.apply(1.0)  # default stroke 0.075 m
        assert exc_info.value.limit == pytest.approx(0.075)

    def test_check_does_not_move(self):
        spec = PhysicalSpecimen("s", LinearSpring(k=100.0))
        spec.check(0.05)
        assert spec.actuator.position == 0.0
        assert spec.history == []

    def test_settle_time_grows_with_stroke(self):
        act = Actuator()
        t_small = act.settle_time(0.001)
        t_large = act.settle_time(0.05)
        assert t_large > t_small

    def test_larger_moves_slew_limited(self):
        act = Actuator(max_rate=0.01, min_settle=0.1, time_constant=0.01)
        assert act.settle_time(0.05) == pytest.approx(5.0)  # 0.05 m at 1 cm/s

    def test_hysteretic_specimen_dissipates(self):
        spec = PhysicalSpecimen(
            "yielding", BilinearSpring(k=100.0, fy=2.0, alpha=0.05),
            actuator=Actuator(max_stroke=1.0, tracking_std=0.0),
            lvdt=Sensor(), load_cell=Sensor(), seed=0)
        t = np.linspace(0, 2 * np.pi, 100)
        disps = 0.06 * np.sin(t)
        forces = [spec.apply(float(d)).force for d in disps]
        energy = np.trapezoid(forces, disps)
        assert energy > 0

    def test_reset_restores_virgin_state(self):
        spec = PhysicalSpecimen("s", BilinearSpring(k=100.0, fy=1.0),
                                actuator=Actuator(max_stroke=1.0))
        spec.apply(0.05)
        spec.reset()
        assert spec.actuator.position == 0.0
        assert spec.element.plastic_disp == 0.0
        assert spec.history == []

    def test_deterministic_per_seed(self):
        a = PhysicalSpecimen("s", LinearSpring(100.0), seed=9).apply(0.01)
        b = PhysicalSpecimen("s", LinearSpring(100.0), seed=9).apply(0.01)
        assert a == b

    def test_sensor_quantization(self):
        s = Sensor(resolution=0.5)
        rng = np.random.default_rng(0)
        assert s.read(1.3, rng) == 1.5
        assert s.read(1.1, rng) == 1.0
