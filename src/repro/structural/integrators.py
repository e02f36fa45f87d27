"""Time-stepping integrators.

Four integrators cover the paper's needs:

* :class:`NewmarkBeta` — the implicit constant-average-acceleration method,
  unconditionally stable for linear systems.  Used for reference solutions
  (the "computational simulation" arm of a hybrid test) and for validating
  the pseudo-dynamic path against near-exact results.

* :class:`CentralDifferencePSD` — the explicit central-difference scheme
  that classical pseudo-dynamic substructure testing uses: at each step the
  *measured* restoring force enters the equation of motion, and the method
  produces the next displacement to command to the physical specimens.  This
  is the numerical heart of the MS-PSDS method in the paper (§3).  Its
  step-at-a-time API (``propose_next`` / ``commit``) matches the MOST
  control flow: compute displacement → send via NTCP → measure forces →
  compute next displacement.

* :class:`AlphaOSPSD` — the α-operator-splitting pseudo-dynamic scheme:
  the same step-at-a-time API, unconditionally stable for the linear part,
  for structures too stiff for the central-difference limit.

* :class:`EnsembleCentralDifferencePSD` — central difference over N
  scenario variants at once, each column bit-identical to a solo run (the
  §5 ensemble).

The three pseudo-dynamic steppers share one skeleton, ``_PseudoDynamic``:
the time-step check, the state shape, the exact snapshot/restore that §7
resume and §9 speculation rely on, and the convenience ``integrate`` loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.structural.ground_motion import GroundMotion
from repro.structural.model import StructuralModel
from repro.util.errors import ConfigurationError


def _system_matrix(name: str, a: np.ndarray) -> np.ndarray:
    """``a``, the matrix every later solve of ``name`` uses, refused here
    if it is not finite or is singular (a zero LU pivot), so a bad model
    or step fails at construction, not with a NaN command at step 1."""
    if not np.all(np.isfinite(a)):
        raise ConfigurationError(f"{name} matrix must be finite")
    try:
        np.linalg.solve(a, np.zeros(a.shape[0]))
    except np.linalg.LinAlgError:
        raise ConfigurationError(f"{name} matrix is singular") from None
    return a


def _solve_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a⁻¹ b`` for a :func:`_system_matrix`, after the finite and shape
    checks on ``b``.  A 1×1 system is one IEEE division, which is what
    LAPACK's ``dgetrs`` computes on a 1×1 factor, so every 1-DOF result is
    bit-identical to an LU solve and costs no more than it; a larger one is
    ``np.linalg.solve``."""
    b = np.asarray_chkfinite(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"Shapes of a {a.shape} and b {b.shape} are incompatible")
    if a.shape[0] == 1:
        return b / a[0, 0]
    return np.linalg.solve(a, b)


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be finite and > 0, got {dt!r}")


@dataclass(frozen=True)
class StepResult:
    """State after one completed integration step."""

    step: int
    time: float
    displacement: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    restoring_force: np.ndarray


class NewmarkBeta:
    """Implicit Newmark-beta integration of a *linear* model.

    Default ``beta=1/4, gamma=1/2`` (constant average acceleration) is
    unconditionally stable and second-order accurate.
    """

    def __init__(self, model: StructuralModel, dt: float, *,
                 beta: float = 0.25, gamma: float = 0.5):
        _check_dt(dt)
        self.model = model
        self.dt = dt
        self.beta = beta
        self.gamma = gamma
        m, c, k = model.mass, model.damping, model.stiffness
        self._keff = _system_matrix(
            "keff", k + gamma / (beta * dt) * c + m / (beta * dt ** 2))
        self._mass = _system_matrix("mass", m)

    def integrate(self, motion: GroundMotion,
                  d0: np.ndarray | None = None,
                  v0: np.ndarray | None = None) -> list[StepResult]:
        """Integrate a base-excitation record; returns per-step results.

        The ground motion's ``dt`` must match the integrator's.
        """
        if not np.isclose(motion.dt, self.dt):
            raise ConfigurationError(
                f"ground motion dt={motion.dt} != integrator dt={self.dt}")
        loads = np.array([self.model.external_force(a)
                          for a in motion.accel])
        return self.integrate_forced(loads, d0=d0, v0=v0)

    def integrate_forced(self, loads: np.ndarray,
                         d0: np.ndarray | None = None,
                         v0: np.ndarray | None = None) -> list[StepResult]:
        """Integrate an explicit load history.

        ``loads`` has shape (n_steps, n_dof): the external force vector at
        each step (e.g. a shaker applied at one floor, as in forced
        vibration field testing).
        """
        model, dt, beta, gamma = self.model, self.dt, self.beta, self.gamma
        loads = np.atleast_2d(np.asarray(loads, dtype=float))
        if loads.shape[1] != model.n_dof:
            raise ConfigurationError(
                f"loads have {loads.shape[1]} columns; model has "
                f"{model.n_dof} DOFs")
        n = model.n_dof
        d = np.zeros(n) if d0 is None else np.asarray(d0, dtype=float).copy()
        v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).copy()
        p0 = loads[0] if len(loads) else np.zeros(n)
        a = _solve_system(self._mass,
                          p0 - model.damping @ v - model.stiffness @ d)
        results: list[StepResult] = []
        m, c, k = model.mass, model.damping, model.stiffness
        for step in range(1, len(loads)):
            p = loads[step]
            rhs = (p
                   + m @ (d / (beta * dt ** 2) + v / (beta * dt)
                          + (1 / (2 * beta) - 1) * a)
                   + c @ (gamma / (beta * dt) * d
                          + (gamma / beta - 1) * v
                          + dt * (gamma / (2 * beta) - 1) * a))
            d_new = _solve_system(self._keff, rhs)
            a_new = ((d_new - d) / (beta * dt ** 2) - v / (beta * dt)
                     - (1 / (2 * beta) - 1) * a)
            v_new = v + dt * ((1 - gamma) * a + gamma * a_new)
            d, v, a = d_new, v_new, a_new
            results.append(StepResult(step=step, time=step * dt,
                                      displacement=d.copy(), velocity=v.copy(),
                                      acceleration=a.copy(),
                                      restoring_force=(k @ d)))
        return results


class _PseudoDynamic:
    """The stepping skeleton every pseudo-dynamic integrator shares.

    A subclass supplies its algebra — coefficients in ``__init__``,
    :meth:`start`, :meth:`propose_next`, :meth:`commit` — and names its
    mutable state in ``STATE``: name ``n`` lives in the attribute ``_n``,
    is ``None`` until :meth:`start`, and is an array of
    :meth:`state_shape`.  Everything else is here: the time-step check,
    the checked mass matrix, the snapshot/restore pair the §7 resume and
    the §9 speculation shadow rely on, and the :meth:`integrate` loop.
    """

    #: the state arrays, in snapshot order
    STATE: tuple[str, ...] = ()
    SNAPSHOT_KIND = ""

    def __init__(self, model: StructuralModel, dt: float):
        _check_dt(dt)
        self.model = model
        self.dt = dt
        self._mass = _system_matrix("mass", model.mass)
        for name in self.STATE:
            setattr(self, "_" + name, None)
        self.step_index = 0

    def state_shape(self) -> tuple[int, ...]:
        """Shape of every state array: ``(n_dof,)`` for a single run,
        ``(n_dof, n_variants)`` for an ensemble subclass.  The matrix
        algebra is mathematically column-independent, so one set of
        system matrices drives every variant; ensemble subclasses
        additionally evaluate it column by column (see
        :class:`_ColumnwiseAlgebra`) so each variant's floats are
        *bit-identical* to a solo run."""
        return (self.model.n_dof,)

    def _apply(self, matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``matrix @ x`` (ensemble subclasses evaluate per column)."""
        return matrix @ x

    def _solve(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``_solve_system(a, x)`` (ensemble subclasses evaluate per
        column)."""
        return _solve_system(a, x)

    def _initial_state(self, r0, p0, d0, v0) -> tuple[np.ndarray, ...]:
        """``(d0, v0, a0, r0, p0)`` for :meth:`start`: fresh float arrays,
        at rest by default, with ``a0`` from the equation of motion; the
        step counter is rewound."""
        shape = self.state_shape()
        d0 = (np.zeros(shape) if d0 is None
              else np.asarray(d0, dtype=float).copy())
        v0 = (np.zeros(shape) if v0 is None
              else np.asarray(v0, dtype=float).copy())
        r0 = np.asarray(r0, dtype=float).copy()
        p0 = np.asarray(p0, dtype=float).copy()
        a0 = self._solve(self._mass,
                         p0 - self._apply(self.model.damping, v0) - r0)
        self.step_index = 0
        return d0, v0, a0, r0, p0

    def snapshot(self) -> dict:
        """The mutable stepping state, exactly, at a commit boundary.

        Derived quantities (system and coefficient matrices) are *not*
        included — they are recomputed deterministically from the model
        and ``dt`` in ``__init__``, so a restored integrator is
        bit-identical to the original without serializing them.
        """
        state = [getattr(self, "_" + name) for name in self.STATE]
        if state[0] is None:
            raise ConfigurationError("cannot snapshot before start()")
        return {
            "kind": self.SNAPSHOT_KIND,
            "step_index": self.step_index,
            "arrays": {name: vec.copy()
                       for name, vec in zip(self.STATE, state)},
        }

    def restore(self, snapshot: dict) -> None:
        """Resume stepping from a :meth:`snapshot`, bit-exact.  Every
        array is checked before any is taken, so a refused snapshot
        leaves the integrator as it was."""
        if snapshot.get("kind") != self.SNAPSHOT_KIND:
            raise ConfigurationError(
                f"snapshot kind {snapshot.get('kind')!r} does not match "
                f"integrator {self.SNAPSHOT_KIND!r}")
        arrays = snapshot["arrays"]
        shape = self.state_shape()
        loaded = {}
        for key in self.STATE:
            if key not in arrays:
                raise ConfigurationError(f"snapshot missing array {key!r}")
            vec = np.asarray(arrays[key], dtype=float).copy()
            if vec.shape != shape:
                raise ConfigurationError(
                    f"snapshot array {key!r} has shape {vec.shape}; "
                    f"integrator state is {shape}")
            loaded[key] = vec
        for key, vec in loaded.items():
            setattr(self, "_" + key, vec)
        self.step_index = int(snapshot["step_index"])

    def integrate(self, motion: GroundMotion, restoring) -> list[StepResult]:
        """Convenience loop: ``restoring(d) -> R`` supplies forces locally."""
        external_force = self.model.external_force
        self.start(r0=np.asarray(restoring(np.zeros(self.state_shape())),
                                 dtype=float),
                   p0=external_force(
                       motion.accel[0] if motion.n_steps else 0.0))
        results = []
        for step in range(1, motion.n_steps):
            d_next = self.propose_next()
            r_next = np.asarray(restoring(d_next), dtype=float)
            results.append(self.commit(
                d_next, r_next, external_force(motion.accel[step])))
        return results


class CentralDifferencePSD(_PseudoDynamic):
    """Explicit central-difference stepping for pseudo-dynamic testing.

    The equation of motion uses the *measured* restoring force ``R_n``::

        (M/dt^2 + C/2dt) d_{n+1} = p_n - R_n + (2M/dt^2) d_n
                                   - (M/dt^2 - C/2dt) d_{n-1}

    Conditionally stable: ``dt < 2/omega_max`` (check :meth:`stable_dt`).

    Usage per step::

        psd.start(r0=measure(d0), p0=load(0))
        for n in 1..N:
            d_next = psd.propose_next()       # displacement to command
            r_next = measure(d_next)           # physical / simulated forces
            state  = psd.commit(d_next, r_next, p_next=load(n))
    """

    STATE = ("d_prev", "d_curr", "r_curr", "p_curr")
    SNAPSHOT_KIND = "central-difference"

    def __init__(self, model: StructuralModel, dt: float):
        super().__init__(model, dt)
        m, c = model.mass, model.damping
        self._lhs = _system_matrix("lhs", m / dt ** 2 + c / (2 * dt))
        self._a_coef = 2 * m / dt ** 2
        self._b_coef = m / dt ** 2 - c / (2 * dt)

    def stable_dt(self) -> float:
        """The central-difference stability limit ``2/omega_max``."""
        omega_max = float(self.model.natural_frequencies()[-1])
        return np.inf if omega_max == 0 else 2.0 / omega_max

    def start(self, r0: np.ndarray, p0: np.ndarray,
              d0: np.ndarray | None = None,
              v0: np.ndarray | None = None) -> None:
        """Initialize from measured force at the initial displacement."""
        d0, v0, a0, self._r_curr, self._p_curr = self._initial_state(
            r0, p0, d0, v0)
        self._d_curr = d0
        self._d_prev = d0 - self.dt * v0 + 0.5 * self.dt ** 2 * a0

    def propose_next(self) -> np.ndarray:
        """The displacement to command for step ``n+1``."""
        if self._d_curr is None:
            raise ConfigurationError("call start() before stepping")
        rhs = (self._p_curr - self._r_curr
               + self._apply(self._a_coef, self._d_curr)
               - self._apply(self._b_coef, self._d_prev))
        return self._solve(self._lhs, rhs)

    def commit(self, d_next: np.ndarray, r_next: np.ndarray,
               p_next: np.ndarray) -> StepResult:
        """Accept measured forces at ``d_next``; advance one step."""
        if self._d_curr is None:
            raise ConfigurationError("call start() before stepping")
        d_next = np.asarray(d_next, dtype=float)
        dt = self.dt
        velocity = (d_next - self._d_prev) / (2 * dt)
        acceleration = (d_next - 2 * self._d_curr + self._d_prev) / dt ** 2
        self._d_prev = self._d_curr
        self._d_curr = d_next.copy()
        self._r_curr = np.asarray(r_next, dtype=float).copy()
        self._p_curr = np.asarray(p_next, dtype=float).copy()
        self.step_index += 1
        return StepResult(step=self.step_index, time=self.step_index * dt,
                          displacement=d_next.copy(), velocity=velocity,
                          acceleration=acceleration,
                          restoring_force=self._r_curr.copy())


class AlphaOSPSD(_PseudoDynamic):
    """The α-Operator-Splitting pseudo-dynamic method (Nakashima et al.).

    Reference [14]'s authors pioneered real-time pseudo-dynamic testing
    with operator-splitting schemes: the displacement *command* is an
    explicit predictor, the measured restoring force enters the equation of
    motion, and an implicit corrector built from the **nominal** initial
    stiffness ``K̂`` supplies unconditional stability for the linear part —
    the method of choice when a test structure is too stiff for the
    central-difference limit.  With HHT-α numerical damping
    (``alpha ∈ [-1/3, 0]``) spurious high modes are filtered.

    Per step: predictor ``d̃_{n+1}`` (what the specimens are commanded to),
    measured ``R̃_{n+1}`` at the predictor, then the corrector solve.

    Usage mirrors :class:`CentralDifferencePSD`::

        psd.start(r0, p0)
        d_cmd  = psd.propose_next()      # predictor displacement
        r_meas = measure(d_cmd)
        state  = psd.commit(d_cmd, r_meas, p_next)
    """

    STATE = ("d", "v", "a", "r", "p")
    SNAPSHOT_KIND = "alpha-os"

    def __init__(self, model: StructuralModel, dt: float, *,
                 alpha: float = -0.1,
                 nominal_stiffness: np.ndarray | None = None):
        super().__init__(model, dt)
        if not -1.0 / 3.0 <= alpha <= 0.0:
            raise ConfigurationError("alpha must be in [-1/3, 0]")
        self.alpha = alpha
        self.beta = (1.0 - alpha) ** 2 / 4.0
        self.gamma = 0.5 - alpha
        k_hat = (model.stiffness if nominal_stiffness is None
                 else np.atleast_2d(np.asarray(nominal_stiffness,
                                               dtype=float)))
        self.k_hat = k_hat
        m, c = model.mass, model.damping
        # effective matrix of the alpha-OS corrector
        self._meff = _system_matrix(
            "meff", m + self.gamma * dt * (1 + alpha) * c
            + self.beta * dt ** 2 * (1 + alpha) * k_hat)
        self._d_pred = None

    def start(self, r0: np.ndarray, p0: np.ndarray,
              d0: np.ndarray | None = None,
              v0: np.ndarray | None = None) -> None:
        self._d, self._v, self._a, self._r, self._p = self._initial_state(
            r0, p0, d0, v0)

    def restore(self, snapshot: dict) -> None:
        """Resume at a commit boundary: ``_d_pred`` only exists between a
        ``propose_next`` and its ``commit``, so it is never in a snapshot
        and a restored stepper must propose afresh."""
        super().restore(snapshot)
        self._d_pred = None

    def propose_next(self) -> np.ndarray:
        """The explicit predictor displacement to command."""
        if self._d is None:
            raise ConfigurationError("call start() before stepping")
        dt, beta = self.dt, self.beta
        self._d_pred = (self._d + dt * self._v
                        + dt ** 2 * (0.5 - beta) * self._a)
        return self._d_pred.copy()

    def commit(self, d_cmd: np.ndarray, r_meas: np.ndarray,
               p_next: np.ndarray) -> StepResult:
        """Corrector solve with the measured force at the predictor."""
        if self._d_pred is None:
            raise ConfigurationError("call propose_next() before commit()")
        dt, alpha, beta, gamma = self.dt, self.alpha, self.beta, self.gamma
        c = self.model.damping
        r_meas = np.asarray(r_meas, dtype=float)
        p_next = np.asarray(p_next, dtype=float)
        v_pred = self._v + dt * (1 - gamma) * self._a
        # alpha-weighted effective load (HHT time averaging)
        rhs = ((1 + alpha) * p_next - alpha * self._p
               - (1 + alpha) * r_meas + alpha * self._r
               - self._apply((1 + alpha) * c, v_pred)
               - alpha * self._apply(c, self._v)
               - self._apply(alpha * self.k_hat, self._d_pred - self._d))
        a_new = self._solve(self._meff, rhs)
        d_new = self._d_pred + beta * dt ** 2 * a_new
        v_new = v_pred + gamma * dt * a_new
        # the *reported* restoring force includes the corrector's elastic
        # contribution on the nominal stiffness
        r_new = r_meas + self._apply(self.k_hat, d_new - self._d_pred)
        self._d, self._v, self._a = d_new, v_new, a_new
        self._r, self._p = r_new, p_next
        self._d_pred = None
        self.step_index += 1
        return StepResult(step=self.step_index,
                          time=self.step_index * dt,
                          displacement=d_new.copy(), velocity=v_new.copy(),
                          acceleration=a_new.copy(),
                          restoring_force=r_new.copy())


class _ColumnwiseAlgebra:
    """Matrix ops evaluated one column at a time, for bit-exact ensembles.

    BLAS does *not* guarantee that a matrix-RHS solve/multiply
    (``dgemm``/``dtrsm``) rounds identically to N vector-RHS calls
    (``dgemv``/``dtrsv``) — the blocked kernels accumulate in a
    different order, and the batched result can differ from the solo
    result in the last ulp.  For an ensemble that promises column *i*
    is *bit-identical* to a solo run of variant *i*, that is corruption,
    not noise.  This mixin therefore routes :meth:`_apply` and
    :meth:`_solve` through the exact vector code path per column.  The
    loop costs Python overhead in *wall* time only; simulated time is
    unaffected, so the ensemble's protocol amortization stands.
    """

    @staticmethod
    def _columns(op, x: np.ndarray) -> np.ndarray:
        return np.stack([op(x[:, i]) for i in range(x.shape[1])], axis=1)

    def _apply(self, matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._columns(lambda col: matrix @ col, x)

    def _solve(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self._columns(lambda col: _solve_system(a, col), x)


class EnsembleCentralDifferencePSD(_ColumnwiseAlgebra, CentralDifferencePSD):
    """Central-difference stepping vectorized over N scenario variants.

    Every state array carries shape ``(n_dof, n_variants)`` — one column
    per variant — while the LHS and mass matrices are shared across the
    whole batch.  The algebra is evaluated per column (see
    :class:`_ColumnwiseAlgebra`), so column *i* of the batched
    trajectory is bit-identical to a solo :class:`CentralDifferencePSD`
    run driven by variant *i*'s forces and loads.  One propose/commit
    cycle advances the entire ensemble.
    """

    SNAPSHOT_KIND = "central-difference-ensemble"

    def __init__(self, model: StructuralModel, dt: float, n_variants: int):
        if n_variants < 1:
            raise ConfigurationError("n_variants must be >= 1")
        super().__init__(model, dt)
        self.n_variants = int(n_variants)

    def state_shape(self) -> tuple[int, ...]:
        return (self.model.n_dof, self.n_variants)
