"""Ground acceleration records.

MOST applied an earthquake record over 1,500 pseudo-dynamic time steps.  We
have no rights to distribute a real accelerogram, so two synthetic
generators stand in (DESIGN.md substitution table): a Kanai–Tajimi filtered
white-noise record with a trapezoidal-ish intensity envelope — the standard
engineering model of broadband strong motion — and a deterministic
"classic-record-shaped" composite of decaying sinusoids for tests that need
a fixed, seed-independent input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class GroundMotion:
    """A uniformly sampled ground acceleration history.

    Attributes:
        dt: sample spacing [s].
        accel: ground acceleration samples [m/s^2].
        name: label for logs and plots.
    """

    dt: float
    accel: np.ndarray
    name: str = "synthetic"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "accel", np.asarray(self.accel, dtype=float))
        if self.accel.ndim != 1:
            raise ValueError("accel must be one-dimensional")

    @property
    def n_steps(self) -> int:
        return len(self.accel)

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def pga(self) -> float:
        """Peak ground acceleration [m/s^2]."""
        return float(np.max(np.abs(self.accel))) if self.n_steps else 0.0

    def scaled_to_pga(self, target_pga: float) -> "GroundMotion":
        """Linearly rescale the record to a target PGA."""
        pga = self.pga
        if pga == 0.0:
            raise ValueError("cannot scale an all-zero record")
        return GroundMotion(dt=self.dt, accel=self.accel * (target_pga / pga),
                            name=f"{self.name}@{target_pga:g}")

    def resampled(self, new_dt: float) -> "GroundMotion":
        """Linear interpolation onto a new sample spacing."""
        t_old = np.arange(self.n_steps) * self.dt
        t_new = np.arange(0.0, self.duration, new_dt)
        return GroundMotion(dt=new_dt,
                            accel=np.interp(t_new, t_old, self.accel),
                            name=f"{self.name}/dt={new_dt:g}")

    def truncated(self, n_steps: int) -> "GroundMotion":
        """The first ``n_steps`` samples."""
        return GroundMotion(dt=self.dt, accel=self.accel[:n_steps],
                            name=self.name)


def _intensity_envelope(t: np.ndarray, rise: float, plateau: float,
                        decay: float) -> np.ndarray:
    """Jennings-type envelope: quadratic rise, flat plateau, exponential tail."""
    env = np.ones_like(t)
    rising = t < rise
    env[rising] = (t[rising] / rise) ** 2
    tail = t > rise + plateau
    env[tail] = np.exp(-decay * (t[tail] - rise - plateau))
    return env


def _bilinear(num: list[float], den: list[float],
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear transform of the analog filter ``num(s) / den(s)`` at
    ``fs = 1 / dt``, normalized so ``a[0] == 1``.

    The same ``numpy.polynomial`` operations, in the same order, as
    ``scipy.signal.bilinear`` (which ends in ``normalize``), so the
    coefficients are bit-identical to scipy's.  Two of scipy's trims are
    left out: a leading zero of ``num`` (``zeta_g == 0``) adds an exact
    zero term here, and ``normalize``'s drop of numerator coefficients
    below 1e-14 takes an ``omega_g`` far below any ground frequency.
    """
    fac = np.sqrt((1.0 / dt) * 2)
    zp1 = np.polynomial.Polynomial((+1, 1)) / fac
    zm1 = np.polynomial.Polynomial((-1, 1)) * fac
    b, a = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    n = max(len(a), len(b)) - 1
    numerator = sum(b_ * zp1**(n - q) * zm1**q
                    for q, b_ in enumerate(b[::-1]))
    denominator = sum(a_ * zp1**(n - p) * zm1**p
                      for p, a_ in enumerate(a[::-1]))
    beta, alpha = numerator.coef[::-1], denominator.coef[::-1]
    return beta / alpha[0], alpha / alpha[0]


@functools.lru_cache(maxsize=64)
def _kanai_tajimi_filter(omega_g: float, zeta_g: float,
                         dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The discrete Kanai–Tajimi filter ``(b, a)``, designed once per
    ``(omega_g, zeta_g, dt)`` and returned read-only, since every caller
    shares the arrays.

    Continuous filter:  H(s) = (2 zeta_g omega_g s + omega_g^2) /
                               (s^2 + 2 zeta_g omega_g s + omega_g^2),
    discretized by the bilinear transform at ``fs = 1 / dt``.
    """
    num = [2 * zeta_g * omega_g, omega_g ** 2]
    den = [1.0, 2 * zeta_g * omega_g, omega_g ** 2]
    b, a = _bilinear(num, den, dt)
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


def _filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x)`` for a second-order ``(b, a)`` with
    ``a[0] == 1``: direct form II transposed, in scipy's operation order,
    so the output is bit-identical to it."""
    b0, b1, b2 = b.tolist()
    _, a1, a2 = a.tolist()
    z0 = z1 = 0.0
    y = []
    for xn in x.tolist():
        yn = z0 + b0 * xn
        z0 = z1 + xn * b1 - yn * a1
        z1 = xn * b2 - yn * a2
        y.append(yn)
    return np.array(y)


def _require(name: str, value: float, *, positive: bool) -> None:
    """Refuse a non-finite parameter, or one below its bound, by name."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(
            f"kanai_tajimi_record: {name} must be finite and {bound}, "
            f"got {value!r}")


def kanai_tajimi_record(*, duration: float = 30.0, dt: float = 0.02,
                        pga: float = 3.0, omega_g: float = 15.0,
                        zeta_g: float = 0.6, seed: int = 0,
                        rise: float = 4.0, plateau: float = 10.0,
                        decay: float = 0.3) -> GroundMotion:
    """Kanai–Tajimi filtered white noise with an intensity envelope.

    White noise is passed through the second-order Kanai–Tajimi ground
    filter (natural frequency ``omega_g`` [rad/s], damping ``zeta_g``),
    shaped by a Jennings envelope, then scaled to the requested PGA.
    ``dt`` and ``omega_g`` must be finite and positive, the other
    parameters finite and non-negative, and the record at least one sample
    long (:class:`ConfigurationError` names the first that is not).
    """
    for name, value in (("dt", dt), ("omega_g", omega_g)):
        _require(name, value, positive=True)
    for name, value in (("duration", duration), ("pga", pga),
                        ("zeta_g", zeta_g), ("rise", rise),
                        ("plateau", plateau), ("decay", decay)):
        _require(name, value, positive=False)
    n = int(round(duration / dt))
    if n < 1:
        raise ConfigurationError(
            f"a ground-motion record needs at least one sample, got "
            f"duration {duration} s at dt {dt} s")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    filtered = _filter(*_kanai_tajimi_filter(omega_g, zeta_g, dt), noise)
    t = np.arange(n) * dt
    shaped = filtered * _intensity_envelope(t, rise, plateau, decay)
    peak = np.max(np.abs(shaped))
    if peak > 0:
        shaped = shaped * (pga / peak)
    return GroundMotion(dt=dt, accel=shaped, name=f"kanai-tajimi(seed={seed})")


def response_spectrum(motion: GroundMotion, periods, *,
                      zeta: float = 0.05) -> dict[str, np.ndarray]:
    """Elastic response spectra of a record (Sd, Sv-pseudo, Sa-pseudo).

    For each natural period, a damped SDOF oscillator is integrated with
    Newmark constant-average-acceleration and the peak responses recorded —
    the standard engineering characterization of a ground motion (used to
    sanity-check synthetic records against code spectra).

    Returns arrays aligned with ``periods``: ``{"Sd", "Sv", "Sa"}``
    (spectral displacement [m], pseudo-velocity [m/s], pseudo-acceleration
    [m/s^2]).
    """
    periods = np.asarray(list(periods), dtype=float)
    if np.any(periods <= 0):
        raise ValueError("periods must be positive")
    dt = motion.dt
    accel = motion.accel
    n = accel.size
    sd = np.empty_like(periods)
    # Newmark CAA closed-form coefficients per oscillator (vectorized over
    # time, looped over periods — spectra are embarrassingly parallel but
    # the state recursion is sequential).
    for i, t_n in enumerate(periods):
        omega = 2.0 * np.pi / t_n
        k = omega ** 2
        c = 2.0 * zeta * omega
        keff = k + 2.0 * c / dt + 4.0 / dt ** 2
        d = v = a = 0.0
        peak = 0.0
        for j in range(1, n):
            p = -accel[j]
            rhs = (p + (4.0 / dt ** 2 * d + 4.0 / dt * v + a)
                   + c * (2.0 / dt * d + v))
            d_new = rhs / keff
            v_new = 2.0 / dt * (d_new - d) - v
            a_new = p - c * v_new - k * d_new
            d, v, a = d_new, v_new, a_new
            peak = max(peak, abs(d))
        sd[i] = peak
    omegas = 2.0 * np.pi / periods
    return {"Sd": sd, "Sv": sd * omegas, "Sa": sd * omegas ** 2}


def el_centro_like(*, duration: float = 30.0, dt: float = 0.02,
                   pga: float = 3.417) -> GroundMotion:
    """A deterministic record shaped like the classic 1940 El Centro NS.

    A sum of decaying sinusoids spanning 0.7–8 Hz under an envelope peaking
    near t = 2 s, matching El Centro's broadband character and default PGA
    (0.348 g).  Deterministic: identical on every call, so tests comparing
    runs do not need seed plumbing.
    """
    n = int(round(duration / dt))
    t = np.arange(n) * dt
    components = [
        # (frequency Hz, phase, relative weight, decay rate 1/s)
        (0.7, 0.3, 0.6, 0.06),
        (1.2, 1.1, 1.0, 0.08),
        (1.9, 2.3, 0.9, 0.10),
        (3.1, 0.7, 0.7, 0.12),
        (4.8, 1.9, 0.5, 0.15),
        (8.0, 2.9, 0.3, 0.20),
    ]
    accel = np.zeros(n)
    for freq, phase, weight, rate in components:
        accel += weight * np.exp(-rate * t) * np.sin(2 * np.pi * freq * t + phase)
    accel *= _intensity_envelope(t, rise=1.5, plateau=8.0, decay=0.25)
    peak = np.max(np.abs(accel))
    if peak > 0:
        accel *= pga / peak
    return GroundMotion(dt=dt, accel=accel, name="el-centro-like")
