"""Linear structural models: mass, damping, stiffness."""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError


class StructuralModel:
    """An n-DOF linear structural model ``M a + C v + K d = -M·iota·ag``.

    Attributes:
        mass/damping/stiffness: (n, n) arrays.
        iota: influence vector coupling ground acceleration into each DOF
            (ones for a shear frame excited horizontally).
    """

    def __init__(self, mass: np.ndarray, stiffness: np.ndarray,
                 damping: np.ndarray | None = None,
                 iota: np.ndarray | None = None):
        self.mass = np.atleast_2d(np.asarray(mass, dtype=float))
        self.stiffness = np.atleast_2d(np.asarray(stiffness, dtype=float))
        n = self.mass.shape[0]
        if self.mass.shape != (n, n) or self.stiffness.shape != (n, n):
            raise ConfigurationError("mass and stiffness must be square and "
                                     "of equal size")
        if damping is None:
            damping = np.zeros((n, n))
        self.damping = np.atleast_2d(np.asarray(damping, dtype=float))
        if self.damping.shape != (n, n):
            raise ConfigurationError("damping shape mismatch")
        self.iota = (np.ones(n) if iota is None
                     else np.asarray(iota, dtype=float))
        if self.iota.shape != (n,):
            raise ConfigurationError("iota must be a length-n vector")
        for name, array in (("mass", self.mass),
                            ("stiffness", self.stiffness),
                            ("damping", self.damping), ("iota", self.iota)):
            if not np.all(np.isfinite(array)):
                raise ConfigurationError(f"{name} must be finite")
        if not np.all(np.linalg.eigvalsh(self.mass) > 0):
            raise ConfigurationError("mass matrix must be positive definite")

    @property
    def n_dof(self) -> int:
        return self.mass.shape[0]

    def natural_frequencies(self) -> np.ndarray:
        """Undamped natural frequencies [rad/s], ascending.

        Each ``w`` solves ``K x = w² M x``.  A 1-DOF model divides in
        LAPACK ``dsygs2``'s order, ``k / (sqrt(m) * sqrt(m))``, so its
        frequency is bit-identical to ``scipy.linalg.eigh(K, M)``'s; a
        larger one reduces to ``L⁻¹ K L⁻ᵀ`` with ``M = L Lᵀ`` and agrees
        with it to the last few ulps.
        """
        m, k = self.mass, self.stiffness
        if self.n_dof == 1:
            root = np.sqrt(m[0, 0])
            eigvals = np.array([k[0, 0] / (root * root)])
        else:
            lower = np.linalg.cholesky(m)
            half = np.linalg.solve(lower, k)
            eigvals = np.linalg.eigvalsh(np.linalg.solve(lower, half.T).T)
        return np.sqrt(np.clip(eigvals, 0.0, None))

    def periods(self) -> np.ndarray:
        """Natural periods [s], descending (fundamental first)."""
        omega = self.natural_frequencies()
        with np.errstate(divide="ignore"):
            return (2.0 * np.pi / omega)[::-1]

    def with_rayleigh_damping(self, zeta: float, *,
                              modes: tuple[int, int] = (0, 1)) -> "StructuralModel":
        """Return a copy with Rayleigh damping ``C = a0 M + a1 K``.

        ``a0, a1`` are chosen to give damping ratio ``zeta`` at the two
        anchor modes (for a SDOF system both anchors collapse to the single
        frequency, giving exactly ``C = 2 zeta omega M``).
        """
        omega = self.natural_frequencies()
        i, j = modes
        wi = omega[min(i, len(omega) - 1)]
        wj = omega[min(j, len(omega) - 1)]
        if wi <= 0 or wj <= 0:
            raise ConfigurationError("cannot damp a rigid-body mode")
        if np.isclose(wi, wj):
            a0, a1 = zeta * wi, zeta / wi
        else:
            a0 = 2.0 * zeta * wi * wj / (wi + wj)
            a1 = 2.0 * zeta / (wi + wj)
        damping = a0 * self.mass + a1 * self.stiffness
        return StructuralModel(self.mass, self.stiffness, damping, self.iota)

    def external_force(self, ground_accel: float) -> np.ndarray:
        """Effective earthquake load ``-M·iota·ag`` at one instant."""
        return -self.mass @ self.iota * ground_accel


class ShearFrame(StructuralModel):
    """A classic shear-building idealization.

    Story masses lump at floor levels; story stiffnesses produce the
    standard tridiagonal stiffness matrix.  The MOST frame reduces to the
    single-story case: one lateral DOF restrained by three substructure
    stiffnesses in parallel.

    >>> sf = ShearFrame(masses=[2.0], stiffnesses=[8.0])
    >>> sf.natural_frequencies()
    array([2.])
    """

    def __init__(self, masses, stiffnesses, *, zeta: float = 0.0):
        masses = np.asarray(masses, dtype=float)
        stiffnesses = np.asarray(stiffnesses, dtype=float)
        if masses.ndim != 1 or stiffnesses.shape != masses.shape:
            raise ConfigurationError(
                "masses and stiffnesses must be 1-D and the same length")
        if np.any(masses <= 0) or np.any(stiffnesses <= 0):
            raise ConfigurationError("masses and stiffnesses must be positive")
        n = len(masses)
        mass = np.diag(masses)
        stiff = np.zeros((n, n))
        for story in range(n):
            k = stiffnesses[story]
            stiff[story, story] += k
            if story > 0:
                stiff[story, story - 1] -= k
                stiff[story - 1, story] -= k
                stiff[story - 1, story - 1] += k
        super().__init__(mass, stiff)
        if zeta > 0:
            damped = self.with_rayleigh_damping(zeta)
            self.damping = damped.damping
        self.story_masses = masses
        self.story_stiffnesses = stiffnesses
