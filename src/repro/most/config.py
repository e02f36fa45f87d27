"""MOST configuration constants.

Defaults are calibrated so the full 1,500-step run takes roughly the
paper's five hours of (simulated) wall time at roughly 12 s/step, with
structural parameters giving a plausible steel test frame: a ~1 Hz
fundamental mode and column stiffnesses in the 10^6 N/m range
(W-section cantilever columns at laboratory scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MOSTConfig:
    """Everything tunable about a MOST run."""

    # -- structural model (1 lateral DOF shared by three substructures) ----
    # T ~= 0.35 s, so peak drift under ~0.35 g stays within the ±7.5 cm
    # actuator stroke while still driving the columns past yield.
    mass: float = 5.0e4          # kg — frame tributary mass
    k_uiuc: float = 5.6e6        # N/m — left (UIUC) column
    k_cu: float = 5.6e6          # N/m — right (CU) column
    k_ncsa: float = 4.8e6        # N/m — middle frame section (simulated)
    damping_ratio: float = 0.05
    # columns yield under strong shaking (gives the hysteresis plots)
    yield_force: float = 8.4e4   # N per physical column (~15 mm yield drift)
    hardening_ratio: float = 0.1

    # -- loading --------------------------------------------------------------
    n_steps: int = 1500
    dt: float = 0.02             # s — record sampling / PSD step
    pga: float = 3.4             # m/s^2 (~0.35 g, El Centro-ish)
    motion_seed: int = 2003      # July 30, 2003

    # -- network (Illinois <-> Colorado <-> coordinator) ----------------------
    latency_uiuc: float = 0.005   # coordinator is at UIUC: campus hop
    latency_ncsa: float = 0.004   # UIUC <-> NCSA are both in Urbana
    latency_cu: float = 0.030     # Illinois <-> Colorado WAN
    jitter: float = 0.002
    network_seed: int = 730

    # -- site timing (dominates the ~12 s/step pace) -----------------------------
    settle_min: float = 10.0      # servo-hydraulic minimum settle [s]
    actuator_rate: float = 0.01   # m/s slew
    actuator_stroke: float = 0.075  # m — facility displacement limit
    tracking_std: float = 2e-5    # m — actuator tracking error
    force_noise: float = 50.0     # N — load-cell noise
    poll_interval: float = 1.0    # MPlugin back-end poll period
    ncsa_compute: float = 1.0     # Matlab model evaluation time
    xpc_comm: float = 0.05        # CU host <-> xPC target hop

    # -- protocol budgets ---------------------------------------------------------
    rpc_timeout: float = 10.0
    rpc_retries: int = 3
    execution_timeout: float = 120.0

    # -- observation / data ---------------------------------------------------------
    daq_interval: float = 5.0     # s between DAQ samples
    daq_block: int = 60           # samples per deposited file
    ingest_interval: float = 60.0
    n_remote_participants: int = 130
    n_stream_viewers: int = 8
    seeds: dict = field(default_factory=lambda: {"uiuc": 11, "cu": 12,
                                                 "daq": 13})

    @property
    def site_stiffness(self) -> dict[str, float]:
        """Design stiffness of each site's substructure, N/m."""
        return {"uiuc": self.k_uiuc, "cu": self.k_cu, "ncsa": self.k_ncsa}

    @property
    def k_total(self) -> float:
        return self.k_uiuc + self.k_cu + self.k_ncsa

    def scaled(self, n_steps: int) -> "MOSTConfig":
        """A copy with a shorter record (fast tests and benches)."""
        import dataclasses

        return dataclasses.replace(
            self, n_steps=n_steps,
            seeds=dict(self.seeds))
