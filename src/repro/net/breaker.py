"""Per-site circuit breakers over the simulated clock.

MOST's retry story (§3.4) masks *transient* weather, but a site that has
stopped answering turns every step attempt into a full timeout ladder —
tens of simulated seconds burned per attempt against a peer that is
plainly down.  A :class:`CircuitBreaker` sits between the coordinator and
one site's NTCP client and converts that ladder into the classic three
states:

* **closed** — traffic flows; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: calls fail immediately with :class:`BreakerOpen` (no network
  traffic) until ``open_interval`` simulated seconds have passed;
* **half-open** — the next ``half_open_probes`` calls are let through as
  probes.  Any probe failure re-opens the breaker; ``half_open_probes``
  consecutive successes close it again.

The breaker never retries on its own and never touches the network — it
only gates whether the caller's attempt is worth sending.  All timing is
kernel time, so breaker behaviour replays bit-exactly with the run.

State, trips, and probes are published as ``net.breaker.*`` telemetry
(labelled by site), and the coordinator mirrors breaker state into its
health SDE so the operations console can raise a ``breaker_open`` alert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.util.errors import ConfigurationError, ReproError

#: breaker states, in gauge-encoding order (0, 1, 2)
BREAKER_STATES = ("closed", "open", "half_open")

CLOSED, OPEN, HALF_OPEN = BREAKER_STATES


class BreakerOpen(ReproError):
    """An attempt was refused because the site's breaker is open.

    Carries ``site`` so the coordinator's fault policy (which keys its
    decisions on the failing site) sees the same shape as a network
    error, and ``retry_after`` — the simulated seconds until the breaker
    would next admit a half-open probe.
    """

    def __init__(self, site: str, retry_after: float):
        super().__init__(
            f"breaker open for site {site}; next probe in {retry_after:g} s")
        self.site = site
        self.retry_after = retry_after


@dataclass(frozen=True)
class BreakerConfig:
    """Tunable thresholds for one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive failures trip the breaker;
    ``open_interval`` simulated seconds must pass before half-open probes
    are admitted; ``half_open_probes`` consecutive probe successes close
    it again.
    """

    failure_threshold: int = 3
    open_interval: float = 60.0
    half_open_probes: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.open_interval <= 0:
            raise ConfigurationError("open_interval must be positive")
        if self.half_open_probes < 1:
            raise ConfigurationError("half_open_probes must be >= 1")


class CircuitBreaker:
    """One site's breaker; the coordinator holds one per
    :class:`~repro.coordinator.mspsds.SiteBinding`.

    Protocol: call :meth:`allow` before an attempt (raising
    :class:`BreakerOpen` via :meth:`check` is the usual form), then
    exactly one of :meth:`record_success` / :meth:`record_failure` with
    the outcome.  ``on_state_change(breaker, old, new)`` fires on every
    transition — the failover layer listens for ``open``.
    """

    def __init__(self, kernel, site: str,
                 config: BreakerConfig | None = None, *,
                 on_state_change: Callable[["CircuitBreaker", str, str],
                                           None] | None = None):
        self.kernel = kernel
        self.site = site
        self.config = config or BreakerConfig()
        self.on_state_change = on_state_change
        self.state = CLOSED
        self.failures = 0           # consecutive failures while closed
        self.probe_successes = 0    # consecutive successes while half-open
        self.opened_at: float | None = None   # latest trip (re-arms probes)
        self.open_since: float | None = None  # first trip of this episode
        telemetry = kernel.telemetry
        self._tm_state = telemetry.gauge("net.breaker.state", site=site)
        self._tm_trips = telemetry.counter("net.breaker.trips", site=site)
        self._tm_probes = telemetry.counter("net.breaker.probes", site=site)
        self._tm_state.set(BREAKER_STATES.index(CLOSED))

    # -- state machine -------------------------------------------------------
    def _transition(self, new_state: str) -> None:
        old = self.state
        if new_state == old:
            return
        self.state = new_state
        self._tm_state.set(BREAKER_STATES.index(new_state))
        self.kernel.emit(f"breaker.{self.site}", "breaker." + new_state,
                         site=self.site, previous=old)
        if self.on_state_change is not None:
            self.on_state_change(self, old, new_state)

    def allow(self) -> bool:
        """May an attempt be sent now?  (May transition open → half-open.)"""
        if self.state == CLOSED:
            return True
        assert self.opened_at is not None
        if self.state == OPEN:
            if self.kernel.now - self.opened_at < self.config.open_interval:
                return False
            self.probe_successes = 0
            self._transition(HALF_OPEN)
        # half-open: every admitted attempt is a probe
        self._tm_probes.inc()
        return True

    def check(self) -> None:
        """Raise :class:`BreakerOpen` unless :meth:`allow` admits the call."""
        if not self.allow():
            assert self.opened_at is not None
            remaining = (self.opened_at + self.config.open_interval
                         - self.kernel.now)
            raise BreakerOpen(self.site, max(0.0, remaining))

    def record_success(self) -> None:
        """An admitted attempt succeeded."""
        if self.state == HALF_OPEN:
            self.probe_successes += 1
            if self.probe_successes >= self.config.half_open_probes:
                self._reset()
            return
        self.failures = 0

    def record_failure(self) -> None:
        """An admitted attempt failed."""
        if self.state == HALF_OPEN:
            # A failed probe re-opens immediately and restarts the interval.
            self.opened_at = self.kernel.now
            self._transition(OPEN)
            return
        self.failures += 1
        if self.state == CLOSED and \
                self.failures >= self.config.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._tm_trips.inc()
        self.opened_at = self.kernel.now
        if self.open_since is None:
            self.open_since = self.kernel.now
        self._transition(OPEN)

    def _reset(self) -> None:
        self.failures = 0
        self.probe_successes = 0
        self.opened_at = None
        self.open_since = None
        self._transition(CLOSED)

    # -- inspection --------------------------------------------------------
    @property
    def trips(self) -> int:
        """Closed → open transitions so far (``net.breaker.trips``)."""
        return self._tm_trips.value

    @property
    def open_duration(self) -> float:
        """Simulated seconds since the first trip of the current episode
        (0.0 while closed) — what a recovery budget is measured against."""
        if self.open_since is None:
            return 0.0
        return self.kernel.now - self.open_since

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly state for health SDEs and reports."""
        return {"site": self.site, "state": self.state,
                "failures": self.failures, "trips": self.trips,
                "open_duration": self.open_duration}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CircuitBreaker {self.site} {self.state}>"
