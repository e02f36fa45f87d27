"""Error hierarchy shared by every subsystem.

The hierarchy mirrors the failure domains of the paper's architecture:
configuration mistakes (wiring an experiment), protocol violations (NTCP and
the repository protocols), security failures (GSI), site policy rejections
(NTCP proposal negotiation), and injected faults (the simulated network).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """An experiment, service, or host was wired together inconsistently."""


class ProtocolError(ReproError):
    """A message violated a protocol contract (bad state, bad fields)."""


class SchemaError(ReproError):
    """A persisted or wire document does not match its versioned shape.

    The base of every validator's own error (telemetry, monitor,
    observatory, checkpoint, queue journal); the message leads with the
    JSON path of the offending field.
    """


class SecurityError(ReproError):
    """Authentication or authorization failed (GSI / gridmap / CAS)."""


class PolicyViolation(ReproError):
    """A site's local policy rejected a requested action.

    Raised by control plugins during NTCP proposal negotiation, e.g. when a
    displacement command exceeds the facility's configured actuator limits.
    The paper requires that such rejections happen *before* any physical
    action takes place; this exception type is how plugins signal that.
    """

    def __init__(self, message: str, *, parameter: str | None = None,
                 limit: float | None = None, requested: float | None = None):
        super().__init__(message)
        self.parameter = parameter
        self.limit = limit
        self.requested = requested


class FencingError(ReproError):
    """A write carried a fencing epoch that has been superseded.

    Raised on every durable write path (queue journal appends, checkpoint
    saves, NTCP write verbs, site-pool lease operations) when the caller's
    fencing epoch is older than the current one — the "zombie scheduler"
    defence: a scheduler revived after a crash must be refused, not
    merged, because a successor already owns its work.
    """

    def __init__(self, message: str, *, epoch: int | None = None,
                 current_epoch: int | None = None, path: str | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.current_epoch = current_epoch
        self.path = path


class FaultInjected(ReproError):
    """A simulated infrastructure fault (dropped link, partition, crash)."""


class TransportError(ReproError):
    """A message could not be delivered (timeout, partition, link down)."""


class ServiceNotFound(ReproError):
    """A grid service handle did not resolve to a live service."""


class LifetimeExpired(ReproError):
    """An OGSI soft-state lifetime lapsed and the service was reclaimed."""
