"""Shared utilities: error hierarchy and id generation.

These helpers are deliberately free of any simulation-time or network
dependencies so that every other subpackage may import them without cycles.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    ProtocolError,
    SecurityError,
    PolicyViolation,
    FaultInjected,
)
from repro.util.ids import IdFactory, uuid_like

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolError",
    "SecurityError",
    "PolicyViolation",
    "FaultInjected",
    "IdFactory",
    "uuid_like",
]
