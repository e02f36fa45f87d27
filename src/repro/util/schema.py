"""The schema-check helpers every hand-rolled validator shares.

Each versioned document family (``repro.telemetry/v1``, ``repro.monitor/v1``,
``repro.observatory/v1``, ``repro.checkpoint/v1``, ``repro.queue/v1``) has
its own validator module and its own :class:`~repro.util.errors.SchemaError`
subclass; :func:`schema_checks` binds the primitive checks to that
subclass so every failure is typed and carries the JSON path of the
offending field (``$.body.epoch: must be >= 1, got 0``).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.util.errors import SchemaError


class SchemaChecks(NamedTuple):
    """The primitive checks, bound to one error class.

    ``fail(path, message)`` raises it; ``require(condition, path,
    message)`` fails unless ``condition``; ``number(value, path)`` takes
    an int or float, ``integer(value, path, *, minimum=None)`` an int
    ``>= minimum`` (neither takes a bool); ``document(payload, schema_id,
    kind=None)`` takes a JSON object with that ``schema`` (and ``kind``).
    """

    fail: Callable[[str, str], None]
    require: Callable[[bool, str, str], None]
    number: Callable[[Any, str], None]
    integer: Callable[..., None]
    document: Callable[..., None]


def schema_checks(error: type[SchemaError]) -> SchemaChecks:
    """The primitive checks raising ``error`` with ``"<path>: <message>"``."""

    def fail(path: str, message: str) -> None:
        raise error(f"{path}: {message}")

    def require(condition: bool, path: str, message: str) -> None:
        if not condition:
            fail(path, message)

    def number(value: Any, path: str) -> None:
        require(isinstance(value, (int, float))
                and not isinstance(value, bool),
                path, f"expected a number, got {type(value).__name__}")

    def integer(value: Any, path: str, *, minimum: int | None = None) -> None:
        require(isinstance(value, int) and not isinstance(value, bool),
                path, f"expected an integer, got {type(value).__name__}")
        if minimum is not None:
            require(value >= minimum, path,
                    f"must be >= {minimum}, got {value}")

    def document(payload: Any, schema_id: str,
                 kind: str | None = None) -> None:
        require(isinstance(payload, dict), "$", "payload must be an object")
        require(payload.get("schema") == schema_id, "$.schema",
                f"expected {schema_id!r}, got {payload.get('schema')!r}")
        if kind is not None:
            require(payload.get("kind") == kind, "$.kind",
                    f"expected {kind!r}, got {payload.get('kind')!r}")

    return SchemaChecks(fail, require, number, integer, document)
