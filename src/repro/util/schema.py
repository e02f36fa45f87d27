"""The declarative document kit every versioned JSON shape is built from.

A *shape* is a plain value: a :data:`Check` — a callable that takes the
JSON value and returns ``None`` when it fits, or ``(path, message)`` naming
the offending node relative to the value it was given.  The combinators
below build shapes from other shapes, at import time; nothing is
interpreted per call.  :func:`validator` binds a shape to one
:class:`~repro.util.errors.SchemaError` subclass and returns the
``validate_x(payload)`` function a module exports, which raises
``"<json-path>: <message>"`` (``$.body.epoch: must be >= 1, got 0``).

The type tests, the JSON-path construction, the missing-key handling and
the ``schema``/``kind`` envelope live here and nowhere else.  Paths are
built only on failure, so validating a well-formed document allocates no
strings.  A cross-field constraint is a :func:`rule`; a leaf the
combinators cannot express (a dotted metric name, a hex float) is an
ordinary function with the :data:`Check` signature.

Shape::

    ALERT = document("repro.monitor/v1", {
        "source": string(), "time": number(),
        "severity": one_of("info", "warning", "critical"),
        "step": integer(-1),
    }, {"site": nullable(string()), "detail": obj({})}, kind="alert")
    validate_alert_payload = validator(MonitorSchemaError, ALERT)
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from typing import Any

from repro.util.errors import SchemaError

#: ``(path below the checked value, message)``; ``None`` means it fits
Failure = tuple[str, str] | None
Check = Callable[[Any], Failure]


def _under(prefix: str, failure: tuple[str, str]) -> tuple[str, str]:
    return prefix + failure[0], failure[1]


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int ``float()`` cannot hold
        return False


def number(*, minimum: float | None = None, above: float | None = None,
           finite: bool = False) -> Check:
    """An int or float (never a bool) ``>= minimum`` and ``> above``;
    with ``finite``, neither NaN, nor ±inf, nor an int too large for a
    float."""

    def check(value: Any) -> Failure:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return "", f"expected a number, got {type(value).__name__}"
        if minimum is not None and not value >= minimum:
            return "", f"must be >= {minimum}, got {value}"
        if above is not None and not value > above:
            return "", f"must be > {above}, got {value}"
        if finite and not _finite(value):
            return "", "must be finite"
        return None

    return check


def integer(minimum: int | None = None) -> Check:
    """An int (never a bool) ``>= minimum``."""

    def check(value: Any) -> Failure:
        if isinstance(value, bool) or not isinstance(value, int):
            return "", f"expected an integer, got {type(value).__name__}"
        if minimum is not None and value < minimum:
            return "", f"must be >= {minimum}, got {value}"
        return None

    return check


def anything(value: Any) -> Failure:
    """Any JSON value: as a required field it only demands presence."""
    return None


def string(*, empty: bool = False) -> Check:
    """A str; non-empty unless ``empty``."""

    def check(value: Any) -> Failure:
        if not isinstance(value, str):
            return "", f"expected a string, got {type(value).__name__}"
        if not (empty or value):
            return "", "must be a non-empty string"
        return None

    return check


def boolean() -> Check:
    """``true`` or ``false``."""

    def check(value: Any) -> Failure:
        if not isinstance(value, bool):
            return "", f"expected a boolean, got {type(value).__name__}"
        return None

    return check


def one_of(*values: Any) -> Check:
    """Exactly one of ``values`` — same type, so ``True`` is not ``1``."""
    kinds = tuple({type(v) for v in values})
    expected = (f"expected {values[0]!r}" if len(values) == 1
                else f"must be one of {values}")

    def check(value: Any) -> Failure:
        if type(value) not in kinds or value not in values:
            return "", f"{expected}, got {value!r}"
        return None

    return check


def nullable(check: Check) -> Check:
    """``null``, or whatever ``check`` accepts."""
    return lambda value: None if value is None else check(value)


def rule(path: str, message: str, holds: Callable[[Any], bool]) -> Check:
    """A cross-field constraint on an already type-checked value: fails at
    ``path`` with ``message`` unless ``holds(value)``."""
    failure = (path, message)
    return lambda value: None if holds(value) else failure


def array(item: Check, *rules: Check, nonempty: bool = False) -> Check:
    """A list whose every element fits ``item``, then every rule."""

    def check(value: Any) -> Failure:
        if not isinstance(value, list):
            return "", f"expected a list, got {type(value).__name__}"
        if nonempty and not value:
            return "", "must be a non-empty list"
        for i, element in enumerate(value):
            failure = item(element)
            if failure is not None:
                return _under(f"[{i}]", failure)
        for constraint in rules:
            failure = constraint(value)
            if failure is not None:
                return failure
        return None

    return check


def mapping(item: Check, *, key: Check | None = None,
            nonempty: bool = False) -> Check:
    """An object with free-form string keys (each fitting ``key``) whose
    every value fits ``item``."""

    def check(value: Any) -> Failure:
        if not isinstance(value, dict):
            return "", f"expected an object, got {type(value).__name__}"
        if nonempty and not value:
            return "", "must be a non-empty object"
        for name, element in value.items():
            if not isinstance(name, str):
                return f".{name}", "keys must be strings"
            failure = item(element) if key is None else (
                key(name) or item(element))
            if failure is not None:
                return _under(f".{name}", failure)
        return None

    return check


def obj(required: Mapping[str, Check],
        optional: Mapping[str, Check] | None = None,
        *rules: Check) -> Check:
    """An object carrying every ``required`` key and any of the
    ``optional`` ones, each fitting its shape, then every rule; unknown
    keys are ignored (``obj({})`` is "any object")."""
    required_items = tuple(required.items())
    optional_items = tuple((optional or {}).items())

    def check(value: Any) -> Failure:
        if not isinstance(value, dict):
            return "", f"expected an object, got {type(value).__name__}"
        for name, field in required_items:
            if name not in value:
                return f".{name}", "missing"
            failure = field(value[name])
            if failure is not None:
                return _under(f".{name}", failure)
        for name, field in optional_items:
            if name in value:
                failure = field(value[name])
                if failure is not None:
                    return _under(f".{name}", failure)
        for constraint in rules:
            failure = constraint(value)
            if failure is not None:
                return failure
        return None

    return check


def switch(key: str, **cases: Check) -> Check:
    """A rule for a tagged object: ``value[key]`` names which of ``cases``
    the whole object must also fit."""
    tags = tuple(cases)

    def check(value: Any) -> Failure:
        tag = value.get(key)
        if not isinstance(tag, str) or tag not in cases:
            return f".{key}", f"must be one of {tags}, got {tag!r}"
        return cases[tag](value)

    return check


def document(schema_id: str, required: Mapping[str, Check],
             optional: Mapping[str, Check] | None = None,
             *rules: Check, kind: str | None = None) -> Check:
    """A versioned document: an :func:`obj` inside the ``schema`` (and
    ``kind``) envelope."""
    envelope = {"schema": one_of(schema_id)}
    if kind is not None:
        envelope["kind"] = one_of(kind)
    return obj({**envelope, **required}, optional, *rules)


def validator(error: type[SchemaError],
              shape: Check) -> Callable[[Any], None]:
    """Compile ``shape`` into ``validate(payload)`` raising
    ``error("$<path>: <message>")``."""

    def validate(payload: Any) -> None:
        failure = shape(payload)
        if failure is not None:
            raise error(f"${failure[0]}: {failure[1]}")

    return validate
