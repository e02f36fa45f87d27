"""NMDS: the NEESgrid Metadata Service.

"It differs from most other metadata management systems in that metadata
schemas are represented by first-class objects and can be managed just like
any other object.  In addition, it supports per-object version control and
authorization."  All three properties are implemented here: schemas are
stored in the same object table (type ``"schema"``), every update produces
a retained version, and each object carries owner/reader/writer ACLs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.gsi.authz import Principal
from repro.ogsi.service import GridService
from repro.util.errors import ProtocolError, SecurityError

#: types accepted in schema field specs → python check
_FIELD_TYPES = {
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "list": list,
    "object": dict,
}


@dataclass(frozen=True)
class SchemaSpec:
    """One metadata schema: field name → (type name, required)."""

    name: str
    fields: dict[str, tuple[str, bool]]

    def validate(self, data: dict[str, Any]) -> None:
        """Raise :class:`ProtocolError` if ``data`` violates the schema."""
        for fname, (type_name, required) in self.fields.items():
            if fname not in data:
                if required:
                    raise ProtocolError(
                        f"schema {self.name!r}: missing required field "
                        f"{fname!r}")
                continue
            expected = _FIELD_TYPES.get(type_name)
            if expected is None:
                raise ProtocolError(
                    f"schema {self.name!r}: unknown type {type_name!r}")
            if isinstance(data[fname], bool) and type_name in ("number",
                                                               "integer"):
                raise ProtocolError(
                    f"schema {self.name!r}: field {fname!r} is boolean, "
                    f"expected {type_name}")
            if not isinstance(data[fname], expected):
                raise ProtocolError(
                    f"schema {self.name!r}: field {fname!r} expected "
                    f"{type_name}, got {type(data[fname]).__name__}")

    @classmethod
    def from_dict(cls, name: str, spec: dict[str, Any]) -> "SchemaSpec":
        fields = {}
        for fname, fspec in spec.items():
            if isinstance(fspec, str):
                fields[fname] = (fspec, True)
            else:
                fields[fname] = (fspec["type"], bool(fspec.get("required", True)))
        return cls(name=name, fields=fields)


@dataclass
class MetadataObject:
    """A versioned metadata object with per-object ACLs."""

    object_id: str
    object_type: str
    fields: dict[str, Any]
    version: int
    owner: str
    created: float
    modified: float
    readers: set[str] = field(default_factory=set)
    writers: set[str] = field(default_factory=set)
    history: list[dict[str, Any]] = field(default_factory=list)

    def may_read(self, subject: str) -> bool:
        return (subject == self.owner or subject in self.readers
                or subject in self.writers or "*" in self.readers)

    def may_write(self, subject: str) -> bool:
        return subject == self.owner or subject in self.writers

    def public_view(self, version: int | None = None) -> dict[str, Any]:
        if version is None or version == self.version:
            fields = self.fields
            v = self.version
        else:
            matches = [h for h in self.history if h["version"] == version]
            if not matches:
                raise ProtocolError(
                    f"object {self.object_id!r} has no version {version}")
            fields = matches[0]["fields"]
            v = version
        return {"object_id": self.object_id, "type": self.object_type,
                "fields": dict(fields), "version": v, "owner": self.owner,
                "created": self.created, "modified": self.modified,
                "latest_version": self.version}


def _subject_of(caller: Any) -> str:
    """Extract a subject string from whatever the security layer passed."""
    if isinstance(caller, Principal):
        return caller.subject
    if isinstance(caller, str) and caller:
        return caller
    return "<anonymous>"


def require_right(caller: Any, right: str) -> None:
    """Enforce a CAS community right when the caller is GSI-authenticated.

    Unsecured deployments (caller is a plain string or None) are exempt —
    they have no CAS to consult, matching the paper's pre-CAS MOST
    deployment ("an early version of the ... repository was used for MOST
    ... areas to be more fully developed in later releases, such as
    CAS-based access control").
    """
    if isinstance(caller, Principal) and not caller.has_right(right):
        raise SecurityError(
            f"{caller.subject!r} lacks community right {right!r}")


class NMDSService(GridService):
    """The metadata service, hosted in an OGSI container.

    Operations: ``defineSchema``, ``createObject``, ``updateObject``,
    ``getObject`` (any version), ``listObjects``, ``setAcl``.  When the
    container is deployed with a GSI checker, callers arrive as
    :class:`~repro.gsi.authz.Principal` and per-object ACLs bind to their
    certificate subject; anonymous deployments fall back to a shared
    pseudo-subject (useful in unit tests).
    """

    def __init__(self, service_id: str = "nmds"):
        super().__init__(service_id)
        self.objects: dict[str, MetadataObject] = {}
        self._counter = 0

    def on_attach(self) -> None:
        self.service_data.set("objectCount", 0)
        for op in ("defineSchema", "createObject", "updateObject",
                   "getObject", "listObjects", "setAcl"):
            self.expose(op, getattr(self, f"_op_{op}"))

    # -- helpers ---------------------------------------------------------------
    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}-{self._counter}"

    def _get(self, object_id: str) -> MetadataObject:
        obj = self.objects.get(object_id)
        if obj is None:
            raise ProtocolError(f"no metadata object {object_id!r}")
        return obj

    def _schema_for(self, object_type: str) -> SchemaSpec | None:
        for obj in self.objects.values():
            if obj.object_type == "schema" and obj.fields.get("name") == object_type:
                return SchemaSpec.from_dict(object_type, obj.fields["spec"])
        return None

    def _store(self, object_type: str, fields: dict[str, Any],
               subject: str) -> MetadataObject:
        obj = MetadataObject(
            object_id=self._next_id(object_type),
            object_type=object_type, fields=dict(fields), version=1,
            owner=subject, created=self.kernel.now, modified=self.kernel.now)
        self.objects[obj.object_id] = obj
        self.service_data.set("objectCount", len(self.objects))
        self.emit("object.created", object_id=obj.object_id,
                  type=object_type, owner=subject)
        return obj

    # -- operations ----------------------------------------------------------
    def _op_defineSchema(self, caller, name: str, spec: dict[str, Any]):
        """Create a schema *object* (first-class, versioned like the rest)."""
        require_right(caller, "repository:write")
        SchemaSpec.from_dict(name, spec)  # validate the spec itself
        existing = self._schema_for_object(name)
        subject = _subject_of(caller)
        if existing is not None:
            return self._do_update(existing, {"name": name, "spec": spec},
                                   subject)["object_id"]
        obj = self._store("schema", {"name": name, "spec": spec}, subject)
        return obj.object_id

    def _schema_for_object(self, name: str) -> MetadataObject | None:
        for obj in self.objects.values():
            if obj.object_type == "schema" and obj.fields.get("name") == name:
                return obj
        return None

    def _op_createObject(self, caller, object_type: str,
                         fields: dict[str, Any]):
        require_right(caller, "repository:write")
        if object_type == "schema":
            raise ProtocolError("use defineSchema to create schema objects")
        schema = self._schema_for(object_type)
        if schema is not None:
            schema.validate(fields)
        obj = self._store(object_type, fields, _subject_of(caller))
        return obj.object_id

    def _do_update(self, obj: MetadataObject, fields: dict[str, Any],
                   subject: str) -> dict[str, Any]:
        if not obj.may_write(subject):
            raise SecurityError(
                f"{subject!r} may not update {obj.object_id!r}")
        obj.history.append({"version": obj.version,
                            "fields": dict(obj.fields),
                            "modified": obj.modified})
        obj.fields = dict(fields)
        obj.version += 1
        obj.modified = self.kernel.now
        self.emit("object.updated", object_id=obj.object_id,
                  version=obj.version)
        return obj.public_view()

    def _op_updateObject(self, caller, object_id: str,
                         fields: dict[str, Any]):
        require_right(caller, "repository:write")
        obj = self._get(object_id)
        if obj.object_type != "schema":
            schema = self._schema_for(obj.object_type)
            if schema is not None:
                schema.validate(fields)
        return self._do_update(obj, fields, _subject_of(caller))

    def _op_getObject(self, caller, object_id: str,
                      version: int | None = None):
        obj = self._get(object_id)
        subject = _subject_of(caller)
        if not obj.may_read(subject):
            raise SecurityError(f"{subject!r} may not read {object_id!r}")
        return obj.public_view(version)

    def _op_listObjects(self, caller, object_type: str | None = None):
        return sorted(o.object_id for o in self.objects.values()
                      if object_type is None or o.object_type == object_type)

    def _op_setAcl(self, caller, object_id: str,
                   readers: list[str] | None = None,
                   writers: list[str] | None = None):
        obj = self._get(object_id)
        subject = _subject_of(caller)
        if subject != obj.owner:
            raise SecurityError(
                f"only the owner may change the ACL of {object_id!r}")
        if readers is not None:
            obj.readers = set(readers)
        if writers is not None:
            obj.writers = set(writers)
        return True
