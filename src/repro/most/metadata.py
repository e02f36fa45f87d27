"""MOST metadata (paper §3.3).

"For MOST, metadata was mostly generated manually and data was generated
automatically from sensors.  Experimenters developed metadata that
described each of the three components of the experiment in terms of the
structural configuration, material properties, and instrumentation, and
uploaded the metadata to the repository prior to the experiment.  The
metadata was designed so that non-participants viewing the stored data can
understand the meaning of the sensor data in the context of the
experiment."

This module defines those three schemas as first-class NMDS objects and
populates the pre-experiment records for each MOST component, deriving the
values from the live deployment (so the catalog always matches what was
actually wired).  :func:`upload_most_metadata` is called by scenarios
before the experiment starts.
"""

from __future__ import annotations

from typing import Any

from repro.most.assembly import MOSTDeployment
from repro.net.rpc import RpcClient

#: the §3.3 schemas: structural configuration, material properties,
#: instrumentation — with enough typing that NMDS validation has teeth.
MOST_SCHEMAS: dict[str, dict[str, Any]] = {
    "structural-configuration": {
        "component": "string",
        "role": "string",                  # physical / simulated
        "substructure": "string",
        "stiffness_n_per_m": "number",
        "dof_indices": "list",
        "boundary_conditions": "string",
    },
    "material-properties": {
        "component": "string",
        "material": "string",
        "yield_force_n": {"type": "number", "required": False},
        "hardening_ratio": {"type": "number", "required": False},
        "notes": {"type": "string", "required": False},
    },
    "instrumentation": {
        "component": "string",
        "channels": "list",
        "daq_sample_interval_s": {"type": "number", "required": False},
        "control_system": "string",
    },
}


def most_component_records(dep: MOSTDeployment) -> list[tuple[str, dict]]:
    """(object_type, fields) for each MOST component, from the deployment."""
    config = dep.config
    records: list[tuple[str, dict]] = []
    descriptions = {
        "uiuc": ("left column, tested horizontally as a cantilever",
                 "Shore-Western servo-hydraulic control system"),
        "cu": ("right column, rigidly connected to a vertical supporting "
               "steel structure suppressing all translational and "
               "rotational degrees of freedom",
               "Matlab xPC real-time target"),
        "ncsa": ("central section of the frame, numerically simulated",
                 "Matlab simulation via poll-based MPlugin"),
    }
    for name, site in dep.sites.items():
        boundary, control = descriptions[name]
        role = "physical" if site.specimen is not None else "simulated"
        records.append(("structural-configuration", {
            "component": name,
            "role": role,
            "substructure": f"{name}-substructure",
            "stiffness_n_per_m": float(config.site_stiffness[name]),
            "dof_indices": [0],
            "boundary_conditions": boundary,
        }))
        material: dict[str, Any] = {"component": name,
                                    "material": "A992 structural steel"
                                    if role == "physical" else "numerical"}
        if role == "physical":
            material["yield_force_n"] = float(config.yield_force)
            material["hardening_ratio"] = float(config.hardening_ratio)
        records.append(("material-properties", material))
        channels = ([c.name for c in site.daq.channels]
                    if site.daq is not None else [])
        instrumentation: dict[str, Any] = {
            "component": name,
            "channels": channels,
            "control_system": control,
        }
        if site.daq is not None:
            instrumentation["daq_sample_interval_s"] = \
                float(site.daq.sample_interval)
        records.append(("instrumentation", instrumentation))
    return records


def upload_most_metadata(dep: MOSTDeployment, *,
                         credential_factory=None):
    """Kernel process: define the schemas and upload the records.

    Returns the list of created object ids.  Runs from the portal host
    (the experimenters' side), like the §3.3 manual uploads.
    """
    facade = dep.make_facade(
        RpcClient(dep.network, "portal", default_timeout=30.0,
                  default_retries=2),
        credential_factory=credential_factory)
    created: list[str] = []
    for name, spec in MOST_SCHEMAS.items():
        yield from facade.define_schema(name, spec)
    for object_type, fields in most_component_records(dep):
        oid = yield from facade.annotate(object_type, fields)
        created.append(oid)
    dep.kernel.emit("most.metadata", "uploaded", objects=len(created))
    return created
