"""repro — NEESgrid/MOST reproduction (HPDC-13, 2004).

A from-scratch implementation of the paper's full stack: the NTCP
teleoperation protocol (:mod:`repro.core`), the OGSI/GSI grid substrate
(:mod:`repro.ogsi`, :mod:`repro.gsi`), the simulated wide-area network
(:mod:`repro.net`, :mod:`repro.sim`), the structural/pseudo-dynamic
numerics and specimen rigs (:mod:`repro.structural`), the site control
plugins (:mod:`repro.control`), the data systems (:mod:`repro.daq`,
:mod:`repro.nsds`, :mod:`repro.repository`), the observation/collaboration
layer (:mod:`repro.telepresence`, :mod:`repro.chef`), the MS-PSDS
coordinator (:mod:`repro.coordinator`), the run-wide telemetry plane
(:mod:`repro.telemetry`), the assembled experiments
(:mod:`repro.most`, :mod:`repro.mini_most`), the multi-tenant
experiment fleet (:mod:`repro.fleet`), the grid observatory —
durable time-series history, SLO burn-rate alerting, and the black-box
flight recorder (:mod:`repro.observatory`) — and the durable experiment
queue: write-ahead-journaled ingress, fencing epochs, and
crash-recoverable scheduler incarnations (:mod:`repro.queue`).

The names re-exported here are the curated public API — the set a typical
experiment script needs, importable from the top level::

    from repro import Kernel, Network, ServiceContainer, NTCPServer, ...

Everything else remains importable from its subpackage; subpackage paths
are stable, this module is just the front door.  Start with
:class:`repro.ExperimentSession` or ``examples/quickstart.py``.
"""

__version__ = "1.1.0"

# -- simulation substrate ----------------------------------------------------
from repro.sim import Kernel
from repro.net import (
    FaultInjector,
    Network,
    RemoteException,
    RpcClient,
    RpcService,
    RpcTimeout,
)

# -- grid substrate ----------------------------------------------------------
from repro.ogsi import GridServiceHandle, ServiceContainer

# -- the NTCP protocol -------------------------------------------------------
from repro.core import (
    Action,
    ExecutionOutcome,
    NTCPClient,
    NTCPServer,
    Proposal,
    ProposalVerdict,
)
from repro.core.policy import ParameterLimit, SitePolicy

# -- site control plugins ----------------------------------------------------
from repro.control import SimulationPlugin, make_displacement_actions

# -- structural numerics -----------------------------------------------------
from repro.structural import GroundMotion, LinearSubstructure, StructuralModel

# -- the coordinator ---------------------------------------------------------
from repro.coordinator import (
    ExperimentResult,
    NTCPToolbox,
    SimulationCoordinator,
    SiteBinding,
    StepRecord,
)

# -- telemetry ---------------------------------------------------------------
from repro.telemetry import TelemetryHub, TraceContext

# -- live operations console -------------------------------------------------
from repro.monitor import (
    Alert,
    AlertThresholds,
    ExperimentMonitor,
    HealthPublisher,
    MonitoringKit,
    TelemetryStreamer,
    attach_monitoring,
)

# -- assembled experiments ---------------------------------------------------
from repro.most import (
    ExperimentSession,
    MOSTConfig,
    SessionResult,
    build_most,
)

# -- grid observatory --------------------------------------------------------
from repro.observatory import (
    FlightRecorder,
    ObservatoryKit,
    SLOEvaluator,
    SLOSpec,
    TimeSeriesStore,
    attach_observatory,
    postmortem_timeline,
)

# -- multi-tenant fleet ------------------------------------------------------
from repro.fleet import (
    SitePool,
    TenantRegistry,
    build_fleet_grid,
)

# -- durable experiment queue ------------------------------------------------
from repro.queue import (
    DurableFleetScheduler,
    ExperimentQueue,
    FencingAuthority,
    QueueSubmission,
    run_durable_campaign,
)

__all__ = [
    # simulation substrate
    "Kernel",
    "Network",
    "FaultInjector",
    "RpcClient",
    "RpcService",
    "RpcTimeout",
    "RemoteException",
    # grid substrate
    "ServiceContainer",
    "GridServiceHandle",
    # NTCP
    "NTCPServer",
    "NTCPClient",
    "Action",
    "Proposal",
    "ProposalVerdict",
    "ExecutionOutcome",
    "SitePolicy",
    "ParameterLimit",
    # control plugins
    "SimulationPlugin",
    "make_displacement_actions",
    # structural numerics
    "StructuralModel",
    "LinearSubstructure",
    "GroundMotion",
    # coordinator
    "SimulationCoordinator",
    "SiteBinding",
    "NTCPToolbox",
    "StepRecord",
    "ExperimentResult",
    # telemetry
    "TelemetryHub",
    "TraceContext",
    # live operations console
    "Alert",
    "AlertThresholds",
    "ExperimentMonitor",
    "HealthPublisher",
    "MonitoringKit",
    "TelemetryStreamer",
    "attach_monitoring",
    # assembled experiments
    "MOSTConfig",
    "ExperimentSession",
    "SessionResult",
    "build_most",
    # multi-tenant fleet
    "SitePool",
    "TenantRegistry",
    "build_fleet_grid",
    # grid observatory
    "FlightRecorder",
    "ObservatoryKit",
    "SLOEvaluator",
    "SLOSpec",
    "TimeSeriesStore",
    "attach_observatory",
    "postmortem_timeline",
    # durable experiment queue
    "DurableFleetScheduler",
    "ExperimentQueue",
    "FencingAuthority",
    "QueueSubmission",
    "run_durable_campaign",
]
