"""Live experiment operations: health SDEs, streamed metrics, alerts.

The paper's operators babysat a five-hour run through OGSI service-data
inspection and NSDS streams; this package turns the reproduction's
recorded telemetry into that live layer — health publication
(:mod:`repro.monitor.health`), metric streaming over NSDS
(:mod:`repro.monitor.streamer`), the alerting console
(:mod:`repro.monitor.monitor`), per-site critical-path analysis
(:mod:`repro.monitor.critical_path`), and deployment wiring
(:mod:`repro.monitor.wiring`).
"""

from repro.monitor.critical_path import (
    blame_table,
    critical_path_report,
    render_blame_table,
    step_traces,
)
from repro.monitor.health import (
    HealthPublisher,
    coordinator_health_probe,
    ntcp_health_probe,
)
from repro.monitor.monitor import Alert, ExperimentMonitor
from repro.monitor.schema import (
    ALERT_KINDS,
    ALERT_SEVERITIES,
    HEALTH_STATUSES,
    SCHEMA_ID,
    MonitorSchemaError,
    metrics_sample_checker,
    validate_alert_payload,
    validate_health_payload,
    validate_metrics_sample,
)
from repro.monitor.streamer import TelemetryStreamer
from repro.monitor.wiring import (
    DEFAULT_STREAM_PREFIXES,
    MonitoringKit,
    attach_monitoring,
)

__all__ = [
    "ALERT_KINDS",
    "ALERT_SEVERITIES",
    "Alert",
    "DEFAULT_STREAM_PREFIXES",
    "ExperimentMonitor",
    "HEALTH_STATUSES",
    "HealthPublisher",
    "MonitorSchemaError",
    "MonitoringKit",
    "SCHEMA_ID",
    "TelemetryStreamer",
    "attach_monitoring",
    "blame_table",
    "coordinator_health_probe",
    "critical_path_report",
    "metrics_sample_checker",
    "ntcp_health_probe",
    "render_blame_table",
    "step_traces",
    "validate_alert_payload",
    "validate_health_payload",
    "validate_metrics_sample",
]
