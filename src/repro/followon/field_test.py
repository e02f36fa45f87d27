"""UCLA field test (paper §5).

"A UCLA team of earthquake engineers plan to perform field testing of a
four-story office building in Los Angeles.  They intend to apply
earthquake-type and harmonic force histories to the building, gathering
acceleration, strain, and displacement data using wireless sensor arrays
(802.11 wireless telemetry) to evaluate response and behavior.  Data and
video streams will be recorded and archived at a mobile command center
before transmission to the laboratory using satellite telemetry."

Structure: a 4-story shear frame excited by a shaker applying the
configured force history (no hybrid coupling — this is forced-vibration
monitoring).  Wireless sensor nodes on each floor sample the response and
push datagrams over lossy 802.11 links to the mobile command center, which
archives everything locally (store-and-forward) and ingests the archive to
the remote laboratory repository over a high-latency satellite link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.daq import StagingStore
from repro.daq.filestore import RepositoryFileStore
from repro.net import Network, RpcClient
from repro.nsds import NSDSReceiver
from repro.ogsi import ServiceContainer
from repro.repository import (
    GridFTPTransport,
    IngestionTool,
    NFMSService,
    NMDSService,
    RepositoryFacade,
)
from repro.sim import Kernel
from repro.structural import NewmarkBeta, ShearFrame
from repro.structural.specimen import Sensor


@dataclass
class FieldTestConfig:
    """The four-story office building and its instrumentation."""

    story_masses: tuple = (1.2e5, 1.2e5, 1.2e5, 1.0e5)   # kg
    story_stiffnesses: tuple = (2.4e8, 2.2e8, 2.0e8, 1.8e8)  # N/m
    damping_ratio: float = 0.03
    duration: float = 120.0
    dt: float = 0.02
    # excitation: harmonic sweep then an earthquake-type burst
    harmonic_force: float = 5.0e4     # N at the roof
    harmonic_freq: float = 1.2        # Hz, near the fundamental
    quake_force: float = 2.0e5        # N peak
    sample_interval: float = 0.1      # wireless nodes sample at 10 Hz
    wifi_loss: float = 0.12           # 802.11 in the field is lossy
    wifi_latency: float = 0.004
    satellite_latency: float = 0.28   # geostationary hop
    satellite_bandwidth: float = 5e5  # bytes/s
    block_size: int = 100
    seed: int = 90024                 # a Los Angeles zip code


@dataclass
class FieldTestReport:
    """Everything the §5 description promises, measured."""

    floors_sampled: int
    samples_sent: int
    samples_received: int
    wifi_loss_fraction: float
    files_archived_locally: int
    files_uploaded_via_satellite: int
    upload_duration: float
    peak_roof_drift: float
    fundamental_frequency_hz: float
    extras: dict = field(default_factory=dict)


def force_history(config: FieldTestConfig) -> np.ndarray:
    """Roof force: harmonic sweep (first half) then earthquake-type burst."""
    n = int(round(config.duration / config.dt))
    t = np.arange(n) * config.dt
    half = n // 2
    force = np.zeros(n)
    force[:half] = config.harmonic_force * np.sin(
        2 * np.pi * config.harmonic_freq * t[:half])
    rng = np.random.default_rng(config.seed)
    burst = rng.standard_normal(n - half)
    envelope = np.exp(-0.15 * (t[half:] - t[half]))
    burst = burst * envelope
    if np.max(np.abs(burst)) > 0:
        burst *= config.quake_force / np.max(np.abs(burst))
    force[half:] = burst
    return force


def run_field_test(config: FieldTestConfig | None = None) -> FieldTestReport:
    """Execute the full UCLA scenario; returns the measured report."""
    config = config or FieldTestConfig()
    kernel = Kernel()
    network = Network(kernel, seed=config.seed)
    for host in ("building", "command-center", "laboratory"):
        network.add_host(host)
    network.connect("building", "command-center",
                    latency=config.wifi_latency, loss=config.wifi_loss,
                    fifo=False)  # 802.11: lossy, reordering
    network.connect("command-center", "laboratory",
                    latency=config.satellite_latency)

    # ---- structural response (computed up front; the field test measures
    # a real building, our substitute is the reference simulation) ---------
    frame = ShearFrame(masses=list(config.story_masses),
                       stiffnesses=list(config.story_stiffnesses),
                       zeta=config.damping_ratio)
    force = force_history(config)
    # Roof force -> equivalent "ground motion" via the load vector trick:
    # integrate with external force applied at the roof DOF only.
    n_dof = frame.n_dof
    loads = np.zeros((len(force), n_dof))
    loads[:, -1] = force  # the shaker acts at the roof
    results = NewmarkBeta(frame, config.dt).integrate_forced(loads)
    displacement = np.vstack([r.displacement for r in results])
    acceleration = np.vstack([r.acceleration for r in results])

    # ---- wireless sensor array: one node per floor ---------------------------
    receiver = NSDSReceiver(network, "command-center")
    sensors = {f"floor-{i}": Sensor(noise_std=1e-5) for i in range(n_dof)}
    rng = np.random.default_rng(config.seed + 1)
    sent = [0]

    def sensor_array():
        """Sample each floor and radio the readings to the command center."""
        seq = {name: 0 for name in sensors}
        step_stride = max(1, int(round(config.sample_interval / config.dt)))
        for idx in range(0, len(results), step_stride):
            yield kernel.timeout(config.sample_interval)
            for floor, name in enumerate(sensors):
                seq[name] += 1
                sent[0] += 1
                network.send("building", "command-center", receiver.port, {
                    "channel": name,
                    "sequence": seq[name],
                    "time": kernel.now,
                    "value": sensors[name].read(
                        displacement[idx, floor], rng),
                })

    kernel.process(sensor_array(), name="wireless-array")

    # ---- mobile command center: local archive + satellite ingestion ----------
    local_archive = StagingStore("command-center-archive")
    lab_container = ServiceContainer(network, "laboratory")
    nmds, nfms = NMDSService(), NFMSService()
    lab_container.deploy(nmds)
    lab_container.deploy(nfms)
    nfms.install_transport("gridftp")
    lab_store = RepositoryFileStore()
    satellite = GridFTPTransport(network,
                                 bandwidth=config.satellite_bandwidth,
                                 parallel_streams=1)
    tool = IngestionTool(
        RepositoryFacade(
            RpcClient(network, "command-center", default_timeout=60.0,
                      default_retries=2),
            nmds.handle, nfms.handle, {"gridftp": satellite},
            repo_store=lab_store, staging=local_archive),
        experiment="ucla-field-test", sweep_interval=30.0)

    def archiver():
        """Block received samples into archive files (store-and-forward)."""
        buffer: list = []
        blocks = [0]

        def on_sample(sample):
            buffer.append((sample.time, {sample.channel: sample.value}))
            if len(buffer) >= config.block_size:
                blocks[0] += 1
                local_archive.deposit(f"field-block-{blocks[0]:04d}",
                                      list(buffer), created=kernel.now)
                buffer.clear()

        receiver.callback = on_sample
        yield kernel.timeout(config.duration + 5.0)
        if buffer:
            blocks[0] += 1
            local_archive.deposit(f"field-block-{blocks[0]:04d}",
                                  list(buffer), created=kernel.now)

    archive_done = kernel.process(archiver(), name="archiver")
    tool.start()
    kernel.run(until=archive_done)
    # let the satellite uploads drain
    tool_deadline = kernel.now + 600.0
    kernel.run(until=tool_deadline)
    tool.stop()
    kernel.run(until=kernel.now + 120.0)

    received = sum(receiver.received_count(c) for c in sensors)
    upload_durations = [
        rec.detail["duration"]
        for rec in kernel.log.records("ingest.command-center",
                                      "upload.completed")]
    # fundamental frequency from the roof acceleration spectrum
    roof_acc = acceleration[:, -1]
    spectrum = np.abs(np.fft.rfft(roof_acc * np.hanning(len(roof_acc))))
    freqs = np.fft.rfftfreq(len(roof_acc), config.dt)
    fundamental = float(freqs[1 + int(np.argmax(spectrum[1:]))])

    return FieldTestReport(
        floors_sampled=n_dof,
        samples_sent=sent[0],
        samples_received=received,
        wifi_loss_fraction=1.0 - received / max(1, sent[0]),
        files_archived_locally=len(local_archive),
        files_uploaded_via_satellite=len(tool.uploaded),
        upload_duration=float(np.sum(upload_durations)),
        peak_roof_drift=float(np.max(np.abs(displacement[:, -1]))),
        fundamental_frequency_hz=fundamental,
        extras={"archive": local_archive, "lab_store": lab_store,
                "tool": tool, "receiver": receiver,
                "frame": frame, "displacement": displacement})
