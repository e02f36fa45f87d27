"""The site DAQ system: periodic sampling, block deposit, live tap."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.daq.filestore import StagingStore
from repro.daq.sensors import SensorChannel
from repro.sim import Kernel
from repro.util.errors import ConfigurationError


class DAQSystem:
    """Samples channels at ``sample_interval``, deposits blocks of rows.

    Mirrors the MOST sites' LabVIEW DAQ: every ``block_size`` samples a new
    file lands in the staging store (named ``<site>-block-<n>.dat``), and
    every sample is also handed to live listeners (the NSDS tap).  The DAQ
    free-runs from :meth:`start` until :meth:`stop`.
    """

    def __init__(self, site: str, kernel: Kernel, store: StagingStore, *,
                 sample_interval: float = 0.5, block_size: int = 20,
                 seed: int = 0):
        if sample_interval <= 0 or block_size <= 0:
            raise ConfigurationError("sample_interval and block_size must be "
                                     "positive")
        self.site = site
        self.kernel = kernel
        self.store = store
        self.sample_interval = sample_interval
        self.block_size = block_size
        self.rng = np.random.default_rng(seed)
        self.channels: list[SensorChannel] = []
        self._listeners: list[Callable[[float, dict[str, float]], None]] = []
        self._buffer: list[tuple[float, dict[str, float]]] = []
        self._blocks = 0
        self.running = False
        self.samples_taken = 0

    def add_channel(self, channel: SensorChannel) -> None:
        if any(c.name == channel.name for c in self.channels):
            raise ConfigurationError(
                f"duplicate DAQ channel {channel.name!r} at {self.site}")
        self.channels.append(channel)

    def on_sample(self, listener: Callable[[float, dict[str, float]], None]) -> None:
        """Register a live tap called with ``(time, {channel: value})``."""
        self._listeners.append(listener)

    def start(self) -> None:
        if self.running:
            return
        if not self.channels:
            raise ConfigurationError(f"DAQ at {self.site} has no channels")
        self.running = True
        self.kernel.process(self._loop(), name=f"daq.{self.site}")

    def stop(self) -> None:
        """Stop sampling; flushes any partial block."""
        self.running = False
        self._flush()

    def _loop(self):
        while self.running:
            yield self.kernel.timeout(self.sample_interval)
            if not self.running:
                break
            self._take_sample()

    def _take_sample(self) -> None:
        now = self.kernel.now
        row = {c.name: c.sample(self.rng) for c in self.channels}
        self.samples_taken += 1
        self._buffer.append((now, row))
        for listener in self._listeners:
            listener(now, row)
        if len(self._buffer) >= self.block_size:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._blocks += 1
        name = f"{self.site}-block-{self._blocks:05d}.dat"
        self.store.deposit(name, self._buffer, created=self.kernel.now)
        self.kernel.emit(f"daq.{self.site}", "block.deposited",
                         file=name, rows=len(self._buffer))
        self._buffer = []
