"""Discrete-event simulation kernel.

This package provides the generic machinery that the memory hierarchy, host
cores, and PIM module are built on:

* :mod:`repro.sim.kernel` -- the event queue and simulator loop.
* :mod:`repro.sim.component` -- components with bounded, back-pressured
  input queues (the building block of every pipeline stage).
* :mod:`repro.sim.messages` -- memory-system message types.
* :mod:`repro.sim.stats` -- the mean convention, histograms and the
  read-only view over component snapshots.
* :mod:`repro.sim.config` -- configuration dataclasses (Table II defaults).
"""

from repro.sim.kernel import Simulator
from repro.sim.component import Component, QueuedComponent
from repro.sim.messages import Message, MessageType
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    PimModuleConfig,
    ScopeBufferConfig,
    SystemConfig,
)

__all__ = [
    "Simulator",
    "Component",
    "QueuedComponent",
    "Message",
    "MessageType",
    "CacheConfig",
    "CoreConfig",
    "MemoryConfig",
    "PimModuleConfig",
    "ScopeBufferConfig",
    "SystemConfig",
]
