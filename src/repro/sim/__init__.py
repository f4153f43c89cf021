"""A full-system computer-architecture simulator — the gem5 substitute.

gem5art treats gem5 as a black box with a well-defined contract: a simulator
binary (compiled from a source revision with a static configuration) takes a
run script, a kernel, a disk image and parameters, and produces statistics
or a characteristic failure.  This package implements that contract with a
discrete-event simulator detailed enough to drive every experiment in the
paper:

- four CPU models (``kvm``, ``atomic``, ``timing``, ``o3``) with distinct
  timing behaviour,
- two memory systems (``classic`` and Ruby with the ``MI_example`` and
  ``MESI_Two_Level`` protocols) with a cache/coherence timing model,
- a full-system boot sequencer driven by the guest kernel/distro models,
- workload execution for multi-threaded benchmark suites (PARSEC),
- gem5-v20.1-accurate *support limits and failure modes* via an explicit
  fault model (see :mod:`repro.sim.faults`),
- gem5-style statistics output.
"""

from repro.sim.events import EventQueue
from repro.common.statsdb import StatsDB
from repro.sim.config import (
    SystemConfig,
    CacheConfig,
    MemoryTech,
    MEMORY_TECHS,
    CPU_TYPES,
    MEMORY_SYSTEMS,
)
from repro.sim.buildinfo import Gem5Build
from repro.sim.checkpoint import Checkpoint
from repro.sim.simulator import (
    Gem5Simulator,
    SimulationResult,
    SimulationStatus,
)

__all__ = [
    "EventQueue",
    "StatsDB",
    "SystemConfig",
    "CacheConfig",
    "MemoryTech",
    "MEMORY_TECHS",
    "CPU_TYPES",
    "MEMORY_SYSTEMS",
    "Gem5Build",
    "Checkpoint",
    "Gem5Simulator",
    "SimulationResult",
    "SimulationStatus",
]
