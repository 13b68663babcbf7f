"""The STAPL runtime system (ARMI + scheduler + machine models).

Public surface mirrors Ch. III.B of the paper: locations, RMI primitives
(async / sync / split-phase), fences, collectives, communication groups and
p_objects — :class:`Location` written once over :class:`BackendRuntime`'s
primitives, which the deterministic virtual-time simulator (:class:`Runtime`)
and real processes (:mod:`repro.runtime.mp`) each implement.
"""

from .comm import (
    COMBINING_WINDOW,
    Message,
    Network,
    estimate_size,
)
from .config import RuntimeConfig
from .future import Future, pc_future
from .machine import CRAY4, CRAY5, MACHINES, P5_CLUSTER, SMP, MachineModel, get_machine
from .p_object import PObject
from .scheduler import (
    BackendRuntime,
    Location,
    LocationGroup,
    Runtime,
    SpmdError,
    SpmdReport,
    spmd_run,
    spmd_run_detailed,
)
from .stats import LocationStats, RunStats

__all__ = [
    "BackendRuntime",
    "COMBINING_WINDOW",
    "CRAY4",
    "CRAY5",
    "Future",
    "Location",
    "LocationGroup",
    "LocationStats",
    "MACHINES",
    "MachineModel",
    "Message",
    "Network",
    "P5_CLUSTER",
    "PObject",
    "RunStats",
    "Runtime",
    "RuntimeConfig",
    "SMP",
    "SpmdError",
    "SpmdReport",
    "estimate_size",
    "get_machine",
    "pc_future",
    "spmd_run",
    "spmd_run_detailed",
]
